from fractions import Fraction

import pytest

from fuzzygames import (
    FiniteSpace,
    FuzzyFunction,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    greatest_capacity,
    level_set,
    PossibilityCapacity,
    TNorm,
    possibility_from_density,
    possibility_integral,
    sugeno_integral,
    tnormed_integral,
)
from fuzzygames.integrals import _level_maximum
from conftest import (
    grid_integral,
    possibility_integral_by_points,
    random_capacity,
    random_function,
    random_possibility,
    random_space,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)
AB = FiniteSpace(("a", "b"))
TNORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]


class TestFuzzyFunction:
    def test_pointwise_access(self):
        f = FuzzyFunction(AB, (H, 1))
        assert f("a") == H
        assert f("b") == 1

    def test_level_sets(self):
        space = FiniteSpace(("a", "b", "c"))
        f = FuzzyFunction(space, (H, 1, Q))
        assert f.level_set(0) == 0b111
        assert f.level_set(Q) == 0b111
        assert f.level_set(H) == 0b011
        assert f.level_set(Fraction(3, 4)) == 0b010
        assert f.level_set(1) == 0b010
        assert level_set(f, H) == 0b011

    def test_level_argument_checked(self):
        f = FuzzyFunction(AB, (H, 1))
        with pytest.raises(ValueError):
            level_set(f, Fraction(3, 2))
        with pytest.raises(ValueError):
            level_set(f, -1)

    def test_level_sets_are_nested(self, rng):
        for _ in range(20):
            space = random_space(rng)
            f = random_function(space, rng)
            prev = space.full_mask
            for k in range(9):
                m = f.level_set(Fraction(k, 8))
                assert m & prev == m  # shrinking as t grows
                prev = m

    def test_validation(self):
        with pytest.raises(ValueError):
            FuzzyFunction(AB, (H,))
        with pytest.raises(ValueError):
            FuzzyFunction(AB, (H, Fraction(3, 2)))


class TestIntegralValues:
    def test_against_full_belief(self):
        # integrating against the greatest capacity picks out the maximum
        space = FiniteSpace(("a", "b", "c"))
        top = greatest_capacity(space)
        f = FuzzyFunction(space, (Q, H, Fraction(3, 4)))
        for t in TNORMS:
            assert tnormed_integral(f, top, t) == Fraction(3, 4)

    def test_half_density_examples(self):
        # density (1, 1/2) against the indicator-like payoffs used all over
        mu = possibility_from_density(AB, {"a": 1, "b": H})
        f = FuzzyFunction(AB, (H, 0))
        assert tnormed_integral(f, mu, MINIMUM) == H
        assert tnormed_integral(f, mu, PRODUCT) == H
        assert tnormed_integral(f, mu, LUKASIEWICZ) == H
        g = FuzzyFunction(AB, (0, H))
        assert tnormed_integral(g, mu, MINIMUM) == H
        assert tnormed_integral(g, mu, PRODUCT) == Q
        assert tnormed_integral(g, mu, LUKASIEWICZ) == 0

    def test_constant_functions(self, rng):
        # integral of a constant c is star(1, c) = c
        for _ in range(10):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            c = Fraction(rng.randint(0, 8), 8)
            f = FuzzyFunction(space, (c,) * space.size)
            for t in TNORMS:
                assert tnormed_integral(f, mu, t) == c

    def test_indicator_functions(self, rng):
        # integral of an indicator of F is star(mu(F), 1) = mu(F)
        for _ in range(10):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            mask = rng.randint(0, space.full_mask)
            f = FuzzyFunction(
                space, [1 if mask >> k & 1 else 0 for k in range(space.size)]
            )
            for t in TNORMS:
                if mask == 0:
                    assert tnormed_integral(f, mu, t) == 0
                else:
                    assert tnormed_integral(f, mu, t) == mu.value(mask)

    def test_sugeno_is_the_min_case(self, rng):
        for _ in range(10):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = random_function(space, rng)
            assert sugeno_integral(f, mu) == tnormed_integral(f, mu, MINIMUM)

    def test_space_mismatch(self):
        mu = greatest_capacity(AB)
        f = FuzzyFunction(FiniteSpace(("x", "y")), (H, 1))
        with pytest.raises(ValueError):
            tnormed_integral(f, mu, MINIMUM)


class TestOracles:
    def test_dense_grid_agreement_on_grid_values(self, rng):
        # function values on the 1/50 grid: the dense sweep is exact
        for _ in range(12):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = FuzzyFunction(
                space,
                [Fraction(rng.randint(0, 50), 50) for _ in range(space.size)],
            )
            for t in TNORMS:
                assert tnormed_integral(f, mu, t) == grid_integral(
                    f, mu, t, resolution=50
                )

    def test_density_closed_form_agreement(self, rng):
        for _ in range(30):
            space = random_space(rng)
            mu = random_possibility(space, rng)
            f = random_function(space, rng)
            for t in TNORMS:
                expected = possibility_integral_by_points(f, mu, t)
                assert tnormed_integral(f, mu, t) == expected
                assert possibility_integral(f, mu, t) == expected

    def test_density_sweep_matches_the_value_scan(self, rng):
        # int 0 and 1, Fractions and floats tie under ==; the density sweep
        # must pick the point a value() scan per level picks, so types agree
        pool = [0, 1, 0.0, 1.0, Fraction(0), Fraction(1), H, 0.5, Q, 0.25]
        # not a t-norm: it hands back the measure itself at low levels, so a
        # tie resolved to the wrong point shows in the result's type
        lean = TNorm("lean", lambda a, b: a if b <= H else a * 0)
        for _ in range(300):
            space = random_space(rng, 1, 5)
            density = [rng.choice(pool) for _ in range(space.size)]
            density[rng.randrange(space.size)] = rng.choice((1, 1.0, Fraction(1)))
            mu = PossibilityCapacity(space, density)
            f = FuzzyFunction(space, [rng.choice(pool) for _ in range(space.size)])
            for t in TNORMS + [lean]:
                got = tnormed_integral(f, mu, t)
                ref = _level_maximum(f.values, mu.value, t)
                assert (got, type(got)) == (ref, type(ref))

    def test_closed_form_requires_possibility(self, rng):
        space = random_space(rng)
        mu = random_capacity(space, rng)
        f = random_function(space, rng)
        with pytest.raises(ValueError):
            possibility_integral(f, mu, MINIMUM)


class TestMonotonicity:
    def test_monotone_in_the_function(self, rng):
        for _ in range(15):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = random_function(space, rng)
            bumped = FuzzyFunction(
                space,
                [min(1, v + Fraction(1, 16)) for v in f.values],
            )
            for t in TNORMS:
                assert tnormed_integral(f, mu, t) <= tnormed_integral(
                    bumped, mu, t
                )

    def test_monotone_in_the_capacity(self, rng):
        for _ in range(15):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            top = greatest_capacity(space)
            f = random_function(space, rng)
            for t in TNORMS:
                assert tnormed_integral(f, mu, t) <= tnormed_integral(f, top, t)

    def test_monotone_in_the_tnorm(self, rng):
        for _ in range(15):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = random_function(space, rng)
            luk = tnormed_integral(f, mu, LUKASIEWICZ)
            prod = tnormed_integral(f, mu, PRODUCT)
            mn = tnormed_integral(f, mu, MINIMUM)
            assert luk <= prod <= mn

    def test_bounded_by_function_maximum(self, rng):
        for _ in range(15):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = random_function(space, rng)
            for t in TNORMS:
                assert tnormed_integral(f, mu, t) <= max(f.values)

    def test_perturbation_is_lipschitz(self, rng):
        # shifting f by at most delta moves the integral by at most delta
        delta = Fraction(1, 32)
        for _ in range(15):
            space = random_space(rng)
            mu = random_capacity(space, rng)
            f = random_function(space, rng)
            g = FuzzyFunction(
                space,
                [
                    max(0, min(1, v + Fraction(rng.randint(-1, 1), 32)))
                    for v in f.values
                ],
            )
            for t in TNORMS:
                a = tnormed_integral(f, mu, t)
                b = tnormed_integral(g, mu, t)
                assert abs(a - b) <= delta
