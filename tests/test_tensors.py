import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzygames import (
    Capacity,
    FiniteSpace,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    PossibilityCapacity,
    ProductSpace,
    TNorm,
    greatest_capacity,
    is_necessity,
    is_possibility,
    possibility_from_density,
    same_capacity,
    support_check,
    tensor_density,
    tensor_general,
    tensor_n,
)
import fuzzygames.tensors
from conftest import (
    hamacher,
    random_capacity,
    random_possibility,
    random_space,
    random_supported_capacity,
    slice_tensor_by_calls,
)

H = Fraction(1, 2)
Q = Fraction(1, 4)
AB = FiniteSpace(("a", "b"))
TNORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]


def naive_tensor_value(mu1, slice_values, ast):
    """Candidate sweep with no sorting tricks and no early exit."""
    best = 0
    for t in set(slice_values) | {0}:
        mask = 0
        for k, v in enumerate(slice_values):
            if v >= t:
                mask |= 1 << k
        cand = ast(mu1.value(mask), t)
        if cand > best:
            best = cand
    return best


def slices_of(mu2, b, n1):
    n2 = mu2.space.size
    full2 = mu2.space.full_mask
    return [mu2.value((b >> (x * n2)) & full2) for x in range(n1)]


class TestDensityForm:
    def test_frozen_half_density_products(self):
        p = possibility_from_density(AB, {"a": 1, "b": H})
        assert tensor_density(p, p, MINIMUM).density == (1, H, H, H)
        assert tensor_density(p, p, PRODUCT).density == (1, H, H, Q)
        assert tensor_density(p, p, LUKASIEWICZ).density == (1, H, H, 0)

    def test_result_lives_on_the_flat_product(self):
        p = possibility_from_density(AB, {"a": 1, "b": H})
        out = tensor_density(p, p, PRODUCT)
        assert out.space.labels == ("a|a", "a|b", "b|a", "b|b")
        assert isinstance(out, PossibilityCapacity)

    def test_top_is_absorbing(self, rng):
        for ast in TNORMS:
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            top = tensor_density(
                greatest_capacity(s1), greatest_capacity(s2), ast
            )
            assert all(d == 1 for d in top.density)

    def test_top_extends_the_other_factor(self, rng):
        # tensor with the greatest capacity cylinder-extends a density
        for ast in TNORMS:
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            p = random_possibility(s1, rng)
            out = tensor_density(p, greatest_capacity(s2), ast)
            for i, d in enumerate(p.density):
                for j in range(s2.size):
                    assert out.density[i * s2.size + j] == d

    def test_needs_possibility_inputs(self, rng):
        space = random_space(rng, max_size=3)
        cap = random_capacity(space, rng)
        p = random_possibility(space, rng)
        with pytest.raises(ValueError):
            tensor_density(cap, p, MINIMUM)


class TestGeneralForm:
    def test_matches_naive_candidate_sweep(self, rng):
        for _ in range(6):
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, min_size=2, max_size=3)
            if s1.size * s2.size > 9:
                s2 = FiniteSpace(("x", "y"))
            mu1 = random_capacity(s1, rng)
            mu2 = random_capacity(s2, rng)
            for ast in TNORMS:
                out = tensor_general(mu1, mu2, ast)
                for b in out.space.subsets():
                    expected = naive_tensor_value(
                        mu1, slices_of(mu2, b, s1.size), ast
                    )
                    assert out.value(b) == expected

    def test_min_form_reduces_to_threshold_maximum(self, rng):
        # with ast = min the value of B is the largest threshold t whose
        # slice level set has outer measure at least t; the threshold can
        # land on a slice value or on a measure value, so both feed the sweep
        for _ in range(6):
            s1 = random_space(rng, max_size=3)
            s2 = FiniteSpace(("x", "y"))
            mu1 = random_capacity(s1, rng)
            mu2 = random_capacity(s2, rng)
            out = tensor_general(mu1, mu2, MINIMUM)
            measure_values = [mu1.value(m) for m in s1.subsets()]
            for b in out.space.subsets():
                vals = slices_of(mu2, b, s1.size)
                best = 0
                for t in set(vals) | set(measure_values) | {0}:
                    mask = 0
                    for k, v in enumerate(vals):
                        if v >= t:
                            mask |= 1 << k
                    if mu1.value(mask) >= t and t > best:
                        best = t
                assert out.value(b) == best

    def test_coincides_with_density_form_on_possibilities(self, rng):
        for _ in range(8):
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            p1 = random_possibility(s1, rng)
            p2 = random_possibility(s2, rng)
            for ast in TNORMS:
                dens = tensor_density(p1, p2, ast)
                gen = tensor_general(p1, p2, ast)
                assert same_capacity(dens, gen)
                assert is_possibility(gen)

    def test_marginals_recover_the_factors(self, rng):
        # B x X2 has measure mu1(B), X1 x B has measure mu2(B), any inputs
        for _ in range(6):
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            mu1 = random_capacity(s1, rng)
            mu2 = random_capacity(s2, rng)
            for ast in TNORMS:
                out = tensor_general(mu1, mu2, ast)
                prod = ProductSpace([s1, s2])
                for m in s1.subsets():
                    assert out.value(
                        prod.product_mask([m, s2.full_mask])
                    ) == mu1.value(m)
                for m in s2.subsets():
                    assert out.value(
                        prod.product_mask([s1.full_mask, m])
                    ) == mu2.value(m)

    def test_product_space_is_shared_between_calls(self, rng):
        s1 = random_space(rng, max_size=3)
        s2 = random_space(rng, max_size=3)
        mu1 = random_capacity(s1, rng)
        mu2 = random_capacity(s2, rng)
        a = tensor_general(mu1, mu2, MINIMUM)
        b = tensor_general(mu1, mu2, PRODUCT)
        assert a.space is b.space
        assert a.space == ProductSpace([s1, s2]).space

    def test_size_cap(self):
        big = FiniteSpace(tuple(f"e{k}" for k in range(5)))
        mu = greatest_capacity(big)
        with pytest.raises(ValueError, match="capped"):
            tensor_general(mu, mu, MINIMUM)


class TestNecessityProducts:
    def setup_method(self):
        self.nec = possibility_from_density(AB, {"a": 1, "b": H}).dual()
        self.prod_space = ProductSpace([AB, AB])
        self.diagonal = self.prod_space.space.mask_of(("a|a", "b|b"))

    def test_frozen_diagonal_values(self):
        assert tensor_general(self.nec, self.nec, MINIMUM).value(
            self.diagonal
        ) == H
        assert tensor_general(self.nec, self.nec, PRODUCT).value(
            self.diagonal
        ) == Q
        assert tensor_general(self.nec, self.nec, LUKASIEWICZ).value(
            self.diagonal
        ) == 0

    def test_min_product_is_again_a_necessity(self):
        out = tensor_general(self.nec, self.nec, MINIMUM)
        assert is_necessity(out)
        # and it is the dual of the min product of the conjugate densities
        conj = self.nec.dual()
        mirrored = tensor_density(conj, conj, MINIMUM).dual()
        assert same_capacity(out, mirrored)

    def test_other_products_can_leave_the_class(self):
        # same inputs, multiplicative and Lukasiewicz products break the
        # min-intersection law, so closure under min is not the general rule
        assert not is_necessity(tensor_general(self.nec, self.nec, PRODUCT))
        assert not is_necessity(
            tensor_general(self.nec, self.nec, LUKASIEWICZ)
        )


class TestNFold:
    def test_single_factor_unchanged(self, rng):
        p = random_possibility(random_space(rng), rng)
        assert tensor_n([p], MINIMUM) is p

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor_n([], MINIMUM)

    def test_three_fold_density_is_the_flat_fold(self, rng):
        for ast in TNORMS:
            spaces = [random_space(rng, max_size=3) for _ in range(3)]
            caps = [random_possibility(s, rng) for s in spaces]
            out = tensor_n(caps, ast)
            prod = ProductSpace(spaces)
            assert out.space == prod.space
            flat = 0
            for i, a in enumerate(caps[0].density):
                for j, b in enumerate(caps[1].density):
                    for k, c in enumerate(caps[2].density):
                        assert out.density[flat] == ast(ast(a, b), c)
                        flat += 1

    def test_general_fold_agrees_with_density_fold(self, rng):
        # feeding the same possibilities through the table route changes
        # nothing: the fold of coinciding products coincides
        for ast in TNORMS:
            spaces = [FiniteSpace(("a", "b")), FiniteSpace(("x", "y")), AB]
            caps = [random_possibility(s, rng) for s in spaces]
            dens = tensor_n(caps, ast)
            gen = tensor_n([caps[0].as_general(), caps[1], caps[2]], ast)
            assert isinstance(gen, Capacity)
            assert same_capacity(dens, gen)

    def test_pair_matches_binary_product(self, rng):
        p1, p2, p3 = (
            random_possibility(random_space(rng, max_size=3), rng)
            for _ in range(3)
        )
        d1, d2, d3 = p1.density, p2.density, p3.density
        for ast in TNORMS:
            pair = [ast(a, b) for a in d1 for b in d2]
            assert tensor_density(p1, p2, ast).density == tuple(pair)
            assert tensor_n([p1, p2], ast).density == tuple(pair)
            triple = [ast(ast(a, b), c) for a in d1 for b in d2 for c in d3]
            assert tensor_n([p1, p2, p3], ast).density == tuple(triple)


class TestSupportCheck:
    def test_possibility_supports(self, rng):
        # a density vanishing off its support always passes
        for ast in TNORMS:
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            d1 = [0] * s1.size
            d2 = [0] * s2.size
            sup1 = sorted(rng.sample(range(s1.size), rng.randint(1, s1.size)))
            sup2 = sorted(rng.sample(range(s2.size), rng.randint(1, s2.size)))
            for k in sup1:
                d1[k] = Fraction(rng.randint(1, 8), 8)
            for k in sup2:
                d2[k] = Fraction(rng.randint(1, 8), 8)
            d1[rng.choice(sup1)] = Fraction(1)
            d2[rng.choice(sup2)] = Fraction(1)
            caps = [
                PossibilityCapacity(s1, d1),
                PossibilityCapacity(s2, d2),
            ]
            supports = [
                sum(1 << k for k in sup1),
                sum(1 << k for k in sup2),
            ]
            assert support_check(caps, supports, ast) is True

    def test_general_supported_capacities(self, rng):
        for trial in range(9):
            ast = TNORMS[trial % 3]
            s1 = random_space(rng, max_size=3)
            s2 = random_space(rng, max_size=3)
            m1 = rng.randint(1, s1.full_mask)
            m2 = rng.randint(1, s2.full_mask)
            c1 = random_supported_capacity(s1, m1, rng)
            c2 = random_supported_capacity(s2, m2, rng)
            assert support_check([c1, c2], [m1, m2], ast) is True

    def test_supports_by_labels(self):
        p = possibility_from_density(AB, {"a": 1})
        assert support_check([p, p], [("a",), ("a",)], MINIMUM) is True

    def test_violated_precondition_is_an_error(self):
        p = possibility_from_density(AB, {"a": 1, "b": H})
        with pytest.raises(ValueError, match="outside"):
            support_check([p, p], [("a",), ("a", "b")], MINIMUM)

    def test_support_count_mismatch(self):
        p = possibility_from_density(AB, {"a": 1})
        with pytest.raises(ValueError, match="one support per"):
            support_check([p, p], [("a",)], MINIMUM)


# a coarse validation grid keeps collection fast
HAMACHER = TNorm.from_function("hamacher", hamacher, grid_resolution=9)
SLICE_TNORMS = TNORMS + [HAMACHER]
KINDS = ("general", "possibility", "necessity")


def random_factor(space, kind, rng, floats=False):
    """A random capacity of the given kind, exact or in floats."""
    if kind == "general":
        cap = random_capacity(space, rng)
        if floats:
            cap = Capacity(space, [float(v) for v in cap.values], tol=1e-9)
        return cap
    cap = random_possibility(space, rng)
    if floats:
        cap = PossibilityCapacity(space, [float(d) for d in cap.density])
    return cap.dual() if kind == "necessity" else cap


def typed(cap):
    return [(type(v), v) for v in cap.values]


def sized_space(name, size):
    return FiniteSpace(tuple(f"{name}{k}" for k in range(size)))


class TestSliceTableDifferential:
    """tensor_general against the per-subset slice loop, type for type."""

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_every_size_pair_and_kind(self, floats):
        rng = random.Random(4041 + floats)
        tol = 1e-9 if floats else 0
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                s1, s2 = sized_space("a", n1), sized_space("b", n2)
                # the oracle needs seconds per 4x4 table, so large pairs
                # cycle through the kinds and t-norms instead of crossing them
                pairs = [(k1, k2) for k1 in KINDS for k2 in KINDS]
                norms = SLICE_TNORMS
                if n1 * n2 > 9:
                    pairs = [pairs[(n1 * 4 + n2) % len(pairs)]]
                    norms = [SLICE_TNORMS[(n1 + n2) % len(SLICE_TNORMS)]]
                for k1, k2 in pairs:
                    mu1 = random_factor(s1, k1, rng, floats)
                    mu2 = random_factor(s2, k2, rng, floats)
                    for ast in norms:
                        out = tensor_general(mu1, mu2, ast, tol=tol)
                        ref = slice_tensor_by_calls(mu1, mu2, ast, tol=tol)
                        assert out.space == ref.space
                        assert typed(out) == typed(ref), (n1, n2, k1, k2, ast)

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    def test_three_factor_fold(self, floats):
        rng = random.Random(4043 + floats)
        tol = 1e-9 if floats else 0
        for sizes in ((2, 2, 2), (1, 3, 2), (2, 1, 3)):
            for ast in SLICE_TNORMS:
                kinds = [rng.choice(KINDS) for _ in sizes]
                kinds[rng.randrange(3)] = "necessity"  # force the slice route
                caps = [
                    random_factor(sized_space(f"f{pos}x", n), kind, rng, floats)
                    for pos, (n, kind) in enumerate(zip(sizes, kinds))
                ]
                out = tensor_n(caps, ast, tol=tol)
                ref = caps[0]
                for nxt in caps[1:]:
                    ref = slice_tensor_by_calls(ref, nxt, ast, tol=tol)
                assert out.space == ref.space
                assert typed(out) == typed(ref), (sizes, kinds, ast)

    @settings(max_examples=30, deadline=None)
    @given(
        n1=st.integers(min_value=1, max_value=3),
        n2=st.integers(min_value=1, max_value=3),
        k1=st.sampled_from(KINDS),
        k2=st.sampled_from(KINDS),
        ast=st.sampled_from(SLICE_TNORMS),
        floats=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_hypothesis_pairs(self, n1, n2, k1, k2, ast, floats, seed):
        rng = random.Random(seed)
        tol = 1e-9 if floats else 0
        mu1 = random_factor(sized_space("a", n1), k1, rng, floats)
        mu2 = random_factor(sized_space("b", n2), k2, rng, floats)
        out = tensor_general(mu1, mu2, ast, tol=tol)
        assert typed(out) == typed(slice_tensor_by_calls(mu1, mu2, ast, tol=tol))

    def test_int_and_fraction_values_keep_their_types(self):
        # a necessity factor yields the int 1 and Fraction values; a float
        # table yields 1.0: none of them may stand in for another
        nec = possibility_from_density(AB, {"a": 1, "b": H}).dual()
        gen = Capacity(AB, [0, Fraction(1), 1.0, 1])
        for mu1, mu2 in ((nec, gen), (gen, nec), (gen, gen)):
            for ast in SLICE_TNORMS:
                out = tensor_general(mu1, mu2, ast)
                assert typed(out) == typed(slice_tensor_by_calls(mu1, mu2, ast))


class CountingCapacity:
    """A capacity whose value calls are counted."""

    def __init__(self, cap):
        self.cap = cap
        self.space = cap.space
        self.reads = 0

    def value(self, mask):
        self.reads += 1
        return self.cap.value(mask)


class TestSliceTableWork:
    def test_memo_bounds_level_maxima_and_reads(self, monkeypatch, rng):
        calls = []
        level_maximum = fuzzygames.tensors._level_maximum

        def counted(*args):
            calls.append(1)
            return level_maximum(*args)

        monkeypatch.setattr(fuzzygames.tensors, "_level_maximum", counted)
        necessities = [("necessity", "necessity")]
        mixed = necessities + [
            ("general", "necessity"),
            ("necessity", "general"),
            ("general", "possibility"),
        ]
        # 4x4 with a general mu2 would memoize up to 16^4 tuples: keep the
        # large case to the 0/1-heavy necessity factors of the search
        for (n1, n2), kinds in (
            ((3, 3), mixed), ((2, 4), mixed), ((4, 2), mixed), ((4, 4), necessities)
        ):
            for k1, k2 in kinds:
                s1, s2 = sized_space("a", n1), sized_space("b", n2)
                mu1 = CountingCapacity(random_factor(s1, k1, rng))
                mu2 = CountingCapacity(random_factor(s2, k2, rng))
                distinct = len({
                    (type(v), v) for v in map(mu2.cap.value, s2.subsets())
                })
                calls.clear()
                tensor_general(mu1, mu2, PRODUCT)
                assert len(calls) <= distinct ** n1
                assert mu1.reads + mu2.reads <= (1 << n1) + (1 << n2)
