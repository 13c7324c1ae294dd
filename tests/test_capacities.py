import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fuzzygames import (
    Capacity,
    CapacityError,
    FiniteSpace,
    NecessityCapacity,
    PossibilityCapacity,
    capacity_of_set,
    dual,
    greatest_capacity,
    interval_contains,
    is_necessity,
    is_possibility,
    lattice_join,
    lattice_meet,
    least_capacity,
    make_capacity,
    possibility_from_density,
    same_capacity,
)
from conftest import (
    first_monotonicity_failure,
    max_union_law_by_pairs,
    min_intersection_law,
    random_capacity,
    random_possibility,
    random_space,
)

H = Fraction(1, 2)
AB = FiniteSpace(("a", "b"))
ABC = FiniteSpace(("a", "b", "c"))


class TestConstruction:
    def test_general_table(self):
        cap = make_capacity(AB, {(): 0, ("a",): H, ("b",): 0, ("a", "b"): 1})
        assert cap.value(0) == 0
        assert cap.value(0b01) == H
        assert cap.value(0b10) == 0
        assert cap.value(0b11) == 1
        assert cap.kind == "general"

    def test_mask_keys(self):
        cap = make_capacity(AB, {0: 0, 1: Fraction(1, 4), 2: H, 3: 1})
        assert cap.value(1) == Fraction(1, 4)

    def test_missing_subset(self):
        with pytest.raises(ValueError, match="misses"):
            make_capacity(AB, {(): 0, ("a",): H, ("a", "b"): 1})

    def test_duplicate_subset(self):
        with pytest.raises(ValueError, match="twice"):
            make_capacity(AB, {0: 0, ("a",): H, 1: H, 2: 0, 3: 1})

    def test_monotonicity_rejected_with_witness(self):
        # {a} is worth more than {a, b}
        t3 = {
            (): 0,
            ("a",): Fraction(3, 4),
            ("b",): 0,
            ("c",): 0,
            ("a", "b"): H,
            ("a", "c"): 1,
            ("b", "c"): H,
            ("a", "b", "c"): 1,
        }
        with pytest.raises(CapacityError, match="monotonicity") as err:
            make_capacity(ABC, t3)
        small, large = err.value.witness
        assert set(small) <= set(large)
        assert t3[small] > t3[large]

    def test_range_rejected(self):
        with pytest.raises(CapacityError, match="outside"):
            make_capacity(AB, {0: 0, 1: Fraction(3, 2), 2: 0, 3: 1})

    def test_empty_set_must_be_zero(self):
        with pytest.raises(CapacityError, match="empty"):
            make_capacity(AB, {0: Fraction(1, 4), 1: H, 2: H, 3: 1})

    def test_full_set_must_be_one(self):
        with pytest.raises(CapacityError, match="whole"):
            make_capacity(AB, {0: 0, 1: H, 2: H, 3: H})

    def test_validation_order_prefers_monotonicity_over_full(self):
        # both the full-set law and monotonicity fail; the monotonicity
        # message wins because the covering scan runs before the full check
        with pytest.raises(CapacityError, match="monotonicity"):
            make_capacity(AB, {0: 0, 1: H, 2: 0, 3: Fraction(1, 4)})

    def test_float_mode_tolerance(self):
        vals = [0.0, 0.5, 0.5000000001, 1.0]
        cap = Capacity(AB, vals, tol=1e-9)
        assert cap.value(1) == 0.5
        with pytest.raises(CapacityError):
            Capacity(AB, [0.0, 0.5, 0.25, 0.49], tol=1e-9)

    def test_float_range_has_no_slack(self):
        # tol loosens the axioms, never the [0,1] range that t-norms require
        with pytest.raises(CapacityError, match="outside"):
            PossibilityCapacity(AB, (1 + 5e-10, 0.5), tol=1e-9)
        with pytest.raises(CapacityError, match="outside"):
            Capacity(AB, [-5e-10, 0.5, 0.5, 1.0], tol=1e-9)
        # the max-density and whole-space comparisons keep their slack
        PossibilityCapacity(AB, (1 - 5e-10, 0.5), tol=1e-9)
        Capacity(AB, [0.0, 0.5, 0.5, 1 - 5e-10], tol=1e-9)

    def test_immutable(self):
        cap = greatest_capacity(AB)
        with pytest.raises(AttributeError):
            cap.density = (1, 1)


class TestPossibility:
    def test_density_evaluation(self):
        poss = possibility_from_density(AB, {"a": 1, "b": H})
        assert poss.value(0) == 0
        assert poss.value(0b01) == 1
        assert poss.value(0b10) == H
        assert poss.value(0b11) == 1
        assert poss.density_of("b") == H
        assert poss.kind == "possibility"

    def test_sequence_density(self):
        poss = possibility_from_density(ABC, [H, 1, Fraction(1, 4)])
        assert poss.density == (H, 1, Fraction(1, 4))

    def test_missing_labels_default_to_zero(self):
        poss = possibility_from_density(ABC, {"b": 1})
        assert poss.density == (0, 1, 0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            possibility_from_density(AB, {"a": 1, "z": H})

    def test_max_must_be_one(self):
        with pytest.raises(CapacityError, match="reach 1"):
            PossibilityCapacity(AB, (H, Fraction(3, 4)))

    def test_density_range(self):
        with pytest.raises(CapacityError, match="outside"):
            PossibilityCapacity(AB, (1, Fraction(-1, 2)))

    @pytest.mark.parametrize(
        "density, message",
        [
            ((Fraction(3, 2), 1), "density of 'a' is Fraction(3, 2), outside [0,1]"),
            ((1, 2), "density of 'b' is 2, outside [0,1]"),
            ((2, -1), "density of 'a' is 2, outside [0,1]"),
            ((1.0, float("nan")), "density of 'b' is nan, outside [0,1]"),
            ((float("nan"), 1.0), "density of 'a' is nan, outside [0,1]"),
            ((H, 0.75), "a possibility density must reach 1 somewhere; maximum is 0.75"),
        ],
    )
    def test_density_errors_name_the_first_bad_value(self, density, message):
        with pytest.raises(CapacityError) as err:
            PossibilityCapacity(AB, density, tol=1e-9)
        assert str(err.value) == message

    def test_as_general_agrees_everywhere(self, rng):
        for _ in range(25):
            space = random_space(rng)
            poss = random_possibility(space, rng)
            table = poss.as_general()
            assert same_capacity(poss, table)
            assert isinstance(table, Capacity)

    def test_table_of_possibility_is_detected(self, rng):
        for _ in range(10):
            space = random_space(rng, max_size=3)
            table = random_possibility(space, rng).as_general()
            assert is_possibility(table)

    def test_capacity_of_set_by_labels(self):
        poss = possibility_from_density(ABC, {"a": 1, "b": H})
        assert capacity_of_set(poss, ("b", "c")) == H
        assert capacity_of_set(poss, 0b110) == H
        assert capacity_of_set(poss, ()) == 0
        with pytest.raises(ValueError):
            capacity_of_set(poss, 0b11111)


class TestDuality:
    def test_frozen_dual_table(self):
        # dual of the density (1, 1/2): empty 0, {a} 1/2, {b} 0, full 1
        poss = possibility_from_density(AB, {"a": 1, "b": H})
        nec = dual(poss)
        assert isinstance(nec, NecessityCapacity)
        assert nec.value(0) == 0
        assert nec.value(0b01) == H
        assert nec.value(0b10) == 0
        assert nec.value(0b11) == 1
        assert nec.kind == "necessity"

    def test_involution_on_representations(self):
        poss = possibility_from_density(AB, {"a": 1, "b": H})
        assert dual(dual(poss)) is poss
        nec = dual(poss)
        assert dual(dual(nec)) == nec

    def test_involution_on_general_tables(self, rng):
        for _ in range(40):
            space = random_space(rng)
            cap = random_capacity(space, rng)
            again = cap.dual().dual()
            assert same_capacity(cap, again)

    def test_dual_swaps_the_classes(self, rng):
        for _ in range(10):
            space = random_space(rng, max_size=3)
            poss = random_possibility(space, rng)
            nec_table = dual(poss).as_general()
            assert is_necessity(nec_table)
            assert same_capacity(dual(poss), dual(poss.as_general()))

    def test_greatest_and_least(self):
        top = greatest_capacity(ABC)
        bottom = least_capacity(ABC)
        for m in ABC.subsets():
            if m == 0:
                assert top.value(m) == 0
            else:
                assert top.value(m) == 1
            if m == ABC.full_mask:
                assert bottom.value(m) == 1
            else:
                assert bottom.value(m) == 0
        assert same_capacity(dual(top), bottom)
        assert same_capacity(dual(bottom), top)

    def test_everything_sits_between_bounds(self, rng):
        for _ in range(20):
            space = random_space(rng)
            cap = random_capacity(space, rng)
            top = greatest_capacity(space)
            bottom = least_capacity(space)
            for m in space.subsets():
                assert bottom.value(m) <= cap.value(m) <= top.value(m)


class TestClassDetection:
    def test_additive_is_neither(self):
        # the uniform probability on two points fails both laws
        prob = make_capacity(AB, {0: 0, 1: H, 2: H, 3: 1})
        assert not is_possibility(prob)
        assert not is_necessity(prob)

    def test_necessity_law_on_the_nose(self):
        nec = NecessityCapacity.from_dual_density(ABC, (1, H, Fraction(1, 4)))
        table = nec.as_general()
        for a in ABC.subsets():
            for b in ABC.subsets():
                assert table.value(a & b) == min(table.value(a), table.value(b))

    def test_possibility_law_on_the_nose(self, rng):
        poss = random_possibility(random_space(rng, max_size=3), rng)
        for a in poss.space.subsets():
            for b in poss.space.subsets():
                assert poss.value(a | b) == max(poss.value(a), poss.value(b))

    def test_representation_shortcut(self):
        assert is_possibility(greatest_capacity(AB))
        assert is_necessity(least_capacity(AB))


class TestLattice:
    def test_join_of_densities(self):
        a = possibility_from_density(AB, {"a": 1, "b": H})
        b = possibility_from_density(AB, {"a": H, "b": 1})
        j = lattice_join(a, b)
        assert isinstance(j, PossibilityCapacity)
        assert j.density == (1, 1)

    def test_meet_is_general(self):
        a = possibility_from_density(AB, {"a": 1, "b": H})
        b = possibility_from_density(AB, {"a": H, "b": 1})
        m = lattice_meet(a, b)
        assert isinstance(m, Capacity)
        assert m.value(0b01) == H
        assert m.value(0b10) == H
        assert m.value(0b11) == 1

    def test_join_meet_laws(self, rng):
        for _ in range(15):
            space = random_space(rng, max_size=3)
            a = random_capacity(space, rng)
            b = random_capacity(space, rng)
            c = random_capacity(space, rng)
            assert same_capacity(lattice_join(a, b), lattice_join(b, a))
            assert same_capacity(lattice_meet(a, b), lattice_meet(b, a))
            assert same_capacity(
                lattice_join(a, lattice_join(b, c)),
                lattice_join(lattice_join(a, b), c),
            )
            assert same_capacity(
                lattice_meet(a, lattice_meet(b, c)),
                lattice_meet(lattice_meet(a, b), c),
            )
            assert same_capacity(lattice_join(a, a), a)
            assert same_capacity(lattice_meet(a, a), a)
            # absorption ties the two operations together
            assert same_capacity(lattice_join(a, lattice_meet(a, b)), a)
            assert same_capacity(lattice_meet(a, lattice_join(a, b)), a)

    def test_bounds_are_neutral(self, rng):
        space = random_space(rng)
        cap = random_capacity(space, rng)
        assert same_capacity(lattice_meet(cap, greatest_capacity(space)), cap)
        assert same_capacity(lattice_join(cap, least_capacity(space)), cap)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            lattice_join(greatest_capacity(AB), greatest_capacity(ABC))
        with pytest.raises(ValueError):
            lattice_meet(greatest_capacity(AB), greatest_capacity(ABC))


class TestInterval:
    def test_explicit_membership(self):
        lower = least_capacity(AB)
        upper = possibility_from_density(AB, {"a": 1, "b": H})
        inside = possibility_from_density(AB, {"a": 1, "b": Fraction(1, 4)})
        outside = greatest_capacity(AB)
        assert interval_contains(lower, upper, inside)
        assert not interval_contains(lower, upper, outside)

    def test_orientation_does_not_matter(self):
        lower = least_capacity(AB)
        upper = greatest_capacity(AB)
        mid = possibility_from_density(AB, {"a": 1, "b": H})
        assert interval_contains(lower, upper, mid)
        assert interval_contains(upper, lower, mid)

    def test_meet_and_join_always_inside(self, rng):
        for _ in range(15):
            space = random_space(rng, max_size=3)
            a = random_capacity(space, rng)
            b = random_capacity(space, rng)
            assert interval_contains(a, b, lattice_meet(a, b))
            assert interval_contains(a, b, lattice_join(a, b))
            assert interval_contains(a, b, a)
            assert interval_contains(a, b, b)
            assert interval_contains(
                least_capacity(space), greatest_capacity(space), a
            )

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            interval_contains(
                least_capacity(AB), greatest_capacity(AB), greatest_capacity(ABC)
            )


class TestEquivalence:
    def test_same_capacity_across_representations(self):
        poss = possibility_from_density(AB, {"a": 1, "b": H})
        assert same_capacity(poss, poss.as_general())
        assert not same_capacity(poss, greatest_capacity(AB))
        assert not same_capacity(poss, greatest_capacity(ABC))

    def test_float_tolerance(self):
        a = Capacity(AB, [0.0, 0.5, 0.25, 1.0], tol=1e-9)
        b = Capacity(AB, [0.0, 0.5 + 1e-12, 0.25, 1.0], tol=1e-9)
        assert same_capacity(a, b, tol=1e-9)
        assert not same_capacity(a, b)


@settings(max_examples=40)
@given(data=st.data())
def test_fuzzed_monotonicity_violations_are_caught(data):
    """Plant a single covering violation in a valid table; it must be refused."""
    size = data.draw(st.integers(min_value=2, max_value=4), label="size")
    space = FiniteSpace(tuple(f"p{k}" for k in range(size)))
    import random as _random

    seed = data.draw(st.integers(min_value=0, max_value=10**6), label="seed")
    cap = random_capacity(space, _random.Random(seed))
    values = list(cap.values)
    # pick a covering pair and push the smaller set strictly above the larger
    mask = data.draw(
        st.integers(min_value=0, max_value=space.full_mask - 1), label="mask"
    )
    free = [k for k in range(size) if not mask >> k & 1]
    bit = 1 << data.draw(st.sampled_from(free), label="bit")
    # strictly above its cover; if that pushes past 1 the range check fires,
    # and a raised empty set trips the empty-set check, all CapacityError
    values[mask] = values[mask | bit] + Fraction(1, 97)
    with pytest.raises(CapacityError):
        Capacity(space, values)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_necessity_sweep_matches_min_intersection_oracle(seed):
    """is_necessity agrees with a direct min-intersection sweep.

    Tables cover random capacities, their duals and tabled necessities, in
    exact arithmetic and as floats nudged by +-1e-10 under both tolerances.
    A 1e-17 nudge survives only next to 0, where 1 - v would round it away.
    """
    rng = random.Random(seed)
    space = random_space(rng, max_size=4)
    tables = [
        random_capacity(space, rng),
        random_capacity(space, rng).dual(),
        random_possibility(space, rng).dual().as_general(),
    ]
    for table in tables:
        assert is_necessity(table) == min_intersection_law(table)
        nudged = [
            min(1.0, max(0.0, float(v) + rng.choice((-1e-10, 0.0, 1e-10, 1e-17))))
            for v in table.values
        ]
        floats = Capacity(space, nudged, tol=1e-9)
        for tol in (0, 1e-9):
            assert is_necessity(floats, tol) == min_intersection_law(floats, tol)


def _perturbed(values, rng):
    """The table with one proper nonempty subset moved between its covers."""
    n = (len(values) - 1).bit_length()
    if n < 2:
        return list(values)
    mask = rng.randrange(1, len(values) - 1)
    lo = max(values[mask ^ (1 << k)] for k in range(n) if mask >> k & 1)
    hi = min(values[mask | (1 << k)] for k in range(n) if not mask >> k & 1)
    moved = list(values)
    moved[mask] = lo + (hi - lo) * Fraction(rng.randint(0, 4), 4)
    return moved


def _retyped(values, rng, style):
    """The table as ints where 0 or 1, as Fractions, as floats, or mixed."""
    if style == "int":
        return [int(v) if v in (0, 1) else v for v in values]
    if style == "float":
        return [float(v) for v in values]
    if style == "mixed":
        return [rng.choice((v, float(v), int(v) if v in (0, 1) else v)) for v in values]
    return list(values)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=5),
    denom=st.sampled_from((4, 12)),
    style=st.sampled_from(("int", "fraction", "float", "mixed")),
)
def test_exact_class_tests_match_pair_sweeps(seed, size, denom, style):
    """At tol = 0 both class tests agree with the O(4^n) pair sweeps.

    Random, possibility, necessity and perturbed possibility and necessity
    capacities, the density-backed objects, and one raw table of any values
    in [0,1] (a set function that need not be a capacity), with int,
    Fraction, float or mixed values.  Thirds in a mixed table put Fractions
    next to floats that round them, where a - b and a != b part ways.
    """
    rng = random.Random(seed)
    space = FiniteSpace(tuple(f"p{k}" for k in range(size)))
    poss = random_possibility(space, rng, denom)
    tables = [
        random_capacity(space, rng, denom).values,
        poss.as_general().values,
        poss.dual().as_general().values,
    ]
    tables += [_perturbed(values, rng) for values in tables[1:]]
    caps = [Capacity(space, _retyped(values, rng, style)) for values in tables]
    raw = [Fraction(rng.randint(0, denom), denom) for _ in space.subsets()]
    raw = _retyped(raw, rng, style)
    caps += [poss, poss.dual(), SimpleNamespace(space=space, value=raw.__getitem__)]
    full = space.full_mask
    for cap in caps:
        vals = [cap.value(m) for m in space.subsets()]
        complement = [-vals[full ^ m] for m in space.subsets()]
        assert is_possibility(cap) == max_union_law_by_pairs(vals)
        assert is_necessity(cap) == min_intersection_law(cap)
        assert is_necessity(cap) == max_union_law_by_pairs(complement)


def test_class_tests_keep_float_rounded_differences():
    """A Fraction and the float that rounds it subtract to 0, as before.

    value({p0}) = 1/3 exactly but value({p0, p1}) = float(1/3), which is
    smaller: comparing would reject the table, subtracting accepts it, and
    Capacity and both class tests keep the subtracting verdicts at tol = 0.
    """
    space = FiniteSpace(("p0", "p1", "p2"))
    third = Fraction(1, 3)
    values = [0, third, 0, float(third), 1, 1, 1, 1]
    assert first_monotonicity_failure(space, values) is None
    cap = Capacity(space, values)
    assert is_possibility(cap) is max_union_law_by_pairs(values) is True
    assert is_necessity(cap) is min_intersection_law(cap) is False


def _verdict(space, values, tol):
    """None if Capacity accepts the table, else (message, witness)."""
    try:
        Capacity(space, values, tol=tol)
    except CapacityError as err:
        return str(err), err.witness
    return None


def _plant_drop(values, space, delta, rng):
    """Lower one larger set of a covering pair to delta below the smaller."""
    pairs = [
        (mask, 1 << k)
        for mask in range(1, len(values))
        for k in range(space.size)
        if not mask >> k & 1 and values[mask] >= delta
    ]
    if not pairs:
        return None
    mask, bit = rng.choice(pairs)
    planted = list(values)
    planted[mask | bit] = values[mask] - delta
    return planted


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=1, max_value=6),
)
def test_monotonicity_check_matches_ordered_sweep(seed, size):
    """Capacity accepts and rejects exactly as the ordered covering sweep.

    Monotone tables, then one planted covering-pair drop: exact, and in
    floats just within and just past tol.  A rejection carries the first
    failing pair in mask order, with the same message and witness.
    """
    rng = random.Random(seed)
    space = FiniteSpace(tuple(f"p{k}" for k in range(size)))
    exact = list(random_capacity(space, rng).values)
    floats = [float(v) for v in exact]
    cases = [(exact, 0), (floats, 1e-9), (floats, 0)]
    for values, delta, tol in (
        (exact, Fraction(1, 97), 0),
        (floats, 0.5e-9, 1e-9),
        (floats, 1.5e-9, 1e-9),
        (floats, 1e-12, 0),
    ):
        planted = _plant_drop(values, space, delta, rng)
        if planted is not None:
            cases.append((planted, tol))
    for values, tol in cases:
        expected = first_monotonicity_failure(space, values, tol)
        got = _verdict(space, values, tol)
        if expected is None:
            assert got is None or "monotonicity" not in got[0]
        else:
            assert got == expected
    assert _verdict(space, exact, 0) is None
