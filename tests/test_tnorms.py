from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fuzzygames import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    LawReport,
    TNorm,
    check_tnorm_laws,
    tnorm,
)
from conftest import hamacher, tnorm_laws_by_calls

H = Fraction(1, 2)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=64)
BUILTINS = [MINIMUM, PRODUCT, LUKASIEWICZ]


class TestApply:
    def test_minimum_values(self):
        assert MINIMUM(H, Fraction(3, 4)) == H
        assert MINIMUM(1, Fraction(2, 7)) == Fraction(2, 7)
        assert MINIMUM(0, 1) == 0

    def test_product_values(self):
        assert PRODUCT(H, H) == Fraction(1, 4)
        assert PRODUCT(Fraction(2, 3), Fraction(3, 4)) == H
        assert PRODUCT(1, Fraction(5, 8)) == Fraction(5, 8)

    def test_lukasiewicz_values(self):
        assert LUKASIEWICZ(H, H) == 0
        assert LUKASIEWICZ(Fraction(3, 4), Fraction(3, 4)) == H
        assert LUKASIEWICZ(1, Fraction(5, 8)) == Fraction(5, 8)
        assert LUKASIEWICZ(Fraction(1, 3), Fraction(1, 3)) == 0

    def test_domain_is_checked(self):
        for t in BUILTINS:
            with pytest.raises(ValueError):
                t(Fraction(3, 2), H)
            with pytest.raises(ValueError):
                t(H, Fraction(-1, 2))

    def test_exact_on_fractions(self):
        # rational in, rational out, no float creep
        for t in BUILTINS:
            v = t(Fraction(1, 3), Fraction(1, 7))
            assert isinstance(v, (Fraction, int))


class TestLookup:
    def test_short_and_long_names(self):
        assert tnorm("min") is MINIMUM
        assert tnorm("minimum") is MINIMUM
        assert tnorm("prod") is PRODUCT
        assert tnorm("product") is PRODUCT
        assert tnorm("luk") is LUKASIEWICZ
        assert tnorm("lukasiewicz") is LUKASIEWICZ

    def test_lookup_normalizes(self):
        assert tnorm(" MIN ") is MINIMUM
        assert tnorm("Prod") is PRODUCT

    def test_drastic_is_refused(self):
        with pytest.raises(ValueError, match="not continuous"):
            tnorm("drastic")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown t-norm"):
            tnorm("frobnitz")

    def test_identity_semantics(self):
        assert MINIMUM == tnorm("min")
        assert MINIMUM != PRODUCT
        assert len({MINIMUM, tnorm("minimum"), PRODUCT}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            MINIMUM.name = "other"


class TestLaws:
    @pytest.mark.parametrize("t", BUILTINS, ids=lambda t: t.name)
    def test_builtins_scored_clean(self, t):
        report = check_tnorm_laws(t, grid_resolution=11)
        assert report.max_violation() == 0
        assert report.ok()

    def test_report_fields(self):
        report = check_tnorm_laws(PRODUCT, grid_resolution=5)
        assert isinstance(report, LawReport)
        assert report.grid_resolution == 5
        assert report.commutativity == 0
        assert report.associativity == 0
        assert report.monotonicity == 0
        assert report.identity == 0
        assert report.boundary == 0

    def test_identity_violation_detected(self):
        # probabilistic sum has identity 0, not 1
        bad = TNorm("conorm", lambda a, b: a + b - a * b)
        report = check_tnorm_laws(bad, grid_resolution=5)
        assert report.identity > 0
        assert not report.ok()

    def test_commutativity_violation_detected(self):
        bad = TNorm("first", lambda a, b: a * a * b)
        report = check_tnorm_laws(bad, grid_resolution=5)
        assert report.commutativity > 0

    def test_associativity_violation_detected(self):
        # arithmetic-mean-with-product mix is commutative but not associative
        bad = TNorm("mix", lambda a, b: a * b * (a + b) / 2)
        report = check_tnorm_laws(bad, grid_resolution=5)
        assert report.max_violation() > 0

    def test_out_of_range_candidate_rejected(self):
        bad = TNorm("big", lambda a, b: a + b)
        with pytest.raises(ValueError, match="leaves"):
            check_tnorm_laws(bad, grid_resolution=5)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            check_tnorm_laws(MINIMUM, grid_resolution=1)


def _left_luk_right_min(a, b):
    # on the grid, commutative-free and not associative
    return max(0, a + b - 1) if a < b else min(a, b)


def _int_sensitive(a, b):
    # min on Fractions, but returns the int 1 at (1, 1) and maps any int
    # argument to 0: a sweep that confused int 1 with Fraction 1 would miss
    # the associativity failure this causes
    if type(a) is int or type(b) is int:
        return 0
    return 1 if a == b == 1 else min(a, b)


def _typed_zeros(a, b):
    # min, but a zero answer is int 0 below the diagonal and float 0.0 on and
    # above it; a float argument gives min as a float, an int argument gives
    # the other argument.  Only int 0's row and column break associativity,
    # so rows keyed by value alone, sharing float 0.0's, would hide the break
    if type(a) is int:
        return b
    if type(b) is int:
        return a
    m = min(a, b)
    if type(a) is float or type(b) is float:
        return float(m)
    if m == 0:
        return 0 if a > b else 0.0
    return m


LAW_SWEEP_OPS = [
    MINIMUM,
    PRODUCT,
    LUKASIEWICZ,
    TNorm("hamacher", hamacher),
    TNorm("mix", lambda a, b: a * b * (a + b) / 2),
    TNorm("split", _left_luk_right_min),
    TNorm("float-prod", lambda a, b: float(a) * float(b)),
    TNorm("int-sensitive", _int_sensitive),
    TNorm("user-luk", lambda a, b: max(0, a + b - 1)),  # int 0 off the diagonal
    TNorm("typed-zeros", _typed_zeros),
    TNorm("lopsided", lambda a, b: a * b * b),  # fn(v, g) != fn(g, v) off the grid
]


def _typed(report):
    return [(type(v), v) for v in (getattr(report, f.name) for f in fields(report))]


@pytest.mark.parametrize("t", LAW_SWEEP_OPS, ids=lambda t: t.name)
@pytest.mark.parametrize("resolution", [2, 3, 5, 12, 21])
def test_law_sweep_matches_direct_calls(t, resolution):
    got = check_tnorm_laws(t, resolution)
    want = tnorm_laws_by_calls(t, resolution)
    assert got == want
    assert _typed(got) == _typed(want)  # field for field, in type as well


@pytest.mark.parametrize("fn", [hamacher, LUKASIEWICZ._fn], ids=["hamacher", "luk"])
def test_law_sweep_calls_once_per_distinct_off_grid_value(fn):
    """Beyond the grid table, identity and boundary, fn runs once per row
    and once per column of each distinct off-grid table value."""
    resolution = 21
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return fn(a, b)

    check_tnorm_laws(TNorm("counted", counted), resolution)
    grid = {Fraction(i, resolution - 1) for i in range(resolution)}
    table = [fn(a, b) for a in grid for b in grid]
    off_grid = {
        (type(v), v) for v in table if not (type(v) is Fraction and v in grid)
    }
    assert off_grid
    n = resolution
    assert len(calls) == n * n + 2 * n + 2 * n * len(off_grid)


def test_law_sweep_oracle_sees_broken_associativity():
    for name in ("mix", "split", "int-sensitive", "typed-zeros"):
        t = next(t for t in LAW_SWEEP_OPS if t.name == name)
        assert tnorm_laws_by_calls(t, 5).associativity > 0


class TestFromFunction:
    def test_accepts_a_valid_operation(self):
        t = TNorm.from_function("clone", lambda a, b: a * b)
        assert t(H, H) == Fraction(1, 4)
        assert t.name == "clone"

    def test_rejects_law_breaker(self):
        with pytest.raises(ValueError, match="violates"):
            TNorm.from_function("conorm", lambda a, b: a + b - a * b)

    def test_the_screen_reads_the_law_table(self):
        # the discontinuity screen reads the grid table of the law sweep, so
        # the operation runs exactly as often as check_tnorm_laws runs it:
        # 31,779 calls for the Hamacher product at resolution 33
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return hamacher(a, b)

        TNorm.from_function("hamacher", counted)
        checked = len(calls)
        calls.clear()
        check_tnorm_laws(TNorm("hamacher", counted), 33)
        assert checked == len(calls) == 31779

    def test_screen_names_the_first_jump(self):
        # the nilpotent minimum is a t-norm that jumps across a + b = 1; the
        # first jump above 1/5 in the table is at a = 7/32
        def nilpotent_minimum(a, b):
            return min(a, b) if a + b > 1 else a * 0

        assert check_tnorm_laws(TNorm("nm", nilpotent_minimum), 33).ok()
        with pytest.raises(ValueError) as err:
            TNorm.from_function("nm", nilpotent_minimum)
        assert str(err.value) == (
            "'nm' looks discontinuous near (7/32, 13/16); "
            "only continuous t-norms are supported"
        )

    def test_rejects_drastic_style_jump(self):
        def drastic(a, b):
            if a == 1:
                return b
            if b == 1:
                return a
            return a * 0
        with pytest.raises(ValueError, match="discontinuous"):
            TNorm.from_function("drastic", drastic)


class TestProperties:
    @given(a=UNIT, b=UNIT)
    def test_commutative(self, a, b):
        for t in BUILTINS:
            assert t(a, b) == t(b, a)

    @given(a=UNIT, b=UNIT, c=UNIT)
    def test_associative(self, a, b, c):
        for t in BUILTINS:
            assert t(t(a, b), c) == t(a, t(b, c))

    @given(a=UNIT)
    def test_identity_and_boundary(self, a):
        for t in BUILTINS:
            assert t(a, 1) == a
            assert t(a, 0) == 0

    @given(a=UNIT, b=UNIT, c=UNIT)
    def test_monotone(self, a, b, c):
        lo, hi = min(a, b), max(a, b)
        for t in BUILTINS:
            assert t(lo, c) <= t(hi, c)

    @given(a=UNIT, b=UNIT)
    def test_pointwise_ordering(self, a, b):
        assert LUKASIEWICZ(a, b) <= PRODUCT(a, b) <= MINIMUM(a, b) <= min(a, b)

    @given(a=UNIT, b=UNIT, c=UNIT)
    def test_lipschitz(self, a, b, c):
        # all three are 1-Lipschitz in each argument
        for t in BUILTINS:
            assert abs(t(a, c) - t(b, c)) <= abs(a - b)
