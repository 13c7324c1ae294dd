"""Value semantics and immutability of the core classes.

Spaces, t-norms, capacities and fuzzy functions are values: two of them are
equal when they have the same class and equal fields, equal values hash
equal, and each prints in constructor form.  Games and profiles are
immutable too, but compare by identity.  Copies and pickles of all ten
restore the slots their constructors validated, so a float value accepted
within a tolerance survives them.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from fuzzygames import (
    BeliefProfile,
    Capacity,
    CapacityError,
    FiniteSpace,
    FuzzyFunction,
    Game,
    MINIMUM,
    NecessityCapacity,
    PRODUCT,
    PossibilityCapacity,
    ProductSpace,
    StrategyProfile,
    TNorm,
    same_capacity,
    tnorm,
)

from conftest import hamacher

H = Fraction(1, 2)
AB = FiniteSpace(("a", "b"))
XY = FiniteSpace(("x", "y"))
POSS = PossibilityCapacity(AB, (1, H))
GAME = Game((AB, XY), ([0, H, H, 1], [1, H, H, 0]))
BELIEFS = (PossibilityCapacity(XY, (1, H)), POSS)

# per core class: a builder of a fresh instance, and one of its attributes
# (fresh, so that a deletion that wrongly succeeds harms no shared object)
IMMUTABLE = {
    "FiniteSpace": (lambda: FiniteSpace(["a", "b"]), "labels"),
    "ProductSpace": (lambda: ProductSpace([AB, XY]), "factors"),
    "TNorm": (lambda: TNorm("min", min), "name"),
    "Capacity": (lambda: Capacity(AB, [0, H, 0, 1]), "values"),
    "PossibilityCapacity": (lambda: PossibilityCapacity(AB, (1, H)), "density"),
    "NecessityCapacity": (lambda: NecessityCapacity(POSS), "conjugate"),
    "FuzzyFunction": (lambda: FuzzyFunction(AB, (0, H)), "values"),
    "Game": (lambda: Game((AB, XY), ([0, H, H, 1], [1, H, H, 0])), "payoffs"),
    "BeliefProfile": (lambda: BeliefProfile(GAME, BELIEFS), "beliefs"),
    "StrategyProfile": (
        lambda: StrategyProfile(GAME, (POSS, PossibilityCapacity(XY, (H, 1)))),
        "capacities",
    ),
}


@pytest.mark.parametrize("make, attr", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_attributes_cannot_be_set_or_deleted(make, attr):
    obj = make()
    message = f"^{type(obj).__name__} is immutable$"
    before = getattr(obj, attr)
    with pytest.raises(AttributeError, match=message):
        setattr(obj, attr, before)
    with pytest.raises(AttributeError, match=message):
        delattr(obj, attr)
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
    assert getattr(obj, attr) is before
    assert not hasattr(obj, "__dict__")


def _ab():
    return FiniteSpace(["a", "b"])


# per value class: a builder of fresh equal values, and a different value
VALUES = {
    "FiniteSpace": (_ab, FiniteSpace(["b", "a"])),
    "ProductSpace": (lambda: ProductSpace([_ab(), XY]), ProductSpace([XY, AB])),
    "TNorm": (lambda: TNorm("min", min), PRODUCT),
    "Capacity": (
        lambda: Capacity(_ab(), [0, H, 0, 1]),
        Capacity(AB, [0, H, H, 1]),
    ),
    "PossibilityCapacity": (
        lambda: PossibilityCapacity(_ab(), [1, H]),
        PossibilityCapacity(AB, (H, 1)),
    ),
    "NecessityCapacity": (
        lambda: PossibilityCapacity(_ab(), [1, H]).dual(),
        NecessityCapacity(PossibilityCapacity(AB, (H, 1))),
    ),
    "FuzzyFunction": (
        lambda: FuzzyFunction(_ab(), [0, H]),
        FuzzyFunction(AB, (H, 0)),
    ),
}


@pytest.mark.parametrize("make, other", VALUES.values(), ids=VALUES.keys())
def test_equality_is_by_fields(make, other):
    a, b = make(), make()
    assert a == b and not a != b
    assert a == a
    assert a != other and not a == other
    assert a != "a"


@pytest.mark.parametrize("make, other", VALUES.values(), ids=VALUES.keys())
def test_equal_values_hash_equal(make, other):
    a, b = make(), make()
    assert a is not b
    assert hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert len({a, b, other}) == 2


def test_equality_needs_the_same_class():
    general = POSS.as_general()
    assert same_capacity(POSS, general)
    assert POSS != general and general != POSS
    nec = POSS.dual()
    table = nec.as_general()
    assert same_capacity(nec, table)
    assert nec != table and table != nec
    # a one-factor product flattens to its factor but is not the factor
    assert ProductSpace([AB]).space is AB
    assert ProductSpace([AB]) != AB


def test_tnorm_equality_is_by_name():
    assert TNorm("min", lambda a, b: a * b) == MINIMUM == tnorm("minimum")
    assert hash(TNorm("min", lambda a, b: a * b)) == hash(MINIMUM)
    assert TNorm("other", min) != MINIMUM


def test_reprs_are_constructor_forms():
    ab = "FiniteSpace(['a', 'b'])"
    poss = f"PossibilityCapacity({ab}, [1, Fraction(1, 2)])"
    assert repr(AB) == ab
    assert repr(ProductSpace([AB, XY])) == (
        f"ProductSpace([{ab}, FiniteSpace(['x', 'y'])])"
    )
    assert repr(MINIMUM) == "TNorm('min')"
    assert repr(Capacity(AB, [0, H, 0, 1])) == (
        f"Capacity({ab}, [0, Fraction(1, 2), 0, 1])"
    )
    assert repr(POSS) == poss
    assert repr(POSS.dual()) == f"NecessityCapacity({poss})"
    assert repr(FuzzyFunction(AB, (0, H))) == (
        f"FuzzyFunction({ab}, [0, Fraction(1, 2)])"
    )


def test_games_and_profiles_compare_by_identity():
    twin = Game((AB, XY), ([0, H, H, 1], [1, H, H, 0]))
    assert GAME == GAME and GAME != twin
    assert len({GAME, twin}) == 2
    assert BeliefProfile(GAME, BELIEFS) != BeliefProfile(GAME, BELIEFS)
    caps = (POSS, PossibilityCapacity(XY, (H, 1)))
    assert StrategyProfile(GAME, caps) != StrategyProfile(GAME, caps)


def _same_game(a, b):
    assert a.spaces == b.spaces and a.payoffs == b.payoffs
    assert a._slices == b._slices


def _round_trips(obj):
    yield copy.copy(obj)
    yield copy.deepcopy(obj)
    yield pickle.loads(pickle.dumps(obj))


# float values that construction accepts only within tol = 1e-9
NEAR_ONE = 0.9999999999
TOLERATED = {
    "PossibilityCapacity-within-tol": lambda: PossibilityCapacity(
        AB, (NEAR_ONE, 0.5), tol=1e-9
    ),
    "Capacity-within-tol": lambda: Capacity(AB, [0, 0.3, 0.5, NEAR_ONE], tol=1e-9),
    "NecessityCapacity-within-tol": lambda: NecessityCapacity(
        PossibilityCapacity(AB, (0.5, NEAR_ONE), tol=1e-9)
    ),
    "StrategyProfile-within-tol": lambda: StrategyProfile(
        GAME, (POSS, PossibilityCapacity(XY, (NEAR_ONE, H), tol=1e-9))
    ),
}


@pytest.mark.parametrize(
    "make",
    [make for make, _ in IMMUTABLE.values()] + list(TOLERATED.values()),
    ids=list(IMMUTABLE) + list(TOLERATED),
)
def test_copies_and_pickles_are_rebuilt_equal(make):
    obj = make()
    for twin in _round_trips(obj):
        assert type(twin) is type(obj)
        if isinstance(obj, Game):
            _same_game(twin, obj)
        elif isinstance(obj, (BeliefProfile, StrategyProfile)):
            _same_game(twin.game, obj.game)
            assert list(twin) == list(obj)
        else:
            assert twin == obj
            assert repr(twin) == repr(obj)


def test_fresh_constructions_stay_strict():
    # the round trips above restore values that tol = 0 would refuse
    with pytest.raises(CapacityError, match="must reach 1"):
        PossibilityCapacity(AB, (NEAR_ONE, 0.5))
    with pytest.raises(CapacityError, match="whole space"):
        Capacity(AB, [0, 0.3, 0.5, NEAR_ONE])
    for make in TOLERATED.values():
        make()


def test_tnorms_pickle_with_their_operation():
    own = TNorm("hamacher", hamacher)
    for t in (MINIMUM, PRODUCT, own):
        for twin in _round_trips(t):
            assert twin == t and twin._fn is t._fn
            assert twin(H, H) == t(H, H)
