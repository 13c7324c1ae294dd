"""Capacities on finite spaces.

A capacity assigns a value in [0,1] to every subset of a finite space,
monotonically under inclusion, with value 0 on the empty set and 1 on the
whole space.  Three representations live here:

  Capacity              a full subset table, one value per bitmask
  PossibilityCapacity   determined by a pointwise density with maximum 1;
                        the value of a set is the largest density inside it
  NecessityCapacity     the dual of a stored possibility capacity

The dual of a capacity v is F -> 1 - v(complement of F).  Possibility
capacities are exactly the ones satisfying v(A u B) = max(v(A), v(B)), and
necessity capacities the ones satisfying v(A n B) = min(v(A), v(B)); duality
swaps the two classes and is an involution.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import gt, sub

from ._frozen import Value
from .spaces import FiniteSpace, GENERAL_TABLE_MAX_ELEMENTS


class CapacityError(ValueError):
    """A set-function failed the capacity axioms.

    For monotonicity failures, witness holds a pair (smaller, larger) of
    label tuples with value(smaller) > value(larger).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _check_space(space):
    if not isinstance(space, FiniteSpace):
        raise ValueError("expected a FiniteSpace")
    return space


def _differences_exact(values) -> bool:
    """Whether a - b decides the order of every pair of values exactly.

    True unless floats meet Fractions that no float holds: Fraction - float
    rounds the Fraction to a float first, so Fraction(1, 3) - 1/3 == 0 although
    Fraction(1, 3) > 1/3.  Where it holds, a - b > 0 is a > b and a - b != 0
    is a != b, so comparing gives the verdicts of subtracting.
    """
    if not any(issubclass(k, float) for k in set(map(type, values))):
        return True
    return all(float(v) == v for v in values if isinstance(v, Fraction))


def _has_covering_drop(values, k, tol, compare) -> bool:
    """Whether values[m] exceeds values[m | 1 << k] by more than tol.

    m runs over the masks without bit k of a subset table of length 2**n with
    n > k, each covering pair once.  With compare (tol == 0 on a table whose
    differences are exact) the pairs are compared instead of subtracted.
    """
    half = 1 << k
    keep = ([1] * half + [0] * half) * (len(values) >> (k + 1))
    small = compress(values, keep)
    large = compress(values[half:], keep)
    if compare:
        return any(map(gt, small, large))
    return max(map(sub, small, large)) > tol


class Capacity(Value):
    """A general capacity stored as a full subset table.

    values is indexed by subset bitmask (so its length is 2**space.size).
    Construction validates the axioms in this order: every value in [0,1],
    empty set 0, monotonicity along covering pairs, whole space 1.  With
    tol > 0 (float mode) the last three comparisons allow that much slack;
    the range check has none in either mode.
    """

    __slots__ = ("space", "values")
    _fields = ("space", "values")
    kind = "general"

    def __init__(self, space, values, tol=0):
        _check_space(space)
        if space.size > GENERAL_TABLE_MAX_ELEMENTS:
            raise ValueError(
                f"space has {space.size} elements; general capacity tables "
                f"are capped at {GENERAL_TABLE_MAX_ELEMENTS}"
            )
        values = tuple(values)
        if len(values) != 1 << space.size:
            raise ValueError(
                f"need {1 << space.size} subset values, got {len(values)}"
            )
        for m, v in enumerate(values):
            if not 0 <= v <= 1:
                raise CapacityError(
                    f"value {v!r} of subset {space.members(m)!r} is outside [0,1]"
                )
        if abs(values[0]) > tol:
            raise CapacityError(f"empty set must have value 0, got {values[0]!r}")
        compare = tol == 0 and _differences_exact(values)
        if any(
            _has_covering_drop(values, bit, tol, compare)
            for bit in range(space.size)
        ):
            # some covering pair fails; the ordered sweep names the first one
            for mask in range(len(values)):
                vm = values[mask]
                free = space.full_mask & ~mask
                while free:
                    bit = free & -free
                    free ^= bit
                    if vm - values[mask | bit] > tol:
                        small = space.members(mask)
                        large = space.members(mask | bit)
                        raise CapacityError(
                            f"monotonicity fails: value{small!r} = {vm!r} "
                            f"exceeds value{large!r} = {values[mask | bit]!r}",
                            witness=(small, large),
                        )
        if abs(values[-1] - 1) > tol:
            raise CapacityError(
                f"whole space must have value 1, got {values[-1]!r}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def value(self, mask: int):
        return self.values[mask]

    def as_general(self, tol=0) -> "Capacity":
        return self

    def dual(self, tol=0) -> "Capacity":
        full = self.space.full_mask
        vals = self.values
        return Capacity(
            self.space, [1 - vals[full ^ m] for m in range(len(vals))], tol=tol
        )


def _check_density(space, density, tol) -> None:
    """A possibility density's axioms: every value in [0,1], maximum 1 (within tol).

    Every value is at most the maximum, so 0 <= v for each v and a maximum
    of at most 1 decide the range with two comparisons per value; a NaN
    fails 0 <= v.  On a failure the first value outside [0,1] is named.
    """
    top = max(density)
    if not (top <= 1 and all(0 <= v for v in density)):
        for name, v in zip(space.labels, density):
            if not 0 <= v <= 1:
                raise CapacityError(f"density of {name!r} is {v!r}, outside [0,1]")
    if abs(top - 1) > tol:
        raise CapacityError(
            f"a possibility density must reach 1 somewhere; maximum is {top!r}"
        )


class PossibilityCapacity(Value):
    """A capacity determined by a density on points.

    density[k] is the value of the singleton {labels[k]}; the largest density
    must be 1.  value(F) is the maximum density over F, and 0 for the empty
    set.  No table is materialized, so large spaces are fine until
    as_general() is called.
    """

    __slots__ = ("space", "density")
    _fields = ("space", "density")
    kind = "possibility"

    def __init__(self, space, density, tol=0):
        _check_space(space)
        density = tuple(density)
        if len(density) != space.size:
            raise ValueError(
                f"need {space.size} density values, got {len(density)}"
            )
        _check_density(space, density, tol)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "density", density)

    def value(self, mask: int):
        if mask == 0:
            return 0
        best = None
        d = self.density
        k = 0
        while mask:
            if mask & 1:
                v = d[k]
                if best is None or v > best:
                    best = v
            mask >>= 1
            k += 1
        return best

    def density_of(self, label: str):
        return self.density[self.space.index(label)]

    def as_general(self, tol=0) -> Capacity:
        return Capacity(
            self.space, [self.value(m) for m in self.space.subsets()], tol=tol
        )

    def dual(self, tol=0) -> "NecessityCapacity":
        return NecessityCapacity(self)


class NecessityCapacity(Value):
    """The dual of a possibility capacity, stored by its conjugate.

    value(F) = 1 - conjugate(complement of F).  Taking the dual again returns
    the stored conjugate, so duality is an involution on the nose.
    """

    __slots__ = ("space", "conjugate")
    _fields = ("conjugate",)
    kind = "necessity"

    def __init__(self, conjugate: PossibilityCapacity):
        if not isinstance(conjugate, PossibilityCapacity):
            raise ValueError("NecessityCapacity wraps a PossibilityCapacity")
        object.__setattr__(self, "space", conjugate.space)
        object.__setattr__(self, "conjugate", conjugate)

    @classmethod
    def from_dual_density(cls, space, density, tol=0):
        return cls(PossibilityCapacity(space, density, tol=tol))

    def value(self, mask: int):
        return 1 - self.conjugate.value(self.space.full_mask & ~mask)

    def as_general(self, tol=0) -> Capacity:
        return Capacity(
            self.space, [self.value(m) for m in self.space.subsets()], tol=tol
        )

    def dual(self, tol=0) -> PossibilityCapacity:
        return self.conjugate


def make_capacity(space, table, tol=0) -> Capacity:
    """Build a general capacity from a subset table.

    table maps subsets to values; keys may be bitmasks or iterables of labels
    (frozensets, tuples, lists).  Every subset must be covered exactly once.
    """
    _check_space(space)
    values = [None] * (1 << space.size)
    for key, v in table.items():
        mask = key if isinstance(key, int) else space.mask_of(key)
        if mask < 0 or mask > space.full_mask:
            raise ValueError(f"subset key {key!r} is out of range")
        if values[mask] is not None:
            raise ValueError(f"subset {space.members(mask)!r} given twice")
        values[mask] = v
    missing = [m for m, v in enumerate(values) if v is None]
    if missing:
        raise ValueError(
            f"table misses {len(missing)} subsets, first {space.members(missing[0])!r}"
        )
    return Capacity(space, values, tol=tol)


def possibility_from_density(space, density, tol=0) -> PossibilityCapacity:
    """Build a possibility capacity from a density given as mapping or sequence."""
    _check_space(space)
    if hasattr(density, "keys"):
        unknown = set(density.keys()) - set(space.labels)
        if unknown:
            raise ValueError(f"density names unknown labels {sorted(unknown)!r}")
        density = [density.get(name, 0) for name in space.labels]
    return PossibilityCapacity(space, density, tol=tol)


def capacity_of_set(cap, subset):
    """Value of a subset, given as a bitmask or an iterable of labels."""
    mask = subset if isinstance(subset, int) else cap.space.mask_of(subset)
    if mask < 0 or mask > cap.space.full_mask:
        raise ValueError(f"subset {subset!r} is not over {cap.space}")
    return cap.value(mask)


def dual(cap, tol=0):
    """The dual capacity; an involution exchanging possibility and necessity."""
    return cap.dual(tol=tol)


def greatest_capacity(space) -> PossibilityCapacity:
    """The greatest capacity: 1 on every nonempty set (density identically 1)."""
    _check_space(space)
    return PossibilityCapacity(space, (1,) * space.size)


def least_capacity(space) -> NecessityCapacity:
    """The least capacity: 0 on every proper subset, 1 on the whole space."""
    return greatest_capacity(space).dual()


def _max_union_holds(vals, tol) -> bool:
    """The max-union law v(A u B) = max(v(A), v(B)) over a table indexed by mask.

    At tol == 0 on a table whose differences are exact, the law holds exactly
    when v(empty) <= v(B) for every B and v(A) = max(v(A - low), v(low)) for
    every A of two or more points, low being A's lowest point: by induction
    v(A) is then the largest singleton value inside A, which characterises
    possibility measures.  That costs O(2^n).  Otherwise every subset pair is
    swept, O(4^n): with tol > 0 the recursion would accept tables that the
    pair sweep rejects.
    """
    size = len(vals)
    if tol == 0 and _differences_exact(vals):
        empty = vals[0]
        if any(v < empty for v in vals):
            return False
        for k in range(size.bit_length() - 1):
            low = 1 << k
            single = vals[low]
            for rest in range(low << 1, size, low << 1):
                vr = vals[rest]
                if vals[rest | low] != (vr if vr >= single else single):
                    return False
        return True
    for a in range(size):
        va = vals[a]
        for b in range(a, size):
            lhs = vals[a | b]
            rhs = va if va >= vals[b] else vals[b]
            if abs(lhs - rhs) > tol:
                return False
    return True


def is_possibility(cap, tol=0) -> bool:
    """Exactly test the max-union law v(A u B) = max(v(A), v(B)).

    Density-backed possibility capacities satisfy the law by construction and
    return True immediately.  Anything else is tabled and checked in O(2^n)
    at tol = 0, through v(A) = max(v(A - low), v(low)) for the lowest point
    low of A, and over all subset pairs, O(4^n), at tol > 0, where that
    recursion would let errors pile up past tol along a chain of unions.
    """
    if isinstance(cap, PossibilityCapacity):
        return True
    return _max_union_holds([cap.value(m) for m in cap.space.subsets()], tol)


def is_necessity(cap, tol=0) -> bool:
    """Exactly test the min-intersection law v(A n B) = min(v(A), v(B)).

    The law holds exactly when m -> -v(complement of m) obeys the max-union
    law, so is_possibility's check serves both tests, with the same costs:
    O(2^n) at tol = 0 and the O(4^n) pair sweep at tol > 0.  Negation and
    complement are exact, unlike 1 - v in float mode, so the verdict is
    bit-identical.
    """
    if isinstance(cap, NecessityCapacity):
        return True
    full = cap.space.full_mask
    return _max_union_holds(
        [-cap.value(full ^ m) for m in cap.space.subsets()], tol
    )


def lattice_join(a, b, tol=0):
    """Pointwise maximum of two capacities on the same space.

    The join of two possibility capacities is again a possibility capacity and
    is returned in density form; any other combination materializes a general
    table.
    """
    if a.space != b.space:
        raise ValueError("lattice operations need capacities on the same space")
    if isinstance(a, PossibilityCapacity) and isinstance(b, PossibilityCapacity):
        return PossibilityCapacity(
            a.space,
            tuple(max(x, y) for x, y in zip(a.density, b.density)),
            tol=tol,
        )
    return Capacity(
        a.space,
        [max(a.value(m), b.value(m)) for m in a.space.subsets()],
        tol=tol,
    )


def lattice_meet(a, b, tol=0):
    """Pointwise minimum of two capacities on the same space.

    Always returns a general table: the meet of possibility capacities can
    leave the possibility class.
    """
    if a.space != b.space:
        raise ValueError("lattice operations need capacities on the same space")
    return Capacity(
        a.space,
        [min(a.value(m), b.value(m)) for m in a.space.subsets()],
        tol=tol,
    )


def interval_contains(lower, upper, candidate, tol=0) -> bool:
    """Membership in the order interval spanned by two capacities.

    True when meet(lower, upper) <= candidate <= join(lower, upper) holds on
    every subset.
    """
    if lower.space != upper.space or lower.space != candidate.space:
        raise ValueError("interval membership needs one common space")
    for m in lower.space.subsets():
        lo = min(lower.value(m), upper.value(m))
        hi = max(lower.value(m), upper.value(m))
        v = candidate.value(m)
        if v < lo - tol or v > hi + tol:
            return False
    return True


def same_capacity(a, b, tol=0) -> bool:
    """Equality of capacities as set functions, across representations."""
    if a.space != b.space:
        return False
    return all(abs(a.value(m) - b.value(m)) <= tol for m in a.space.subsets())
