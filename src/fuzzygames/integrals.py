"""The t-normed integral of a unit-interval function against a capacity.

For a function f on a finite space and a capacity mu, the integral generated
by a t-norm star is

    max over t in [0,1] of  star(mu({x : f(x) >= t}), t)

The level set {f >= t} only changes at the values f takes, and on each
constant step the maximum is attained at the step's right endpoint, so the
supremum is an exact finite maximum over the distinct values of f together
with 0.  With star = min this is the classical Sugeno integral.
Against a possibility capacity the measure of each level set is a running
maximum of the density (_density_level_maximum, which the games module
shares); any other capacity is read through value() once per level.
"""

from __future__ import annotations

from operator import itemgetter

from ._frozen import Value
from .spaces import FiniteSpace
from .tnorms import MINIMUM, TNorm
from .capacities import PossibilityCapacity


class FuzzyFunction(Value):
    """A [0,1]-valued function on a finite space, stored pointwise."""

    __slots__ = ("space", "values")
    _fields = ("space", "values")

    def __init__(self, space, values):
        if not isinstance(space, FiniteSpace):
            raise ValueError("expected a FiniteSpace")
        values = tuple(values)
        if len(values) != space.size:
            raise ValueError(f"need {space.size} values, got {len(values)}")
        for name, v in zip(space.labels, values):
            if not 0 <= v <= 1:
                raise ValueError(f"value of {name!r} is {v!r}, outside [0,1]")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def __call__(self, label: str):
        return self.values[self.space.index(label)]

    def level_set(self, t) -> int:
        """Bitmask of {x : f(x) >= t}."""
        mask = 0
        for k, v in enumerate(self.values):
            if v >= t:
                mask |= 1 << k
        return mask


def level_set(f: FuzzyFunction, t) -> int:
    """Bitmask of the upper level set {x : f(x) >= t}."""
    if not 0 <= t <= 1:
        raise ValueError(f"level {t!r} is outside [0,1]")
    return f.level_set(t)


def _level_maximum(values, measure, star: TNorm):
    """Core evaluation shared with the tensor module.

    values: per-element function values; measure: callable on bitmasks;
    returns max over the distinct values t (and 0) of star(measure({v >= t}), t).
    """
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    best = 0
    mask = 0
    i = 0
    n = len(order)
    while i < n:
        t = values[order[i]]
        while i < n and values[order[i]] == t:
            mask |= 1 << order[i]
            i += 1
        if t <= best:
            break  # star(m, t) <= t cannot improve on best any more
        v = star(measure(mask), t)
        if v > best:
            best = v
    return best


def _level_groups(values):
    """The distinct values of a function, descending, each with its points.

    Values equal under == share a group whatever their types, and each group
    is led by its lowest-index value, the level _level_maximum's stable sort
    uses; points are listed ascending.
    """
    groups = {}
    for k, v in enumerate(values):
        groups.setdefault(v, []).append(k)
    return sorted(groups.items(), key=itemgetter(0), reverse=True)


def _density_level_maximum(groups, density, fn):
    """_level_maximum against the possibility capacity with this density.

    groups come from _level_groups and fn is star's raw operation: every
    density value and level lies in [0,1] already.  The measure of each upper
    level set is a running maximum of the density over the groups swept so
    far.  A tie goes to the lowest index, as in PossibilityCapacity.value,
    because equal values can differ in type (int 1, Fraction(1), 1.0) and
    star may return either argument.  So the value and its type are those
    of _level_maximum with PossibilityCapacity.value as the measure.
    """
    best = 0
    top = None
    at = -1
    for t, points in groups:
        if t <= best:
            break  # star(m, t) <= t cannot improve on best any more
        for k in points:
            v = density[k]
            if top is None or v > top or (k < at and v == top):
                top = v
                at = k
        v = fn(top, t)
        if v > best:
            best = v
    return best


def tnormed_integral(f: FuzzyFunction, mu, star: TNorm):
    """Integrate f against the capacity mu with the given t-norm."""
    if f.space != mu.space:
        raise ValueError("function and capacity live on different spaces")
    if isinstance(mu, PossibilityCapacity):
        return _density_level_maximum(_level_groups(f.values), mu.density, star._fn)
    return _level_maximum(f.values, mu.value, star)


def sugeno_integral(f: FuzzyFunction, mu):
    """The minimum t-norm special case."""
    return tnormed_integral(f, mu, MINIMUM)


def possibility_integral(f: FuzzyFunction, mu: PossibilityCapacity, star: TNorm):
    """The integral against a possibility capacity, which it requires.

    The value is the max over points x of star(density(x), f(x)), because
    star is monotone; it is computed by tnormed_integral's density sweep,
    so both give the same value and type.  The sweep may pass star an
    operand equal to, but not the same as, the one a loop over points
    would pass (Fraction(1, 2) where a point holds 0.5), so on inputs that
    mix int, Fraction and float the result may differ from that loop's in
    type or, by float rounding, in value.
    """
    if not isinstance(mu, PossibilityCapacity):
        raise ValueError("the density closed form needs a possibility capacity")
    return tnormed_integral(f, mu, star)
