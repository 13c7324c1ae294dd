"""Tensor products of capacities generated by a t-norm.

Two routes exist on purpose.  For possibility capacities the product is
determined by densities: the density of a pair (x, y) is ast(d1(x), d2(y)).
For arbitrary capacities the product of a set B works through its slices:
with v(x) = mu2({y : (x, y) in B}), the value of B is

    max over candidate levels t of  ast(mu1({x : v(x) >= t}), t)

where the candidate levels are the distinct slice values of B together with
0.  On possibility inputs the two routes agree on every subset, and with
ast = min the general route reduces to max{t : mu1({v >= t}) >= t}.
"""

from __future__ import annotations

from itertools import product as _iterproduct

from .spaces import GENERAL_TABLE_MAX_ELEMENTS, _product_space
from .tnorms import TNorm, _argument_error
from .capacities import Capacity, PossibilityCapacity
from .integrals import _level_maximum


def tensor_density(mu1: PossibilityCapacity, mu2: PossibilityCapacity, ast: TNorm):
    """Density-form product of two possibility capacities.

    This is the two-factor case of tensor_n, which holds the one density fold.
    """
    if not isinstance(mu1, PossibilityCapacity) or not isinstance(
        mu2, PossibilityCapacity
    ):
        raise ValueError("tensor_density needs possibility capacities")
    return tensor_n([mu1, mu2], ast)


def tensor_general(mu1, mu2, ast: TNorm, tol=0) -> Capacity:
    """Slice-form product of two arbitrary capacities.

    Materializes the full table on the product space, so the combined size is
    capped like any general capacity.  Each factor's table is read once.  A
    cell depends only on its tuple of slice values, so the level maximum runs
    once per distinct tuple: masks of mu2 whose values agree in type and value
    share one representative, and results are memoized by the tuple of
    representatives (never more entries than the table has cells).  The table
    is then validated in full like any general capacity.
    """
    n1 = mu1.space.size
    n2 = mu2.space.size
    if n1 * n2 > GENERAL_TABLE_MAX_ELEMENTS:
        raise ValueError(
            f"product space has {n1 * n2} elements; general tables are capped "
            f"at {GENERAL_TABLE_MAX_ELEMENTS}"
        )
    prod = _product_space((mu1.space, mu2.space))
    tab1 = [mu1.value(m) for m in range(1 << n1)]
    tab2 = [mu2.value(m) for m in range(1 << n2)]
    first = {}
    reps = [first.setdefault((type(v), v), m) for m, v in enumerate(tab2)]
    memo = {}
    values = []
    # mask b holds the slice of point x in bits x*n2 .. x*n2 + n2 - 1, so in
    # mask order x = n1 - 1 is outermost and slice 0 varies fastest
    for key in _iterproduct(reps, repeat=n1):
        try:
            v = memo[key]
        except KeyError:
            slices = [tab2[r] for r in reversed(key)]
            v = memo[key] = _level_maximum(slices, tab1.__getitem__, ast)
        values.append(v)
    return Capacity(prod.space, values, tol=tol)


def tensor_n(caps, ast: TNorm, tol=0):
    """Left-associated n-fold tensor product.

    A single capacity is returned unchanged.  When every factor is a
    possibility capacity the density route is used; otherwise the general
    route folds pairwise, flattening the product space as it goes.
    """
    caps = list(caps)
    if not caps:
        raise ValueError("tensor_n needs at least one capacity")
    if len(caps) == 1:
        return caps[0]
    if all(isinstance(c, PossibilityCapacity) for c in caps):
        prod = _product_space(tuple(c.space for c in caps))
        density = _fold([c.density for c in caps], ast._fn)[-1]
        return PossibilityCapacity(prod.space, density, tol=tol)
    acc = caps[0]
    for nxt in caps[1:]:
        acc = tensor_general(acc, nxt, ast, tol=tol)
    return acc


def _fold(densities, fn, prefix=None):
    """The density fold, one factor at a time, sharing every prefix.

    Each step turns the current list P into [fn(a, b) for a in P for b in d]
    for the next density d: row-major with the last factor fastest, and each
    point left-associated, so values and types are those of folding each
    point on its own.  The fold starts from prefix, or else from the first
    density, and returns the starting list followed by the list of each
    step.  fn is a t-norm's raw operation, so arguments are checked here
    instead: the starting list must lie in [0,1] already, and each list that
    is folded further is checked where it is produced, raising the message
    TNorm.__call__ gives at the first call it would reach.  The last list is
    left to the caller, which checks it as a density.
    """
    densities = list(densities)
    if prefix is None:
        prefix = densities.pop(0)
    out = [prefix]
    for k, d in enumerate(densities):
        if k:
            for a in prefix:
                if not 0 <= a <= 1:
                    raise _argument_error(a, d[0])
        prefix = [fn(a, b) for a in prefix for b in d]
        out.append(prefix)
    return out


def support_check(caps, supports, ast: TNorm, tol=0) -> bool:
    """Whether the tensor of capacities vanishes outside a support product.

    Each capacity must already vanish outside its own support (value 0 on the
    complement); violating that precondition is an error, not a False.
    Returns True when the tensor assigns 0 to the complement of the product
    of the supports.
    """
    caps = list(caps)
    supports = list(supports)
    if len(supports) != len(caps):
        raise ValueError("need one support per capacity")
    masks = []
    for c, sup in zip(caps, supports):
        mask = sup if isinstance(sup, int) else c.space.mask_of(sup)
        if mask < 0 or mask > c.space.full_mask:
            raise ValueError(f"support {sup!r} is not over {c.space}")
        outside = c.space.full_mask & ~mask
        if abs(c.value(outside)) > tol:
            raise ValueError(
                f"capacity on {c.space} has mass {c.value(outside)!r} outside "
                f"its declared support {c.space.members(mask)!r}"
            )
        masks.append(mask)
    joint = tensor_n(caps, ast, tol=tol)
    prod = _product_space(tuple(c.space for c in caps))
    inside = prod.product_mask(masks)
    outside = prod.space.full_mask & ~inside
    return abs(joint.value(outside)) <= tol
