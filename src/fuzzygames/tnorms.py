"""Continuous triangular norms on the unit interval.

A t-norm is a binary operation on [0,1] that is commutative, associative,
monotone in each argument, and has 1 as identity.  Only continuous t-norms are
supported; the three built-ins are

    min   minimum            min(a, b)
    prod  product            a * b
    luk   Lukasiewicz        max(0, a + b - 1)

and they are ordered pointwise: luk <= prod <= min.  All three are closed over
the rationals, so exact Fraction arithmetic stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._frozen import Value


class TNorm(Value):
    """A validated t-norm.  Use tnorm(name) or TNorm.from_function."""

    __slots__ = ("name", "_fn")
    _fields = ("name",)

    def __init__(self, name, fn):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_fn", fn)

    def __call__(self, a, b):
        if not (0 <= a <= 1) or not (0 <= b <= 1):
            raise _argument_error(a, b)
        return self._fn(a, b)

    @classmethod
    def from_function(cls, name, fn, grid_resolution=33, max_step=Fraction(1, 5)):
        """Wrap a user-supplied operation after validating it on a grid.

        The four t-norm laws are checked exactly on a grid of the given
        resolution, and a discontinuity screen rejects operations whose value
        jumps by more than max_step between adjacent grid points (this is a
        heuristic: it catches the drastic t-norm and its relatives, not every
        discontinuity).  It accepts, for one, the ordinal sum with a drastic
        summand on (1/2, 5/8) and min elsewhere, a t-norm that is not
        continuous: T(9/16, 9/16) = 1/2 while T(5/8, 9/16) = 9/16, a jump
        below the default step.  The screen reads the grid table the law
        check built, so the operation is not called again for it.
        """
        candidate = cls(name, fn)
        report, table = _law_sweep(candidate, grid_resolution)
        if not report.ok():
            raise ValueError(
                f"{name!r} violates the t-norm laws on the "
                f"{grid_resolution}-point grid: {report}"
            )
        grid = _grid(grid_resolution)
        for a, row in zip(grid, table):
            prev = None
            for b, cur in zip(grid, row):
                if prev is not None and abs(cur - prev) > max_step:
                    raise ValueError(
                        f"{name!r} looks discontinuous near ({a}, {b}); "
                        "only continuous t-norms are supported"
                    )
                prev = cur
        return candidate


def _argument_error(a, b) -> ValueError:
    return ValueError(f"t-norm arguments must lie in [0,1], got ({a!r}, {b!r})")


def _minimum(a, b):
    return a if a <= b else b


def _product(a, b):
    return a * b


def _lukasiewicz(a, b):
    s = a + b - 1
    return s if s > 0 else 0


MINIMUM = TNorm("min", _minimum)
PRODUCT = TNorm("prod", _product)
LUKASIEWICZ = TNorm("luk", _lukasiewicz)

_BY_NAME = {
    "min": MINIMUM,
    "minimum": MINIMUM,
    "prod": PRODUCT,
    "product": PRODUCT,
    "luk": LUKASIEWICZ,
    "lukasiewicz": LUKASIEWICZ,
}


def tnorm(name: str) -> TNorm:
    """Look up a built-in continuous t-norm by name.

    Accepted names: min, prod, luk (long forms minimum, product, lukasiewicz).
    The drastic t-norm is refused by name because it is not continuous.
    """
    key = str(name).strip().lower()
    if key in _BY_NAME:
        return _BY_NAME[key]
    if key == "drastic":
        raise ValueError("the drastic t-norm is not continuous and is not supported")
    raise ValueError(
        f"unknown t-norm {name!r}; choose one of min, prod, luk"
    )


@dataclass(frozen=True)
class LawReport:
    """Worst-case law violations of a candidate t-norm on a finite grid.

    Every field is a nonnegative magnitude; an exact t-norm scores zero on
    each law wherever the grid is closed under it.
    """

    grid_resolution: int
    commutativity: object
    associativity: object
    monotonicity: object
    identity: object
    boundary: object

    def max_violation(self):
        return max(
            self.commutativity,
            self.associativity,
            self.monotonicity,
            self.identity,
            self.boundary,
        )

    def ok(self, tol=0) -> bool:
        return self.max_violation() <= tol


def _grid(resolution: int):
    if resolution < 2:
        raise ValueError("grid resolution must be at least 2")
    d = resolution - 1
    return [Fraction(i, d) for i in range(resolution)]


def check_tnorm_laws(t: TNorm, grid_resolution: int = 11) -> LawReport:
    """Measure the four t-norm laws (plus the a*0=0 boundary) on a grid.

    Commutativity, identity and boundary scan all grid points; monotonicity
    compares adjacent grid steps in each argument, which combined with
    transitivity covers the whole grid; associativity sweeps the full cube.
    Each cube term is read from a table: a Fraction argument on the grid
    reads the grid table, and any other argument v gets one row fn(v, g) and
    one column fn(g, v) over the grid, computed once per distinct
    (type(v), v).  So the operation is called at most 2 * resolution times
    per distinct off-grid value (Lukasiewicz's int 0, say, or the off-grid
    values of a user operation), not once per cube cell; it is taken to
    depend only on its arguments' types and values.
    """
    return _law_sweep(t, grid_resolution)[0]


def _law_sweep(t: TNorm, grid_resolution: int):
    """check_tnorm_laws's report, and the grid table fn(grid[i], grid[j])."""
    grid = _grid(grid_resolution)
    fn = t._fn
    n = len(grid)
    one = grid[-1]
    zero = grid[0]

    identity = max(abs(fn(a, one) - a) for a in grid)
    boundary = max(abs(fn(a, zero)) for a in grid)

    comm = zero
    table = []
    for i, a in enumerate(grid):
        row = []
        for j, b in enumerate(grid):
            v = fn(a, b)
            if not 0 <= v <= 1:
                raise ValueError(f"candidate leaves [0,1]: {a} op {b} = {v}")
            row.append(v)
        table.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(table[i][j] - table[j][i])
            if d > comm:
                comm = d

    mono = zero
    for i in range(n - 1):
        ri, rj = table[i], table[i + 1]
        for j in range(n):
            d = ri[j] - rj[j]
            if d > mono:
                mono = d
            d = table[j][i] - table[j][i + 1]
            if d > mono:
                mono = d

    # Ids of table values: grid point p is p, and each other distinct
    # (type(v), v) takes the next id, in order of first appearance.  rows[q]
    # is fn(value q, g) over the grid: the table's rows, then one row of
    # calls per other value; column, rebuilt for each i, is fn(grid[i], value
    # q).  a - b is formed only where the two sides differ.
    ids = {(Fraction, g): p for p, g in enumerate(grid)}
    cell_ids = [[ids.setdefault((type(v), v), len(ids)) for v in row] for row in table]
    others = [v for _, v in list(ids)[n:]]
    rows = table + [[fn(v, g) for g in grid] for v in others]
    assoc = zero
    for i, gi in enumerate(grid):
        column = table[i] + [fn(gi, v) for v in others]
        for j, q in enumerate(cell_ids[i]):
            for a, r in zip(rows[q], cell_ids[j]):
                b = column[r]
                if a is not b and a != b:
                    d = a - b
                    if d < 0:
                        d = -d
                    if d > assoc:
                        assoc = d

    return LawReport(
        grid_resolution=grid_resolution,
        commutativity=comm,
        associativity=assoc,
        monotonicity=mono,
        identity=identity,
        boundary=boundary,
    ), table
