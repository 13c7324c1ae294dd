"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's candidate-level shortcut
and tensor plumbing: the integral oracle sweeps a dense grid of levels, and
the certificate oracle recomputes best responses and residuals from raw
density algebra over label tuples.  Tests compare library results against
these slower routes.  More keep the direct forms of work the library
shares: a search that checks every candidate from scratch, a t-norm law
sweep that calls the operation for every associativity term, the max-union
law swept over every subset pair, a slice tensor that reads both factors
anew for every subset, the covering-pair monotonicity sweep in mask order,
payoff slices read cell by cell through coordinates, a capacity Nash
check that folds every swapped tensor point by point, and the possibility
integral as a maximum over points instead of a sweep over level sets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iterproduct

import pytest

from fuzzygames import (
    Capacity,
    NashReport,
    FiniteSpace,
    FuzzyFunction,
    Game,
    LawReport,
    PossibilityCapacity,
    ProductSpace,
    StrategyProfile,
    greatest_capacity,
    induced_beliefs,
    verify_equilibrium,
)
from fuzzygames.integrals import _level_maximum


def rand_unit(rng: random.Random, denom: int = 16) -> Fraction:
    return Fraction(rng.randint(0, denom), denom)


def random_space(rng: random.Random, min_size=2, max_size=4) -> FiniteSpace:
    size = rng.randint(min_size, max_size)
    return FiniteSpace(tuple(f"s{k}" for k in range(size)))


def random_possibility(space: FiniteSpace, rng: random.Random, denom: int = 8):
    density = [rand_unit(rng, denom) for _ in range(space.size)]
    density[rng.randrange(space.size)] = Fraction(1)
    return PossibilityCapacity(space, density)


def random_capacity(space: FiniteSpace, rng: random.Random, denom: int = 16):
    """Random monotone table: each value sits between its lower covers and 1."""
    n = space.size
    values = [None] * (1 << n)
    values[0] = Fraction(0)
    for mask in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        floor = Fraction(0)
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            below = values[mask ^ bit]
            if below > floor:
                floor = below
        values[mask] = floor + Fraction(rng.randint(0, denom), denom) * (1 - floor)
    values[-1] = Fraction(1)
    return Capacity(space, values)


def random_supported_capacity(space, support_mask: int, rng, denom: int = 16):
    """Random capacity that vanishes on every subset of the support's complement."""
    base = random_capacity(space, rng, denom)
    complement = space.full_mask & ~support_mask
    values = [
        Fraction(0) if mask & ~complement == 0 else v
        for mask, v in enumerate(base.values)
    ]
    return Capacity(space, values)


def random_function(space: FiniteSpace, rng: random.Random, denom: int = 16):
    return FuzzyFunction(space, [rand_unit(rng, denom) for _ in range(space.size)])


def random_game(
    rng: random.Random, players=None, sizes=None, denom: int = 4
) -> Game:
    if players is None:
        players = rng.choice((2, 2, 2, 3))
    if sizes is None:
        sizes = [rng.choice((2, 3)) for _ in range(players)]
    spaces = [
        FiniteSpace(tuple("abcde"[k] for k in range(size))) for size in sizes
    ]
    total = 1
    for s in spaces:
        total *= s.size
    payoffs = [
        [Fraction(rng.randint(0, denom), denom) for _ in range(total)]
        for _ in range(players)
    ]
    return Game(spaces, payoffs)


def hamacher(a, b):
    """The Hamacher product, a t-norm outside the three built-ins."""
    return 0 if a == b == 0 else a * b / (a + b - a * b)


def grid_integral(f: FuzzyFunction, mu, star, resolution: int = 1000):
    """Dense-grid evaluation of the defining supremum, no candidate shortcut."""
    best = Fraction(0)
    values = f.values
    n = len(values)
    for k in range(resolution + 1):
        t = Fraction(k, resolution)
        mask = 0
        for idx in range(n):
            if values[idx] >= t:
                mask |= 1 << idx
        v = star(mu.value(mask), t)
        if v > best:
            best = v
    return best


def max_union_law_by_pairs(vals, tol=0) -> bool:
    """Direct sweep of v(A u B) = max(v(A), v(B)) over all pairs, O(4^n).

    vals is a subset table indexed by mask.  The library decides the law at
    tol = 0 in O(2^n) and must agree with this sweep on every table.
    """
    for a in range(len(vals)):
        va = vals[a]
        for b in range(a, len(vals)):
            lhs = vals[a | b]
            rhs = va if va >= vals[b] else vals[b]
            if abs(lhs - rhs) > tol:
                return False
    return True


def min_intersection_law(cap, tol=0) -> bool:
    """Direct sweep of v(A n B) = min(v(A), v(B)) over all subset pairs."""
    subsets = cap.space.subsets()
    vals = [cap.value(m) for m in subsets]
    for a in subsets:
        va = vals[a]
        for b in range(a, len(vals)):
            lhs = vals[a & b]
            rhs = va if va <= vals[b] else vals[b]
            if abs(lhs - rhs) > tol:
                return False
    return True


def possibility_integral_by_points(f: FuzzyFunction, mu, star):
    """The integral against a possibility capacity, point by point.

    max over points x of star(density(x), f(x)), which equals the level-set
    evaluation because star is monotone; the library sweeps level sets.
    """
    best = 0
    for d, v in zip(mu.density, f.values):
        cand = star(d, v)
        if cand > best:
            best = cand
    return best


def fold_density(densities, ast):
    acc = densities[0]
    for d in densities[1:]:
        acc = ast(acc, d)
    return acc


def brute_force_certificate(game: Game, profile_caps, star, ast):
    """Recompute an induced-belief equilibrium check from raw density algebra.

    profile_caps: one PossibilityCapacity per player.  Returns (verdict,
    best_response_sets, residuals) built with nothing but loops over label
    tuples, the density closed form of the integral, and max/fold arithmetic.
    """
    n = game.players
    spaces = game.spaces
    densities = [dict(zip(c.space.labels, c.density)) for c in profile_caps]

    responses = []
    for i in range(n):
        opp_labels = [spaces[j].labels for j in range(n) if j != i]
        weights = {}
        for combo in iterproduct(*opp_labels):
            weights[combo] = fold_density(
                [densities[j][lab] for j, lab in zip(
                    [j for j in range(n) if j != i], combo
                )],
                ast,
            )
        scores = {}
        for xi in spaces[i].labels:
            best = Fraction(0)
            for combo, w in weights.items():
                full = list(combo)
                full.insert(i, xi)
                v = star(w, game.payoff_at(i, full))
                if v > best:
                    best = v
            scores[xi] = best
        top = max(scores.values())
        responses.append(tuple(x for x in spaces[i].labels if scores[x] == top))

    residuals = []
    for i in range(n):
        opp_players = [j for j in range(n) if j != i]
        opp_labels = [spaces[j].labels for j in opp_players]
        inside = set(iterproduct(*[responses[j] for j in opp_players]))
        worst = Fraction(0)
        for combo in iterproduct(*opp_labels):
            if combo in inside:
                continue
            w = fold_density(
                [densities[j][lab] for j, lab in zip(opp_players, combo)], ast
            )
            if w > worst:
                worst = w
        residuals.append(worst)
    verdict = all(r == 0 for r in residuals)
    return verdict, tuple(responses), tuple(residuals)


@pytest.fixture
def rng():
    return random.Random(987123)


def tnorm_laws_by_calls(t, grid_resolution: int = 11):
    """check_tnorm_laws with every associativity term a fresh call of the op.

    The library reads on-grid terms from its table instead; this sweep is
    the direct form it must agree with field for field.
    """
    d = grid_resolution - 1
    grid = [Fraction(i, d) for i in range(grid_resolution)]
    fn = t._fn
    n = len(grid)
    one, zero = grid[-1], grid[0]
    identity = max(abs(fn(a, one) - a) for a in grid)
    boundary = max(abs(fn(a, zero)) for a in grid)
    table = [[fn(a, b) for b in grid] for a in grid]
    comm = zero
    for i in range(n):
        for j in range(i + 1, n):
            comm = max(comm, abs(table[i][j] - table[j][i]))
    mono = zero
    for i in range(n - 1):
        for j in range(n):
            mono = max(
                mono,
                table[i][j] - table[i + 1][j],
                table[j][i] - table[j][i + 1],
            )
    assoc = zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = abs(fn(table[i][j], grid[k]) - fn(grid[i], table[j][k]))
                if d > assoc:
                    assoc = d
    return LawReport(
        grid_resolution=grid_resolution,
        commutativity=comm,
        associativity=assoc,
        monotonicity=mono,
        identity=identity,
        boundary=boundary,
    )


class _ValueScan:
    """A capacity seen through its space and value() alone.

    tnormed_integral reads it with a value() scan per level, as it reads any
    capacity that is not a PossibilityCapacity.
    """

    def __init__(self, mu):
        self.space = mu.space
        self.value = mu.value


def per_candidate_search(game: Game, star, ast, mode="indicator", tol=0):
    """Search by checking every candidate profile from scratch.

    Each candidate gets its own induced beliefs and a full verify_equilibrium
    call; the library's search shares that work across candidates with the
    same opponents and must return the same profiles and certificates in the
    same order.  Each belief is wrapped in a _ValueScan, so every integral is
    a value() scan per level, not the library's density sweep.
    """
    if mode.startswith("grid:"):
        steps = int(mode.split(":", 1)[1])
        per_player = [
            [
                tuple(Fraction(k, steps) for k in combo)
                for combo in iterproduct(range(steps + 1), repeat=s.size)
                if max(combo) == steps
            ]
            for s in game.spaces
        ]
    else:
        per_player = [
            sorted(
                tuple((mask >> k) & 1 for k in range(s.size))
                for mask in range(1, 1 << s.size)
            )
            for s in game.spaces
        ]
    results = []
    for combo in iterproduct(*per_player):
        caps = [
            PossibilityCapacity(space, density)
            for space, density in zip(game.spaces, combo)
        ]
        if mode == "necessity":
            caps = [c.dual() for c in caps]
        profile = StrategyProfile(game, caps)
        beliefs = [_ValueScan(b) for b in induced_beliefs(profile, ast, tol=tol)]
        cert = verify_equilibrium(game, beliefs, star, tol=tol, tensor_tnorm=ast.name)
        if cert.verdict:
            results.append((profile, cert))
    return results


def slice_tensor_by_calls(mu1, mu2, ast, tol=0) -> Capacity:
    """tensor_general with every slice value and measure a fresh value call.

    One level maximum per subset of the product, reading mu2 once per point
    of mu1's space and mu1 once per level; the library reads each table once
    and shares the level maximum between subsets with equal slice values.
    """
    n1 = mu1.space.size
    n2 = mu2.space.size
    full2 = mu2.space.full_mask
    values = []
    for b in range(1 << (n1 * n2)):
        slices = [mu2.value((b >> (x * n2)) & full2) for x in range(n1)]
        values.append(_level_maximum(slices, mu1.value, ast))
    prod = ProductSpace([mu1.space, mu2.space])
    return Capacity(prod.space, values, tol=tol)


def first_monotonicity_failure(space, values, tol=0):
    """The covering-pair sweep in mask order, as Capacity once ran it.

    Returns None when every covering pair holds within tol, else the
    (message, witness) of the first failing pair, as CapacityError gives it.
    """
    for mask in range(len(values)):
        vm = values[mask]
        free = space.full_mask & ~mask
        while free:
            bit = free & -free
            free ^= bit
            if vm - values[mask | bit] > tol:
                small = space.members(mask)
                large = space.members(mask | bit)
                return (
                    f"monotonicity fails: value{small!r} = {vm!r} "
                    f"exceeds value{large!r} = {values[mask | bit]!r}",
                    (small, large),
                )
    return None


def slices_by_coords(game: Game, i: int):
    """Player i's payoff slices, one value tuple per strategy, cell by cell.

    Each opponent point is turned into coordinates, player i's strategy is
    inserted, and the full table is read at that flat index; the library
    cuts the row-major table into blocks instead.
    """
    opp = game.opponent_space(i)
    out = []
    for xi in range(game.spaces[i].size):
        row = []
        for o in range(opp.size):
            coords = list(opp.coords_of(o))
            coords.insert(i, xi)
            row.append(game.payoffs[i][game.product.index_of(coords)])
        out.append(tuple(row))
    return tuple(out)


def mixed_payoff_by_points(game: Game, i, caps, star, ast, tol=0):
    """mixed_expected_payoff with the joint density folded point by point.

    Each point's density is folded on its own through the public t-norm
    call, the tensor is a checked PossibilityCapacity, and the integral is
    a value() scan per level: no prefix is shared, no level group is kept
    and no density sweep is run.
    """
    prod = ProductSpace([c.space for c in caps])
    joint = PossibilityCapacity(
        prod.space,
        [fold_density(list(point), ast) for point in iterproduct(*(c.density for c in caps))],
        tol=tol,
    )
    return _level_maximum(game.payoffs[i], joint.value, star)


def capacity_nash_by_swaps(game: Game, profile, star, ast, tol=0) -> NashReport:
    """verify_capacity_nash with two point-by-point mixed payoffs per player.

    Each bound folds the swapped capacities' joint tensor from scratch, so
    2n tensors are built; the library folds the profile's joint once and
    shares its prefixes with every swapped one.
    """
    payoffs, bounds, gaps = [], [], []
    for i in range(game.players):
        own = mixed_payoff_by_points(game, i, list(profile), star, ast, tol=tol)
        swapped = list(profile)
        swapped[i] = greatest_capacity(game.spaces[i])
        bound = mixed_payoff_by_points(game, i, swapped, star, ast, tol=tol)
        payoffs.append(own)
        bounds.append(bound)
        gaps.append(bound - own)
    return NashReport(
        payoffs=tuple(payoffs),
        deviation_bounds=tuple(bounds),
        gaps=tuple(gaps),
        verdict=all(g <= tol for g in gaps),
        payoff_tnorm=star.name,
        tensor_tnorm=ast.name,
    )
