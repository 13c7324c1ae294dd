"""Finite games with capacity beliefs.

Players are indexed from 0.  Payoffs live in [0,1] and are stored as full
tables over the strategy product, row-major with the last player varying
fastest.  Everything opponent-shaped (belief spaces, payoff slices, induced
beliefs) lists the opponents in ascending player order with the player
removed.

A belief profile assigns each player a capacity on the opponents' product
space.  The player's expected payoff for a strategy is the t-normed integral
of the payoff slice against that belief.  A belief profile is an equilibrium
when, for every player, the belief puts mass 0 outside the product of all
opponents' best-response sets.

A strategy profile assigns each player a capacity on that player's own
strategy space.  Possibility profiles support the mixed layer: the joint
belief is the n-fold density tensor, expected payoffs integrate the full
payoff table against it, and the capacity equilibrium check compares each
player's payoff with the bound from replacing that player's capacity by the
greatest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iterproduct
from operator import getitem, mul

from ._frozen import Frozen, _restore
from .spaces import FiniteSpace, ProductSpace, _product_space
from .tnorms import TNorm
from .capacities import PossibilityCapacity, _check_density
from .integrals import (
    FuzzyFunction,
    _density_level_maximum,
    _level_groups,
    tnormed_integral,
)
from .tensors import _fold, tensor_n

DEFAULT_SEARCH_BUDGET = 10_000_000
DEFAULT_GRID_STEPS = 4


class SearchBudgetExceeded(RuntimeError):
    """The candidate profile count of a search exceeds the budget."""

    def __init__(self, candidates, budget):
        super().__init__(
            f"search would enumerate {candidates} candidate profiles, "
            f"over the budget of {budget}; raise the budget or coarsen the mode"
        )
        self.candidates = candidates
        self.budget = budget


class Game(Frozen):
    """An n-player game with [0,1] payoffs, n >= 2.

    strategy_spaces: one FiniteSpace per player.
    payoffs: per player, either a mapping from label tuples to values or a
    flat sequence over the strategy product in row-major order.  Every payoff
    must lie in [0,1] in both numeric modes.  tol is ignored and kept for
    compatibility.  Every payoff table and slice is built here, once.
    """

    __slots__ = ("spaces", "payoffs", "product", "_opponents", "_functions", "_slices")
    _fields = ("spaces", "payoffs")

    def __init__(self, strategy_spaces, payoffs, tol=0):
        spaces = tuple(strategy_spaces)
        if len(spaces) < 2:
            raise ValueError("a game needs at least two players")
        for s in spaces:
            if not isinstance(s, FiniteSpace):
                raise ValueError("strategy spaces must be FiniteSpace instances")
        prod = _product_space(spaces)
        payoffs = list(payoffs)
        if len(payoffs) != len(spaces):
            raise ValueError(
                f"need one payoff table per player, got {len(payoffs)}"
            )
        functions = []
        lookups = [s._index for s in spaces]
        strides = prod._strides
        for i, table in enumerate(payoffs):
            if hasattr(table, "keys"):
                flat = [None] * prod.size
                for key, v in table.items():
                    if isinstance(key, str) or len(key) != len(spaces):
                        raise ValueError(
                            f"payoff key {key!r} of player {i} must be a tuple "
                            f"of {len(spaces)} labels"
                        )
                    try:
                        idx = sum(map(mul, map(getitem, lookups, key), strides))
                    except KeyError:
                        for s, label in zip(spaces, key):
                            s.index(label)  # raises, naming the label and space
                    if flat[idx] is not None:
                        raise ValueError(
                            f"payoff of player {i} at {key!r} given twice"
                        )
                    flat[idx] = v
                missing = [k for k, v in enumerate(flat) if v is None]
                if missing:
                    raise ValueError(
                        f"payoff table of player {i} misses "
                        f"{prod.space.labels[missing[0]]!r}"
                    )
                table = flat
            else:
                table = list(table)
                if len(table) != prod.size:
                    raise ValueError(
                        f"payoff table of player {i} needs {prod.size} entries, "
                        f"got {len(table)}"
                    )
            try:
                functions.append(FuzzyFunction(prod.space, table))
            except ValueError as e:
                raise ValueError(f"payoff of player {i}: {e}") from None
        opponents = tuple(
            _product_space(spaces[:i] + spaces[i + 1:])
            for i in range(len(spaces))
        )
        slices = []
        for i, f in enumerate(functions):
            # strategy x of player i owns one run of `inner` points in every
            # block of the row-major table; dropping coordinate i keeps the
            # order.  The values were checked when f was built, so the slices
            # are restored from their slots instead of checked again.
            values = f.values
            inner = strides[i]
            block = inner * spaces[i].size
            slices.append(tuple(
                _restore(FuzzyFunction, (opponents[i].space, tuple(
                    v
                    for start in range(x * inner, len(values), block)
                    for v in values[start:start + inner]
                )))
                for x in range(spaces[i].size)
            ))
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "payoffs", tuple(f.values for f in functions))
        object.__setattr__(self, "product", prod)
        object.__setattr__(self, "_opponents", opponents)
        object.__setattr__(self, "_functions", tuple(functions))
        object.__setattr__(self, "_slices", tuple(slices))

    @property
    def players(self) -> int:
        return len(self.spaces)

    def check_player(self, i: int) -> int:
        if not 0 <= i < len(self.spaces):
            raise ValueError(
                f"player index {i} out of range for a {len(self.spaces)}-player game"
            )
        return i

    def opponent_space(self, i: int) -> ProductSpace:
        """Product of the other players' spaces, ascending with i removed."""
        return self._opponents[self.check_player(i)]

    def payoff_at(self, i: int, coords):
        """Payoff of player i at a full strategy tuple of labels or indices."""
        self.check_player(i)
        coords = tuple(
            c if isinstance(c, int) else s.index(c)
            for s, c in zip(self.spaces, coords)
        )
        return self.payoffs[i][self.product.index_of(coords)]


def _strategy_index(game: Game, i: int, strategy) -> int:
    if isinstance(strategy, int):
        if not 0 <= strategy < game.spaces[i].size:
            raise ValueError(f"strategy index {strategy} out of range for player {i}")
        return strategy
    return game.spaces[i].index(strategy)


def restricted_payoff(game: Game, i: int, strategy) -> FuzzyFunction:
    """Player i's payoff as a function on the opponents' product space."""
    game.check_player(i)
    return game._slices[i][_strategy_index(game, i, strategy)]


def _check_belief(game: Game, i: int, belief) -> None:
    expected = game.opponent_space(i).space
    if belief.space != expected:
        raise ValueError(
            f"belief of player {i} lives on {belief.space}, expected the "
            f"opponent space {expected}"
        )


def expected_payoff(game: Game, i: int, strategy, belief, star: TNorm):
    """t-normed integral of the payoff slice against the player's belief."""
    _check_belief(game, i, belief)
    return tnormed_integral(restricted_payoff(game, i, strategy), belief, star)


def best_response(game: Game, i: int, belief, star: TNorm, tol=0) -> tuple[str, ...]:
    """All strategies of player i whose expected payoff attains the maximum."""
    _check_belief(game, i, belief)
    space = game.spaces[i]
    scores = [tnormed_integral(f, belief, star) for f in game._slices[i]]
    top = max(scores)
    return tuple(
        label
        for label, sc in zip(space.labels, scores)
        if sc >= top - tol
    )


class BeliefProfile(Frozen):
    """One capacity per player on that player's opponent product space."""

    __slots__ = ("game", "beliefs")
    _fields = ("game", "beliefs")

    def __init__(self, game: Game, beliefs):
        beliefs = tuple(beliefs)
        if len(beliefs) != game.players:
            raise ValueError(f"need {game.players} beliefs, got {len(beliefs)}")
        for i, b in enumerate(beliefs):
            _check_belief(game, i, b)
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "beliefs", beliefs)

    def __iter__(self):
        return iter(self.beliefs)

    def __getitem__(self, i):
        return self.beliefs[i]


class StrategyProfile(Frozen):
    """One capacity per player on that player's own strategy space."""

    __slots__ = ("game", "capacities")
    _fields = ("game", "capacities")

    def __init__(self, game: Game, capacities):
        capacities = tuple(capacities)
        if len(capacities) != game.players:
            raise ValueError(
                f"need {game.players} capacities, got {len(capacities)}"
            )
        for i, c in enumerate(capacities):
            if c.space != game.spaces[i]:
                raise ValueError(
                    f"capacity of player {i} lives on {c.space}, expected "
                    f"{game.spaces[i]}"
                )
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "capacities", capacities)

    def __iter__(self):
        return iter(self.capacities)

    def __getitem__(self, i):
        return self.capacities[i]

    def all_possibility(self) -> bool:
        return all(isinstance(c, PossibilityCapacity) for c in self.capacities)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Outcome of an equilibrium check.

    best_responses: per player, the full set of maximizing strategies.
    residuals: per player, the belief mass outside the product of the
    opponents' best-response sets.  verdict is True exactly when every
    residual vanishes (within the tolerance used by the check).
    """

    best_responses: tuple
    residuals: tuple
    verdict: bool
    payoff_tnorm: str
    tensor_tnorm: str | None = None


def _outside_mask(game: Game, i: int, opponent_masks) -> int:
    """Opponent points outside the product of the opponents' response sets.

    opponent_masks holds one best-response mask per opponent of player i,
    ascending with i removed.  Player i's residual is the belief mass of
    this set.
    """
    opp = game.opponent_space(i)
    return opp.space.full_mask & ~opp.product_mask(opponent_masks)


def verify_equilibrium(
    game: Game, beliefs, star: TNorm, tol=0, tensor_tnorm: str | None = None
) -> EquilibriumCertificate:
    """Check the equilibrium condition for a belief profile.

    For each player, the residual is the belief mass of the complement of the
    product of all opponents' best-response sets; the profile passes when all
    residuals are 0 (or within tol in float mode).
    """
    if not isinstance(beliefs, BeliefProfile):
        beliefs = BeliefProfile(game, beliefs)
    n = game.players
    responses = [
        best_response(game, j, beliefs[j], star, tol=tol) for j in range(n)
    ]
    response_masks = [
        game.spaces[j].mask_of(responses[j]) for j in range(n)
    ]
    residuals = [
        beliefs[i].value(
            _outside_mask(game, i, response_masks[:i] + response_masks[i + 1:])
        )
        for i in range(n)
    ]
    verdict = all(r <= tol for r in residuals)
    return EquilibriumCertificate(
        best_responses=tuple(responses),
        residuals=tuple(residuals),
        verdict=verdict,
        payoff_tnorm=star.name,
        tensor_tnorm=tensor_tnorm,
    )


def induced_beliefs(profile: StrategyProfile, ast: TNorm, tol=0) -> BeliefProfile:
    """Beliefs induced by a strategy profile through the tensor product.

    Player i's belief is the tensor of the other players' capacities in
    ascending player order.  In a two-player game this is just the other
    player's capacity.
    """
    game = profile.game
    beliefs = [
        tensor_n(
            [profile[j] for j in range(game.players) if j != i], ast, tol=tol
        )
        for i in range(game.players)
    ]
    return BeliefProfile(game, beliefs)


def search_equilibria(
    game: Game,
    star: TNorm,
    ast: TNorm,
    mode: str = "indicator",
    budget: int = DEFAULT_SEARCH_BUDGET,
    tol=0,
):
    """Enumerate candidate strategy profiles and keep the equilibria.

    Modes:
      "indicator"            possibility capacities that are 1 on a nonempty
                             support and 0 elsewhere
      "grid" or "grid:<g>"   possibility densities with entries k/g and
                             maximum 1 (default g = 4; g in ASCII digits)
      "necessity-indicator"  duals of the indicator possibilities
                             (alias "necessity")

    Candidates are enumerated in lexicographic order of the per-player
    density encodings, players ascending, so output order is deterministic.
    An empty result means no equilibrium exists at this resolution; finer
    grids or the continuum are not ruled out.  budget must be a positive
    int; if the total candidate count exceeds it the search refuses to
    start.  The count is computed in closed form, before any candidate is
    listed.  The results and certificates are the ones verify_equilibrium
    gives on the induced beliefs.

    Every mode runs one loop.  Let S_j be the points where player j's
    density exceeds tol (possibility; the support while tol < 1/g) or 0
    (necessity), and BR_j the best responses of j to the others'
    candidates.  A candidate is an equilibrium exactly when for every j
      possibility (indicator, grid:g):  S_j is a subset of BR_j,
      necessity:                        S_j meets BR_j.
    Player i's residual is the mass of the points outside the product of
    the opponents' BR_j.  Possibility, sufficient: each such point has a
    coordinate of density d <= tol, and ast(a, d) <= ast(1, d) = d.
    Necessary: for x in S_j outside BR_j and any other player i, put i's
    other opponents on points of density 1; by ast(1, d) = ast(d, 1) = d the
    belief there is d_j(x) > tol.  Necessity: on 0/1 densities the residual
    is 1 when some opponent's S_j misses BR_j, else 0.  Only the
    identity law and monotonicity of ast are used, at the values met: exact
    for min, prod and luk, and assumed for TNorm.from_function, whose laws
    are checked on a grid.

    Only the scoring differs, chosen once per search.  On 0/1 densities
    every t-norm drops out: player i's belief is the possibility or
    necessity indicator of the product P of the opponents' supports, and a
    strategy scores the max (possibility) or min (necessity) of its payoff
    slice over P, the optimistic and pessimistic qualitative utilities; no
    t-norm is called.  (In float mode the tensor route's Lukasiewicz
    star(1, t) = 1 + t - 1 can differ from t by one ULP; verdicts agree.)
    grid:g folds and checks the opponents' densities as tensor_n does, and
    scores each strategy with tnormed_integral's density sweep on its
    slice's level groups, built once per search.

    Each player has one memo, keyed by the opponents' candidate indices:
    the belief (grid:g only), the best responses and their mask.  With C_j
    player j's candidate list it holds at most prod_{j != i} |C_j| entries,
    at most budget / |C_i|.  A candidate stops at the first player who
    fails the rule, and only returned profiles get capacities and
    certificates.  Indicator and necessity residuals are int 0; a grid:g
    residual is PossibilityCapacity.value of the belief outside the
    product: the first largest density there, or int 0 if it is empty.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError(f"search budget must be a positive integer, got {budget!r}")
    mode = str(mode).strip().lower()
    necessity = mode in ("necessity-indicator", "necessity")
    steps = None
    if mode == "grid" or mode.startswith("grid:"):
        if mode == "grid":
            steps = DEFAULT_GRID_STEPS
        else:
            digits = mode[len("grid:"):]
            # int() would also take "1_0", "+2", " 2" and non-ASCII digits
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"bad grid mode {mode!r}; use grid:<steps>")
            steps = int(digits)
        if steps < 1:
            raise ValueError("grid mode needs at least one step")
    elif mode != "indicator" and not necessity:
        raise ValueError(
            f"unknown search mode {mode!r}; use indicator, grid:<g>, "
            "or necessity-indicator"
        )

    # count in closed form, so an oversized mode is refused before any
    # candidate list is built
    total = 1
    for s in game.spaces:
        if steps is None:
            total *= (1 << s.size) - 1
        else:
            total *= (steps + 1) ** s.size - steps ** s.size
    if total > budget:
        raise SearchBudgetExceeded(total, budget)

    players = range(game.players)
    if steps is None:
        densities = [_indicator_densities(s.size) for s in game.spaces]
        # per player, per opponent (ascending) and candidate: the support's
        # points as flat offsets into that player's opponent space
        offsets = [
            [
                [[x * stride for x in range(f.size) if d[x]] for d in densities[j]]
                for j, f, stride in zip(
                    (j for j in players if j != i), opp.factors, opp._strides
                )
            ]
            for i, opp in enumerate(game._opponents)
        ]
        extreme = min if necessity else max

        def score(i, key):
            points = [
                sum(p)
                for p in _iterproduct(*(offs[k] for offs, k in zip(offsets[i], key)))
            ]
            return None, [
                extreme(map(f.values.__getitem__, points)) for f in game._slices[i]
            ]
    else:
        densities = [_grid_densities(s.size, steps) for s in game.spaces]
        groups = [[_level_groups(f.values) for f in row] for row in game._slices]

        def score(i, key):
            rows = densities[:i] + densities[i + 1:]
            belief = _fold([row[k] for row, k in zip(rows, key)], ast._fn)[-1]
            _check_density(game._opponents[i].space, belief, tol)
            return belief, [
                _density_level_maximum(g, belief, star._fn) for g in groups[i]
            ]

    floor = 0 if necessity else tol
    supports = [
        [sum(1 << k for k, v in enumerate(d) if v > floor) for d in row]
        for row in densities
    ]
    # per player: opponents' candidate indices -> (belief, best responses,
    # response mask)
    memos = [{} for _ in players]
    caps = {}
    zeros = (0,) * game.players
    results = []
    for idx in _iterproduct(*(range(len(row)) for row in densities)):
        entries = []
        for j in players:
            key = idx[:j] + idx[j + 1:]
            entry = memos[j].get(key)
            if entry is None:
                belief, scores = score(j, key)
                bar = max(scores) - tol
                best = [k for k, sc in enumerate(scores) if sc >= bar]
                labels = game.spaces[j].labels
                entry = memos[j][key] = (
                    belief,
                    tuple(labels[k] for k in best),
                    sum(1 << k for k in best),
                )
            own = supports[j][idx[j]]
            held = own & entry[2]
            if not (held if necessity else held == own):
                break
            entries.append(entry)
        else:
            profile = []
            for j, k in enumerate(idx):
                cap = caps.get((j, k))
                if cap is None:
                    cap = PossibilityCapacity(game.spaces[j], densities[j][k])
                    if necessity:
                        cap = cap.dual()
                    caps[j, k] = cap
                profile.append(cap)
            residuals = zeros
            if steps is not None:
                masks = [entry[2] for entry in entries]
                residuals = tuple([
                    _largest_density(
                        entry[0], _outside_mask(game, i, masks[:i] + masks[i + 1:])
                    )
                    for i, entry in enumerate(entries)
                ])
            cert = EquilibriumCertificate(
                best_responses=tuple([entry[1] for entry in entries]),
                residuals=residuals,
                verdict=True,
                payoff_tnorm=star.name,
                tensor_tnorm=ast.name,
            )
            results.append((StrategyProfile(game, profile), cert))
    return results


def _largest_density(density, mask):
    """PossibilityCapacity.value(mask) for this density, value and type."""
    return max((v for k, v in enumerate(density) if mask >> k & 1), default=0)


def _indicator_densities(size: int):
    """All 0/1 densities with at least one 1, in lexicographic order."""
    return sorted(
        tuple((mask >> k) & 1 for k in range(size))
        for mask in range(1, 1 << size)
    )


def _grid_densities(size: int, steps: int):
    """All densities with entries k/steps and maximum 1, lexicographic."""
    out = []
    for combo in _iterproduct(range(steps + 1), repeat=size):
        if max(combo) == steps:
            out.append(tuple(Fraction(k, steps) for k in combo))
    return out


def mixed_expected_payoff(
    game: Game, i: int, profile: StrategyProfile, star: TNorm, ast: TNorm, tol=0
):
    """Player i's payoff against the joint density tensor of a profile.

    The profile must consist of possibility capacities.  The value is the
    t-normed integral of the player's full payoff table against the n-fold
    tensor of all players' capacities.
    """
    game.check_player(i)
    if not profile.all_possibility():
        raise ValueError(
            "mixed expected payoff is defined for possibility profiles only"
        )
    joint = _joint_density(game, _fold([c.density for c in profile], ast._fn), tol)
    levels = _level_groups(game._functions[i].values)
    return _density_level_maximum(levels, joint, star._fn)


def _joint_density(game: Game, prefixes, tol):
    """The last list of a density fold, checked as tensor_n's result would be."""
    density = prefixes[-1]
    _check_density(game.product.space, density, tol)
    return density


@dataclass(frozen=True)
class NashReport:
    """Outcome of the capacity equilibrium check for a strategy profile.

    For each player: the profile payoff, the bound obtained by swapping that
    player's capacity for the greatest one, and their gap (bound minus
    payoff, always nonnegative).  verdict is True when every gap vanishes.
    """

    payoffs: tuple
    deviation_bounds: tuple
    gaps: tuple
    verdict: bool
    payoff_tnorm: str
    tensor_tnorm: str


def verify_capacity_nash(
    game: Game, profile: StrategyProfile, star: TNorm, ast: TNorm, tol=0
) -> NashReport:
    """Check whether no player gains by swapping in the greatest capacity.

    The greatest capacity dominates every capacity on the player's space, and
    payoffs are monotone in each profile slot, so the swap bounds every
    single-player deviation at once.

    Each payoff and bound is mixed_expected_payoff's: the t-normed integral
    of the player's payoff table against the density tensor of the profile,
    or of the profile with the player's capacity swapped for the greatest
    one, with the same values and types.  The tensors are folded one factor
    at a time, sharing prefixes: with P_k the fold of players 0..k-1, the
    profile's tensor is P_n, and player i's swapped tensor folds the greatest
    capacity's density (1, ..., 1) onto P_i and then players i+1..n-1.  The
    fold still calls ast(v, 1), since in floats Lukasiewicz's v + 1 - 1 need
    not be v.  With Q_k = |S_0| ... |S_(k-1)|, that is
    sum_(k=2..n) Q_k calls of ast for the profile and for players 0 and 1,
    and sum_(k=i+1..n) Q_k for each later player i: 1,584 for a 4x4x4x4
    game, against 3,840 for five n-fold tensors folded point by point.
    Every tensor is checked as a PossibilityCapacity would check it.

    Each integral sweeps the payoff's distinct values once, descending,
    grouped per player, keeping the largest density over the points swept
    so far.  Ties go to the lowest-index point, as PossibilityCapacity.value
    resolves them: the greatest capacity's int 1 can tie a Fraction(1) or a
    1.0, and the payoff then takes that value's type.
    """
    if not isinstance(profile, StrategyProfile):
        profile = StrategyProfile(game, profile)
    if not profile.all_possibility():
        raise ValueError(
            "the capacity equilibrium check supports possibility profiles only"
        )
    fn = ast._fn
    densities = [c.density for c in profile]
    prefixes = _fold(densities, fn)
    joint = _joint_density(game, prefixes, tol)
    payoffs = []
    bounds = []
    gaps = []
    for i, f in enumerate(game._functions):
        levels = _level_groups(f.values)
        own = _density_level_maximum(levels, joint, star._fn)
        swapped = _fold(
            [(1,) * game.spaces[i].size] + densities[i + 1:],
            fn,
            prefixes[i - 1] if i else None,
        )
        bound = _density_level_maximum(
            levels, _joint_density(game, swapped, tol), star._fn
        )
        payoffs.append(own)
        bounds.append(bound)
        gaps.append(bound - own)
    verdict = all(g <= tol for g in gaps)
    return NashReport(
        payoffs=tuple(payoffs),
        deviation_bounds=tuple(bounds),
        gaps=tuple(gaps),
        verdict=verdict,
        payoff_tnorm=star.name,
        tensor_tnorm=ast.name,
    )
