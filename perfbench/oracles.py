"""Independent answers for every benchmark op.

Nothing here imports fuzzygames.  Games arrive as plain data: one label list
per player and, per player, a dict from label tuples to Fractions.  The
routes are deliberately naive: loops over label tuples, the pointwise
closed form for possibility beliefs, a level sweep over the payoff grid for
the integral, and the slice formula evaluated on demand for necessity
tensors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def t_min(a, b):
    return min(a, b)


def t_prod(a, b):
    return a * b


def t_luk(a, b):
    return max(0, a + b - 1)


TNORMS = {"min": t_min, "prod": t_prod, "luk": t_luk}


def fold(ast, values):
    acc = values[0]
    for v in values[1:]:
        acc = ast(acc, v)
    return acc


def candidate_densities(size: int, mode: str):
    """The search's documented candidate family for one player, in order.

    indicator and necessity: every nonzero 0/1 vector, lexicographic.
    grid:g: every vector of k/g entries whose maximum is 1, lexicographic.
    """
    if mode in ("indicator", "necessity"):
        return sorted(
            tuple((mask >> k) & 1 for k in range(size)) for mask in range(1, 1 << size)
        )
    steps = int(mode.split(":", 1)[1])
    return [
        tuple(Fraction(k, steps) for k in combo)
        for combo in product(range(steps + 1), repeat=size)
        if max(combo) == steps
    ]


class _Necessity:
    """Value of a necessity capacity from the density of its conjugate."""

    def __init__(self, labels, density):
        self.labels = labels
        self.density = dict(zip(labels, density))

    def value(self, subset):
        outside = [self.density[x] for x in self.labels if x not in subset]
        return 1 - max(outside, default=0)


def _slice_tensor_value(factors, ast, subset):
    """Value of a set of label tuples under the left-folded slice tensor."""
    if len(factors) == 1:
        return factors[0].value({combo[0] for combo in subset})
    head, last = factors[:-1], factors[-1]
    slices = {}
    for rest in product(*(f.labels for f in head)):
        slices[rest] = last.value({combo[-1] for combo in subset if combo[:-1] == rest})
    best = 0
    for t in set(slices.values()):
        level = {rest for rest, v in slices.items() if v >= t}
        best = max(best, ast(_slice_tensor_value(head, ast, level), t))
    return best


class SearchGame:
    """A game as plain data plus the oracle's per-search memo."""

    def __init__(self, labels, payoffs, levels):
        self.labels = [tuple(ls) for ls in labels]
        self.payoffs = payoffs
        self.levels = levels  # every value a payoff can take, 0 included
        self.n = len(labels)

    def payoff(self, i, own, opp_combo):
        full = list(opp_combo)
        full.insert(i, own)
        return self.payoffs[i][tuple(full)]

    def opponents(self, i):
        return [j for j in range(self.n) if j != i]


def search_answer(game: SearchGame, mode: str, payoff: str, tensor: str):
    """Equilibria a search must report, in candidate order.

    Each entry is (densities, best_responses, residuals); the search's exit
    code is 0 when the list is nonempty and 1 otherwise.
    """
    star, ast = TNORMS[payoff], TNORMS[tensor]
    necessity = mode == "necessity"
    cands = [candidate_densities(len(ls), mode) for ls in game.labels]
    memo = {}
    found = []
    for combo in product(*cands):
        responses = []
        for i in range(game.n):
            key = (i, tuple(combo[j] for j in game.opponents(i)))
            if key not in memo:
                memo[key] = _best_responses(game, i, combo, star, ast, necessity)
            responses.append(memo[key])
        residuals = [
            _residual(game, i, combo, responses, ast, necessity) for i in range(game.n)
        ]
        if all(r == 0 for r in residuals):
            found.append((combo, tuple(responses), tuple(residuals)))
    return found


def _possibility_weights(game, i, combo, ast):
    opp = game.opponents(i)
    dens = [dict(zip(game.labels[j], combo[j])) for j in opp]
    return {
        c: fold(ast, [d[x] for d, x in zip(dens, c)])
        for c in product(*(game.labels[j] for j in opp))
    }


def _necessity_factors(game, i, combo):
    return [_Necessity(game.labels[j], combo[j]) for j in game.opponents(i)]


def _best_responses(game, i, combo, star, ast, necessity):
    opp_combos = list(product(*(game.labels[j] for j in game.opponents(i))))
    if necessity:
        factors = _necessity_factors(game, i, combo)
    else:
        weights = _possibility_weights(game, i, combo, ast)
    scores = {}
    for own in game.labels[i]:
        if necessity:
            best = 0
            for t in game.levels:
                level = {c for c in opp_combos if game.payoff(i, own, c) >= t}
                best = max(best, star(_slice_tensor_value(factors, ast, level), t))
        else:
            best = max(star(w, game.payoff(i, own, c)) for c, w in weights.items())
        scores[own] = best
    top = max(scores.values())
    return tuple(x for x in game.labels[i] if scores[x] == top)


def _residual(game, i, combo, responses, ast, necessity):
    opp = game.opponents(i)
    inside = set(product(*(responses[j] for j in opp)))
    outside = {c for c in product(*(game.labels[j] for j in opp)) if c not in inside}
    if necessity:
        return _slice_tensor_value(_necessity_factors(game, i, combo), ast, outside)
    weights = _possibility_weights(game, i, combo, ast)
    return max((weights[c] for c in outside), default=0)


def nash_answer(labels, payoffs, densities, payoff: str, tensor: str):
    """(verdict, payoffs, deviation_bounds, gaps) of a possibility profile.

    Player i's payoff is max over strategy tuples x of
    star(fold of d_j(x_j), u_i(x)); the bound replaces d_i by the constant 1.
    """
    star, ast = TNORMS[payoff], TNORMS[tensor]
    dens = [dict(zip(ls, d)) for ls, d in zip(labels, densities)]
    points = list(product(*labels))
    own, bounds = [], []
    for i in range(len(labels)):
        best = swapped = Fraction(0)
        for x in points:
            u = payoffs[i][x]
            ws = [dens[j][x[j]] for j in range(len(labels))]
            best = max(best, star(fold(ast, ws), u))
            ws[i] = 1
            swapped = max(swapped, star(fold(ast, ws), u))
        own.append(best)
        bounds.append(swapped)
    gaps = [b - p for b, p in zip(bounds, own)]
    return all(g == 0 for g in gaps), own, bounds, gaps
