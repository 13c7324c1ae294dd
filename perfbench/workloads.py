"""The benchmark's workloads: seeded inputs, the timed call, and its check.

An op is one public call that returns a verdict.  Each workload builds a
pool of rounds from the seed; a round is a fixed list of ops.  `call` is the only part that is timed; `expect` runs the
independent oracle and `check` compares an answer with it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import oracles

TNORM_NAMES = ("min", "prod", "luk")
DENOM = 4  # payoffs and densities live on the quarter grid
LEVELS = tuple(Fraction(k, DENOM) for k in range(DENOM + 1))


@dataclass(frozen=True)
class Op:
    kind: str  # the op's class, as reports group it
    key: tuple  # what the oracle answer depends on
    argv: tuple = ()  # CLI arguments, for the CLI workloads
    data: object = field(default=None, compare=False)


def _labels(size):
    return tuple("abcd"[:size])


def _random_game(rng, sizes):
    labels = [_labels(n) for n in sizes]
    payoffs = [
        {c: Fraction(rng.randint(0, DENOM), DENOM) for c in product(*labels)}
        for _ in sizes
    ]
    return labels, payoffs


def _game_doc(labels, payoffs):
    return {
        "players": len(labels),
        "strategies": [list(ls) for ls in labels],
        "payoffs": [
            {",".join(c): str(v) for c, v in table.items()} for table in payoffs
        ],
    }


def _write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


def _run_cli(mods, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(list(argv))
    return code, out.getvalue()


class SearchWorkload:
    """`fuzzygames search` in process on seeded 3-player games.

    variants: (strategy counts, mode) pairs; every round holds one fresh game
    per distinct shape and runs each variant under all nine (payoff, tensor)
    t-norm pairs.
    """

    def __init__(self, name, variants, rounds):
        self.name = name
        self.variants = variants
        self.rounds = rounds

    def setup(self, fg, rng, workdir):
        pool = []
        for r in range(self.rounds):
            games = {}
            for sizes, _ in self.variants:
                if sizes not in games:
                    labels, payoffs = _random_game(rng, sizes)
                    shape = "x".join(map(str, sizes))
                    path = _write(workdir / f"r{r}-{shape}.json", _game_doc(labels, payoffs))
                    games[sizes] = (path, oracles.SearchGame(labels, payoffs, LEVELS))
            ops = []
            for sizes, mode in self.variants:
                path, game = games[sizes]
                shape = "x".join(map(str, sizes))
                for payoff, tensor in product(TNORM_NAMES, TNORM_NAMES):
                    argv = (
                        "search", "--game", path, "--payoff-tnorm", payoff,
                        "--tensor-tnorm", tensor, "--mode", mode, "--format", "json",
                    )
                    ops.append(
                        Op(f"{mode} {shape}", (path, mode, payoff, tensor), argv, game)
                    )
            pool.append(ops)
        return pool

    def call(self, op, mods):
        return _run_cli(mods, op.argv)

    def expect(self, op):
        _, mode, payoff, tensor = op.key
        return oracles.search_answer(op.data, mode, payoff, tensor)

    def check(self, op, answer, expected):
        code, out = answer
        _, mode, payoff, tensor = op.key
        want_code = 0 if expected else 1
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        doc = json.loads(out)
        labels = op.data.labels
        kind = "necessity" if mode == "necessity" else "possibility"
        if doc["mode"] != mode or doc["found"] != len(expected):
            return f"found {doc['found']} equilibria, expected {len(expected)}"
        for k, (entry, (combo, responses, residuals)) in enumerate(
            zip(doc["equilibria"], expected)
        ):
            profile, cert = entry["profile"], entry["certificate"]
            got = (
                [p["kind"] for p in profile],
                [[Fraction(p["density"][x]) for x in ls] for p, ls in zip(profile, labels)],
                [tuple(r) for r in cert["best_responses"]],
                [Fraction(r) for r in cert["residuals"]],
                (cert["verdict"], cert["payoff_tnorm"], cert["tensor_tnorm"]),
            )
            want = (
                [kind] * len(labels),
                [[Fraction(v) for v in d] for d in combo],
                list(responses),
                list(residuals),
                (True, payoff, tensor),
            )
            if got != want:
                return f"equilibrium {k}: got {got}, expected {want}"
        return None


class NashWorkload:
    """`fuzzygames nash-verify` in process on one seeded 4-player 4^4 game.

    Every fourth profile is the indicator of a planted pure equilibrium, so
    both verdicts occur.  Each profile runs under one tensor t-norm with all
    three payoff t-norms in rational mode, and once more in float mode.
    """

    def __init__(self, name, profiles_per_round, rounds, players=4, strategies=4):
        self.name = name
        self.profiles_per_round = profiles_per_round
        self.rounds = rounds
        self.players = players
        self.strategies = strategies

    def setup(self, fg, rng, workdir):
        sizes = (self.strategies,) * self.players
        labels, payoffs = _random_game(rng, sizes)
        planted = tuple(rng.choice(ls) for ls in labels)
        for table in payoffs:
            table[planted] = Fraction(1)
        game_path = _write(workdir / "game.json", _game_doc(labels, payoffs))
        pool = []
        for r in range(self.rounds):
            ops = []
            for p in range(self.profiles_per_round):
                k = r * self.profiles_per_round + p
                densities = []
                paths = []
                for i, ls in enumerate(labels):
                    if k % 4 == 0:
                        d = tuple(Fraction(int(x == planted[i])) for x in ls)
                    else:
                        d = [Fraction(rng.randint(0, DENOM), DENOM) for _ in ls]
                        d[rng.randrange(len(ls))] = Fraction(1)
                        d = tuple(d)
                    densities.append(d)
                    doc = {
                        "space": list(ls),
                        "kind": "possibility",
                        "density": {x: str(v) for x, v in zip(ls, d)},
                    }
                    paths.append(_write(workdir / f"p{k}-{i}.json", doc))
                data = (labels, payoffs, tuple(densities))
                tensor = TNORM_NAMES[k % 3]
                runs = [(payoff, "rational") for payoff in TNORM_NAMES]
                runs.append((TNORM_NAMES[(k + 1) % 3], "float"))
                for payoff, numeric in runs:
                    argv = (
                        "nash-verify", "--game", game_path, "--profile", *paths,
                        "--payoff-tnorm", payoff, "--tensor-tnorm", tensor,
                        "--numeric", numeric, "--format", "json",
                    )
                    ops.append(Op(f"{numeric} {payoff}/{tensor}", (k, payoff, tensor), argv, data))
            pool.append(ops)
        return pool

    def call(self, op, mods):
        return _run_cli(mods, op.argv)

    def expect(self, op):
        labels, payoffs, densities = op.data
        _, payoff, tensor = op.key
        return oracles.nash_answer(labels, payoffs, densities, payoff, tensor)

    def check(self, op, answer, expected):
        code, out = answer
        verdict, payoffs, bounds, gaps = expected
        want_code = 0 if verdict else 1
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        doc = json.loads(out)
        _, payoff, tensor = op.key
        # float answers on the quarter grid are dyadic, so they convert exactly
        got = (
            doc["verdict"],
            [Fraction(v) for v in doc["payoffs"]],
            [Fraction(v) for v in doc["deviation_bounds"]],
            [Fraction(v) for v in doc["gaps"]],
            doc["payoff_tnorm"],
            doc["tensor_tnorm"],
        )
        want = (verdict, payoffs, bounds, gaps, payoff, tensor)
        if got != want:
            return f"got {got}, expected {want}"
        return None


def hamacher_product(a, b):
    """The Hamacher product ab / (a + b - ab), with 0 at (0, 0)."""
    if a == 0 and b == 0:
        return Fraction(0)
    return a * b / (a + b - a * b)


def possibility_table(density):
    n = len(density)
    return [
        max((density[k] for k in range(n) if m >> k & 1), default=Fraction(0))
        for m in range(1 << n)
    ]


def necessity_table(density):
    """N(A) = 1 - possibility of the complement; reversing the table complements."""
    return [1 - v for v in reversed(possibility_table(density))]


def monotone_table(rng, n, fixed):
    """Random monotone table; `fixed` pins some singleton values.

    Each value is drawn between the largest of its lower covers and 1.
    """
    values = [Fraction(0)] * (1 << n)
    for mask in sorted(range(1, 1 << n), key=int.bit_count):
        if mask in fixed:
            values[mask] = fixed[mask]
            continue
        floor = max(values[mask & ~(1 << k)] for k in range(n) if mask >> k & 1)
        values[mask] = floor + Fraction(rng.randint(0, DENOM), DENOM) * (1 - floor)
    values[-1] = Fraction(1)
    return values


def class_tables(rng, n):
    """(test, table, in class) for both class tests, in and out of class.

    Out-of-class tables are built to break the law on the first pair of
    singletons the sweep visits: no possibility capacity is 0 on {x0} and
    {x1} but positive on {x0, x1}, and no necessity capacity is positive on
    two disjoint sets.
    """
    density = [Fraction(rng.randint(0, DENOM), DENOM) for _ in range(n)]
    density[rng.randrange(n)] = Fraction(1)
    pair = {1: Fraction(0), 2: Fraction(0), 3: Fraction(1, 2)}
    disjoint = {1: Fraction(1, 4), 2: Fraction(1, 4)}
    return [
        ("is_possibility", possibility_table(density), True),
        ("is_possibility", monotone_table(rng, n, pair), False),
        ("is_necessity", necessity_table(density), True),
        ("is_necessity", monotone_table(rng, n, disjoint), False),
    ]


class AlgebraWorkload:
    """Law sweeps and exhaustive class tests, called directly.

    A round sweeps the four t-norm laws for min, prod, luk and the Hamacher
    product at one grid resolution, and runs is_possibility and is_necessity
    on general tables of each size, half in class and half out.
    """

    def __init__(self, name, resolution, sizes, tables_per_size, rounds):
        self.name = name
        self.resolution = resolution
        self.sizes = sizes
        self.tables_per_size = tables_per_size
        self.rounds = rounds

    def setup(self, fg, rng, workdir):
        user = fg.TNorm.from_function("hamacher", hamacher_product, grid_resolution=9)
        tnorms = (fg.MINIMUM, fg.PRODUCT, fg.LUKASIEWICZ, user)
        pool = []
        for r in range(self.rounds):
            ops = [Op(f"laws {t.name}", ("laws", t.name), (), t) for t in tnorms]
            for n in self.sizes:
                space = fg.FiniteSpace([f"x{k}" for k in range(n)])
                for t in range(self.tables_per_size):
                    for test, values, in_class in class_tables(rng, n):
                        cap = fg.Capacity(space, values)
                        kind = f"{test} n={n} {'in' if in_class else 'out'}"
                        ops.append(Op(kind, (r, n, t, test, in_class), (), cap))
            pool.append(ops)
        return pool

    def call(self, op, mods):
        if op.key[0] == "laws":
            return mods.fg.check_tnorm_laws(op.data, self.resolution)
        return getattr(mods.fg, op.key[3])(op.data)

    def expect(self, op):
        if op.key[0] == "laws":
            return (self.resolution, 0, 0, 0, 0, 0)  # a valid t-norm violates no law
        return op.key[4]

    def check(self, op, answer, expected):
        if op.key[0] == "laws":
            got = (
                answer.grid_resolution,
                answer.commutativity,
                answer.associativity,
                answer.monotonicity,
                answer.identity,
                answer.boundary,
            )
            if got != expected:
                return f"law report {got}, expected {expected}"
            return None
        if answer is not expected:
            return f"returned {answer!r}, expected {expected!r}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            "search-possibility",
            [
                ((2, 2, 2), "indicator"),
                ((2, 2, 3), "indicator"),
                ((2, 3, 3), "indicator"),
                ((2, 2, 2), "grid:2"),
                ((2, 2, 3), "grid:2"),
            ],
            rounds=4,
        ),
        SearchWorkload(
            "search-necessity",
            [
                ((2, 2, 2), "necessity"),
                ((2, 2, 3), "necessity"),
                ((2, 3, 2), "necessity"),
                ((3, 2, 2), "necessity"),
                ((2, 3, 3), "necessity"),
            ],
            rounds=4,
        ),
        NashWorkload("nash-verify", profiles_per_round=6, rounds=3),
        AlgebraWorkload(
            "algebra-laws", resolution=21, sizes=(7, 8, 9), tables_per_size=2, rounds=3
        ),
    )
}
