"""Command line front end.

Each subcommand builds one document of formatted values.  --format json
prints that document; the text view is rendered from it and nothing else.
tensor --out writes the document to its file and prints only the path.

Exit codes: 0 success (and true verdicts), 1 false verdicts or an empty
search, 2 usage or input errors, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

from .capacities import PossibilityCapacity
from .fileio import (
    dump_capacity,
    format_value,
    load_capacity,
    load_function,
    load_game,
    numeric_tolerance,
    save_json,
)
from .games import (
    DEFAULT_SEARCH_BUDGET,
    SearchBudgetExceeded,
    StrategyProfile,
    best_response,
    search_equilibria,
    verify_capacity_nash,
    verify_equilibrium,
)
from .integrals import tnormed_integral
from .tensors import tensor_n
from .tnorms import tnorm
from .worked_examples import reference_report


def _add_common(sub):
    sub.add_argument(
        "--numeric",
        choices=("rational", "float"),
        default="rational",
        help="exact fractions (default) or binary floats with 1e-9 tolerance",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable text (default) or JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzygames",
        description=(
            "t-normed integrals against capacities, capacity tensor products, "
            "and equilibrium checks for finite games with possibility or "
            "necessity beliefs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "integrate",
        help="integrate a function, or a game's payoff tables, against a capacity",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--game", help="game file; integrates full payoff tables")
    src.add_argument("--function", help="pointwise function file")
    p.add_argument("--capacity", required=True, help="capacity file")
    p.add_argument("--tnorm", required=True, help="min, prod or luk")
    p.add_argument(
        "--player",
        type=int,
        help="with --game: only this player (1-based)",
    )
    _add_common(p)

    p = sub.add_parser("tensor", help="tensor product of capacities")
    p.add_argument(
        "--capacities", nargs="+", required=True, help="two or more capacity files"
    )
    p.add_argument("--tnorm", required=True, help="min, prod or luk")
    p.add_argument(
        "--form",
        choices=("auto", "density", "general"),
        default="auto",
        help="density form (possibility inputs), general slice form, or auto",
    )
    p.add_argument("--out", help="write the resulting capacity to this file")
    _add_common(p)

    p = sub.add_parser(
        "best-response", help="a player's best responses against a belief"
    )
    p.add_argument("--game", required=True)
    p.add_argument("--player", type=int, required=True, help="player, 1-based")
    p.add_argument("--belief", required=True, help="capacity on the opponent space")
    p.add_argument("--tnorm", required=True, help="min, prod or luk")
    _add_common(p)

    p = sub.add_parser(
        "verify", help="check the equilibrium condition for a belief profile"
    )
    p.add_argument("--game", required=True)
    p.add_argument(
        "--beliefs",
        nargs="+",
        required=True,
        help="one capacity file per player, on the opponent spaces",
    )
    p.add_argument("--payoff-tnorm", required=True, help="min, prod or luk")
    _add_common(p)

    p = sub.add_parser(
        "search", help="enumerate strategy profiles and report the equilibria"
    )
    p.add_argument("--game", required=True)
    p.add_argument("--payoff-tnorm", required=True, help="min, prod or luk")
    p.add_argument("--tensor-tnorm", required=True, help="min, prod or luk")
    p.add_argument(
        "--mode",
        default="indicator",
        help="indicator, grid:<g> (default g=4), or necessity",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SEARCH_BUDGET,
        help="largest candidate count the search may enumerate (at least 1)",
    )
    _add_common(p)

    p = sub.add_parser(
        "nash-verify",
        help="capacity equilibrium check for a possibility strategy profile",
    )
    p.add_argument("--game", required=True)
    p.add_argument(
        "--profile",
        nargs="+",
        required=True,
        help="one possibility capacity file per player, on own strategy spaces",
    )
    p.add_argument("--payoff-tnorm", required=True, help="min, prod or luk")
    p.add_argument("--tensor-tnorm", required=True, help="min, prod or luk")
    _add_common(p)

    p = sub.add_parser(
        "reproduce-paper",
        help="recompute the built-in worked examples and check their known values",
    )
    _add_common(p)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it found it, so one serves every call
    return build_parser()


def _player_index(game, number: int) -> int:
    if not 1 <= number <= game.players:
        raise ValueError(
            f"--player {number} out of range for a {game.players}-player game"
        )
    return number - 1


def _cmd_integrate(args):
    star = tnorm(args.tnorm)
    cap = load_capacity(args.capacity, args.numeric)
    if args.function:
        if args.player is not None:
            raise ValueError("--player only applies with --game")
        f = load_function(args.function, args.numeric)
        return {"value": format_value(tnormed_integral(f, cap, star))}, 0
    game = load_game(args.game, args.numeric)
    players = range(game.players)
    if args.player is not None:
        players = [_player_index(game, args.player)]
    return {
        f"player {i + 1}": format_value(tnormed_integral(game._functions[i], cap, star))
        for i in players
    }, 0


def _integrate_text(doc):
    if "value" in doc:
        return [doc["value"]]
    return [f"{name}: {value}" for name, value in doc.items()]


def _cmd_tensor(args):
    ast = tnorm(args.tnorm)
    caps = [load_capacity(p, args.numeric) for p in args.capacities]
    if len(caps) < 2:
        raise ValueError("tensor needs at least two capacities")
    tol = numeric_tolerance(args.numeric)
    if args.form == "density" and not all(
        isinstance(c, PossibilityCapacity) for c in caps
    ):
        raise ValueError(
            "density form needs possibility capacities; use --form general"
        )
    if args.form == "general":
        caps = [c.as_general(tol) for c in caps]
    # tensor_n takes the density route exactly when every factor is a
    # possibility capacity, which is what --form auto asks for
    doc = dump_capacity(tensor_n(caps, ast, tol=tol))
    if args.out:
        save_json(doc, args.out)
        print(f"wrote {args.out}")
        return None, 0
    return doc, 0


def _tensor_text(doc):
    return [json.dumps(doc, indent=2)]


def _cmd_best_response(args):
    star = tnorm(args.tnorm)
    game = load_game(args.game, args.numeric)
    i = _player_index(game, args.player)
    belief = load_capacity(args.belief, args.numeric)
    responses = best_response(
        game, i, belief, star, tol=numeric_tolerance(args.numeric)
    )
    return {"player": args.player, "best_responses": list(responses)}, 0


def _best_response_text(doc):
    return [" ".join(doc["best_responses"])]


def _certificate_doc(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "best_responses": [list(r) for r in cert.best_responses],
        "residuals": [format_value(r) for r in cert.residuals],
        "payoff_tnorm": cert.payoff_tnorm,
        "tensor_tnorm": cert.tensor_tnorm,
    }


def _cmd_verify(args):
    star = tnorm(args.payoff_tnorm)
    game = load_game(args.game, args.numeric)
    beliefs = [load_capacity(p, args.numeric) for p in args.beliefs]
    cert = verify_equilibrium(
        game, beliefs, star, tol=numeric_tolerance(args.numeric)
    )
    return _certificate_doc(cert), 0 if cert.verdict else 1


def _verify_text(doc):
    yield f"verdict: {'equilibrium' if doc['verdict'] else 'not an equilibrium'}"
    for i, (resp, res) in enumerate(zip(doc["best_responses"], doc["residuals"])):
        yield f"player {i + 1}: best responses {{{','.join(resp)}}}, residual {res}"


def _profile_doc(profile, dumped) -> list:
    """The profile's capacities as kind and density documents.

    dumped maps id(capacity) to its document and fills as it goes, so a
    capacity that the search shares between profiles is dumped once.
    Identity, unlike equality, never merges capacities whose numbers differ
    only in type (1 and 1.0).
    """
    docs = []
    for cap in profile:
        doc = dumped.get(id(cap))
        if doc is None:
            full = dump_capacity(cap)
            doc = dumped[id(cap)] = {"kind": full["kind"], "density": full["density"]}
        docs.append(doc)
    return docs


def _cmd_search(args):
    star = tnorm(args.payoff_tnorm)
    ast = tnorm(args.tensor_tnorm)
    game = load_game(args.game, args.numeric)
    found = search_equilibria(
        game,
        star,
        ast,
        mode=args.mode,
        budget=args.budget,
        tol=numeric_tolerance(args.numeric),
    )
    # found keeps every capacity alive, so no id in dumped is reused
    dumped = {}
    equilibria = [
        {
            "profile": _profile_doc(profile, dumped),
            "certificate": _certificate_doc(cert),
        }
        for profile, cert in found
    ]
    doc = {"mode": args.mode, "found": len(found), "equilibria": equilibria}
    return doc, 0 if found else 1


def _search_text(doc):
    if not doc["found"]:
        yield (
            "no equilibrium found at this resolution "
            f"(mode {doc['mode']}); finer grids or the continuum are not ruled out"
        )
        return
    yield f"{doc['found']} equilibrium profile(s), mode {doc['mode']}"
    for k, eq in enumerate(doc["equilibria"], 1):
        parts = []
        for cap in eq["profile"]:
            tag = "dual " if cap["kind"] == "necessity" else ""
            parts.append(tag + "(" + ",".join(cap["density"].values()) + ")")
        yield f"  {k}. " + " x ".join(parts)


def _cmd_nash_verify(args):
    star = tnorm(args.payoff_tnorm)
    ast = tnorm(args.tensor_tnorm)
    game = load_game(args.game, args.numeric)
    caps = [load_capacity(p, args.numeric) for p in args.profile]
    profile = StrategyProfile(game, caps)
    report = verify_capacity_nash(
        game, profile, star, ast, tol=numeric_tolerance(args.numeric)
    )
    doc = {
        "verdict": report.verdict,
        "payoffs": [format_value(v) for v in report.payoffs],
        "deviation_bounds": [format_value(v) for v in report.deviation_bounds],
        "gaps": [format_value(v) for v in report.gaps],
        "payoff_tnorm": report.payoff_tnorm,
        "tensor_tnorm": report.tensor_tnorm,
    }
    return doc, 0 if report.verdict else 1


def _nash_verify_text(doc):
    yield "verdict: " + (
        "capacity equilibrium" if doc["verdict"] else "not a capacity equilibrium"
    )
    rows = zip(doc["payoffs"], doc["deviation_bounds"], doc["gaps"])
    for i, (payoff, bound, gap) in enumerate(rows):
        yield f"player {i + 1}: payoff {payoff}, deviation bound {bound}, gap {gap}"


def _cmd_reproduce(args):
    rows = reference_report(numeric=args.numeric)
    ok = all(r.passed for r in rows)
    # a row's fields are the check's keys: name, expected, computed, passed
    return {"passed": ok, "checks": [asdict(r) for r in rows]}, 0 if ok else 1


def _reproduce_text(doc):
    checks = doc["checks"]
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        mark = "pass" if c["passed"] else "FAIL"
        yield (
            f"{c['name'].ljust(width)}  expected {c['expected']:>16}  "
            f"computed {c['computed']:>16}  {mark}"
        )
    yield f"{len(checks)} checks, {sum(c['passed'] for c in checks)} passed"


# each command's handler returns (document, exit code); its text view turns
# the document into lines, and --format json prints the document itself
_COMMANDS = {
    "integrate": (_cmd_integrate, _integrate_text),
    "tensor": (_cmd_tensor, _tensor_text),
    "best-response": (_cmd_best_response, _best_response_text),
    "verify": (_cmd_verify, _verify_text),
    "search": (_cmd_search, _search_text),
    "nash-verify": (_cmd_nash_verify, _nash_verify_text),
    "reproduce-paper": (_cmd_reproduce, _reproduce_text),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler, text_view = _COMMANDS[args.command]
    try:
        doc, code = handler(args)
        if doc is not None:  # tensor --out has printed where it wrote
            if args.format == "json":
                print(json.dumps(doc))
            else:
                print("\n".join(text_view(doc)))
        return code
    except SearchBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
