"""JSON file formats with exact fraction strings.

Values are serialized as reduced fraction strings ("1/2", "1", "3/4") so
round-trips stay exact; plain JSON integers are accepted on input, and
decimal strings like "0.5" parse to the exact rational they spell.

Capacity files:

    {"space": ["a", "b"], "kind": "possibility", "density": {"a": "1", "b": "1/2"}}
    {"space": ["a", "b"], "kind": "necessity",  "density": {"a": "1", "b": "1/2"}}
    {"space": ["a", "b"], "kind": "general",
     "values": {"": "0", "a": "1", "b": "1/2", "a,b": "1"}}

General subset keys join member labels with commas, empty string for the
empty set.  A necessity file stores the density of its conjugate possibility
capacity.  Game files:

    {"players": 2, "strategies": [["a", "b"], ["a", "b"]],
     "payoffs": [{"a,a": "1/2", ...}, {...}]}

"strategies" holds one list of label strings per player.  Payoff keys join
one strategy label per player with commas, players in order.  Function files
mirror the possibility shape with "values" instead of a density.  Points of
product spaces are labeled by joining coordinates with "|", for example
"a|b"; labels that contain "|" may collide there, which is an error.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .spaces import FiniteSpace
from .capacities import (
    NecessityCapacity,
    PossibilityCapacity,
    make_capacity,
    possibility_from_density,
)
from .integrals import FuzzyFunction
from .games import Game


def parse_value(raw, where: str = "value") -> Fraction:
    """Parse a JSON scalar into an exact Fraction."""
    if isinstance(raw, bool):
        raise ValueError(f"{where}: booleans are not numbers")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        # accept the decimal the float prints as, not its binary expansion;
        # JSON's 1e400, NaN and Infinity arrive here as non-finite floats
        try:
            return Fraction(repr(raw))
        except ValueError:
            raise ValueError(f"{where}: malformed fraction {raw!r}") from None
    if isinstance(raw, str):
        try:
            return Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{where}: malformed fraction {raw!r}") from None
    raise ValueError(f"{where}: expected a fraction string, got {raw!r}")


def parse_unit(raw, where: str = "value") -> Fraction:
    """Parse a value and require it to lie in [0,1]."""
    v = parse_value(raw, where)
    if not 0 <= v <= 1:
        raise ValueError(f"{where}: {raw!r} is outside [0,1]")
    return v


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(Fraction(v))


def _as_document(source, what: str) -> dict:
    if isinstance(source, dict):
        return source
    text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{what} file {source}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file {source}: expected a JSON object")
    return doc


def _space_from(labels, what: str) -> FiniteSpace:
    if not isinstance(labels, list) or not all(
        isinstance(x, str) for x in labels
    ):
        raise ValueError(f"{what} must be a list of labels")
    return FiniteSpace(labels)


def _maybe_float(v, numeric: str):
    return float(v) if numeric == "float" else v


def numeric_tolerance(numeric: str) -> float:
    """Comparison slack of a numeric mode: 0 for rational, 1e-9 for float."""
    if numeric not in ("rational", "float"):
        raise ValueError(f"numeric mode must be rational or float, not {numeric!r}")
    return 1e-9 if numeric == "float" else 0


def load_capacity(source, numeric: str = "rational"):
    """Read a capacity of any kind from a path or a parsed JSON object."""
    tol = numeric_tolerance(numeric)
    doc = _as_document(source, "capacity")
    kind = doc.get("kind")
    space = _space_from(doc.get("space"), "capacity: 'space'")
    if kind in ("possibility", "necessity"):
        density_doc = doc.get("density")
        if not isinstance(density_doc, dict):
            raise ValueError(f"capacity of kind {kind}: 'density' must be an object")
        # labels left out have density 0, in the mode's type
        density = dict.fromkeys(space.labels, _maybe_float(0, numeric))
        for name, raw in density_doc.items():
            density[name] = _maybe_float(
                parse_unit(raw, f"density of {name!r}"), numeric
            )
        poss = possibility_from_density(space, density, tol=tol)
        return poss.dual() if kind == "necessity" else poss
    if kind == "general":
        values_doc = doc.get("values")
        if not isinstance(values_doc, dict):
            raise ValueError("capacity of kind general: 'values' must be an object")
        table = {}
        for key, raw in values_doc.items():
            labels = tuple(key.split(",")) if key else ()
            table[labels] = _maybe_float(
                parse_unit(raw, f"value of subset {key!r}"), numeric
            )
        return make_capacity(space, table, tol=tol)
    raise ValueError(
        f"capacity kind must be possibility, necessity or general, not {kind!r}"
    )


def dump_capacity(cap) -> dict:
    """Serialize a capacity to its JSON object form.

    A necessity capacity is written as its kind plus its conjugate's density.
    """
    doc = {"space": list(cap.space.labels), "kind": cap.kind}
    if isinstance(cap, (PossibilityCapacity, NecessityCapacity)):
        poss = cap.dual() if isinstance(cap, NecessityCapacity) else cap
        doc["density"] = {
            name: format_value(v) for name, v in zip(cap.space.labels, poss.density)
        }
    else:
        doc["values"] = {
            ",".join(cap.space.members(m)): format_value(cap.value(m))
            for m in cap.space.subsets()
        }
    return doc


def load_game(source, numeric: str = "rational") -> Game:
    """Read a game from a path or a parsed JSON object."""
    numeric_tolerance(numeric)
    doc = _as_document(source, "game")
    strategies = doc.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        raise ValueError("game: 'strategies' must be a list of label lists")
    spaces = [
        _space_from(labels, f"game: strategies[{i}]")
        for i, labels in enumerate(strategies)
    ]
    players = doc.get("players", len(spaces))
    if not isinstance(players, int) or isinstance(players, bool):
        raise ValueError(f"game: 'players' must be an integer, got {players!r}")
    if players != len(spaces):
        raise ValueError(
            f"game: 'players' is {players} but {len(spaces)} strategy lists given"
        )
    payoff_docs = doc.get("payoffs")
    if not isinstance(payoff_docs, list) or len(payoff_docs) != len(spaces):
        raise ValueError("game: 'payoffs' must hold one table per player")
    # each distinct raw is parsed and range-checked once, at its first key;
    # keyed by type as well, so JSON true is never taken for 1
    parsed = {}
    tables = []
    for i, table_doc in enumerate(payoff_docs):
        if not isinstance(table_doc, dict):
            raise ValueError(f"game: payoff table of player {i + 1} must be an object")
        table = {}
        for key, raw in table_doc.items():
            try:
                v = parsed[type(raw), raw]
            except (KeyError, TypeError):  # not seen yet, or unhashable
                # an unhashable raw is no number: the parser refuses it
                v = _maybe_float(
                    parse_unit(raw, f"payoffs[{i}] at {key!r}"), numeric
                )
                parsed[type(raw), raw] = v
            table[tuple(key.split(","))] = v
        tables.append(table)
    return Game(spaces, tables)


def dump_game(game: Game) -> dict:
    """Serialize a game to its JSON object form."""
    payoffs = []
    for table in game.payoffs:
        payoffs.append(
            {
                ",".join(
                    space.labels[c]
                    for space, c in zip(game.spaces, game.product.coords_of(idx))
                ): format_value(v)
                for idx, v in enumerate(table)
            }
        )
    return {
        "players": game.players,
        "strategies": [list(s.labels) for s in game.spaces],
        "payoffs": payoffs,
    }


def load_function(source, numeric: str = "rational") -> FuzzyFunction:
    """Read a pointwise [0,1] function from a path or parsed JSON object."""
    numeric_tolerance(numeric)
    doc = _as_document(source, "function")
    space = _space_from(doc.get("space"), "function: 'space'")
    values_doc = doc.get("values")
    if not isinstance(values_doc, dict):
        raise ValueError("function: 'values' must be an object")
    unknown = set(values_doc) - set(space.labels)
    if unknown:
        raise ValueError(f"function names unknown labels {sorted(unknown)!r}")
    missing = [name for name in space.labels if name not in values_doc]
    if missing:
        raise ValueError(f"function misses values for {missing!r}")
    values = [
        _maybe_float(
            parse_unit(values_doc[name], f"value of {name!r}"), numeric
        )
        for name in space.labels
    ]
    return FuzzyFunction(space, values)


def dump_function(f: FuzzyFunction) -> dict:
    return {
        "space": list(f.space.labels),
        "values": {
            name: format_value(v) for name, v in zip(f.space.labels, f.values)
        },
    }


def save_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
