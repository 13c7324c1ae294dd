"""Per-layer tracing, installed from outside the package.

The tracer wraps public functions of fuzzygames where the calling modules
imported them, and class methods on their classes.  Wrapped calls record a
span (name, start, end, parent span, op id); the tiny hot calls
(TNorm.__call__ and the capacities' value methods) only bump a counter.
Spans stay in memory until write_spans is called.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

# (span name, module holding the definition, attribute path)
SPANNED = (
    ("cli.main", "cli", "main"),
    ("fileio.load_game", "fileio", "load_game"),
    ("fileio.load_capacity", "fileio", "load_capacity"),
    ("games.search_equilibria", "games", "search_equilibria"),
    ("games.verify_equilibrium", "games", "verify_equilibrium"),
    ("games.best_response", "games", "best_response"),
    ("games.induced_beliefs", "games", "induced_beliefs"),
    ("games.verify_capacity_nash", "games", "verify_capacity_nash"),
    ("games.mixed_expected_payoff", "games", "mixed_expected_payoff"),
    ("integrals.tnormed_integral", "integrals", "tnormed_integral"),
    ("tensors.tensor_n", "tensors", "tensor_n"),
    ("tensors.tensor_general", "tensors", "tensor_general"),
    ("capacities.Capacity.init", "capacities", "Capacity.__init__"),
    ("capacities.PossibilityCapacity.init", "capacities", "PossibilityCapacity.__init__"),
    ("capacities.is_possibility", "capacities", "is_possibility"),
    ("capacities.is_necessity", "capacities", "is_necessity"),
    ("tnorms.check_tnorm_laws", "tnorms", "check_tnorm_laws"),
    ("spaces.ProductSpace.init", "spaces", "ProductSpace.__init__"),
)

# (counter name, module, attribute paths counted together)
COUNTED = (
    ("tnorms.TNorm.call", "tnorms", ("TNorm.__call__",)),
    (
        "capacities.value",
        "capacities",
        ("Capacity.value", "PossibilityCapacity.value", "NecessityCapacity.value"),
    ),
)

LAYERS = ("cli", "fileio", "games", "integrals", "tensors", "capacities", "tnorms", "spaces")


def _candidates(game, mode) -> int:
    """Candidate profiles a search enumerates, from the documented families."""
    mode = str(mode).strip().lower()
    total = 1
    for space in game.spaces:
        n = space.size
        if mode.startswith("grid"):
            g = int(mode.split(":", 1)[1]) if ":" in mode else 4
            total *= (g + 1) ** n - g**n
        else:
            total *= (1 << n) - 1
    return total


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in SPANNED}  # calls, total, self
        self.counts = {name: 0 for name, _, _ in COUNTED}
        self.tnorm_calls = {}  # t-norm name -> calls
        self.cells = 0  # general tensor table entries materialised
        self.candidates = 0
        self.distinct = 0
        self.op = -1
        self._keys = set()
        self._stack = []  # [span index, child time] per open span
        self._active = {}
        self._patches = []

    def begin_op(self) -> None:
        """Start the next op: new op id, new set of seen integrals."""
        self.op += 1
        self._keys = set()

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "fuzzygames" or name.startswith("fuzzygames."))
        ]

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, module, path, make):
        """Swap the object at module.path (a function or Class.method)."""
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapped = make(original)
        # rebind the name wherever a package module imported it
        for m in self._modules():
            if m.__dict__.get(path) is original:
                self._set(m, path, wrapped)

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for name, mod, path in SPANNED:
            self._replace(modules[mod], path, lambda fn, name=name: self._span(name, fn))
        for name, mod, paths in COUNTED:
            for path in paths:
                self._replace(modules[mod], path, lambda fn, name=name: self._count(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _before(self, name, args, kwargs):
        if name == "integrals.tnormed_integral":
            key = (args[0].values, args[1])
            if key not in self._keys:
                self._keys.add(key)
                self.distinct += 1
        elif name == "tensors.tensor_general":
            self.cells += 1 << (args[0].space.size * args[1].space.size)
        elif name == "games.search_equilibria":
            self.candidates += _candidates(args[0], kwargs.get("mode", args[3] if len(args) > 3 else "indicator"))

    def _span(self, name, fn):
        spans, stack, active, stats = self.spans, self._stack, self._active, self.stats[name]
        hooked = name in (
            "integrals.tnormed_integral",
            "tensors.tensor_general",
            "games.search_equilibria",
        )

        def wrapper(*args, **kwargs):
            if hooked:
                self._before(name, args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                spans[index] = (name, start, end, parent, self.op)
                stats[0] += 1
                stats[2] += duration - frame[1]
                if not active[name]:
                    stats[1] += duration  # outermost call only, so recursion is not double counted
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        if name == "tnorms.TNorm.call":
            by_name = self.tnorm_calls

            def wrapper(t, a, b):
                counts[name] += 1
                by_name[t.name] = by_name.get(t.name, 0) + 1
                return fn(t, a, b)

        else:

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
