#!/usr/bin/env python3
"""Benchmark for fuzzygames: equilibrium search, capacity-Nash checks and
algebra sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload search-possibility --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ./src and
needs nothing outside the standard library.  Load is a closed loop: one
client in one process, each op sent when the previous one has returned.

--trace 0 runs ops for --seconds of op time and reports the end-to-end
metrics.  --trace 1 alternates plain and traced passes over the workload's
first round and reports per-layer metrics per traced round, plus the
tracer's overhead.  Times are rescaled to a reference speed (see speed.py).
Every answer is checked against an independent oracle either way.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_SAMPLES = 100  # so that at least ten samples lie above p90

from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "integrals.tnormed_integral.calls": "count",
    "integrals.tnormed_integral.total_s": "s",
    "integrals.tnormed_integral.self_s": "s",
    "integrals.tnormed_integral.distinct_ratio": "ratio",
    "games.best_response.calls": "count",
    "games.best_response.total_s": "s",
    "games.verify_equilibrium.calls": "count",
    "games.verify_equilibrium.total_s": "s",
    "games.induced_beliefs.total_s": "s",
    "games.search_equilibria.us_per_candidate": "us",
    "games.verify_capacity_nash.total_s": "s",
    "games.mixed_expected_payoff.calls": "count",
    "tensors.tensor_n.calls": "count",
    "tensors.tensor_n.total_s": "s",
    "tensors.tensor_n.self_s": "s",
    "tensors.tensor_general.calls": "count",
    "tensors.tensor_general.total_s": "s",
    "tensors.tensor_general.cells": "count",
    "capacities.Capacity.init.calls": "count",
    "capacities.Capacity.init.total_s": "s",
    "capacities.PossibilityCapacity.init.calls": "count",
    "capacities.is_possibility.total_s": "s",
    "capacities.is_necessity.total_s": "s",
    "capacities.value.calls": "count",
    "tnorms.TNorm.call.calls": "count",
    "tnorms.check_tnorm_laws.total_s": "s",
    "spaces.ProductSpace.init.calls": "count",
    "spaces.ProductSpace.init.total_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "fileio.load_game.total_s": "s",
    "fileio.load_capacity.total_s": "s",
    **{f"layer.{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import fuzzygames afresh, so each set-up pays for the import again."""
    for name in [n for n in sys.modules if n == "fuzzygames" or n.startswith("fuzzygames.")]:
        del sys.modules[name]
    fg = importlib.import_module("fuzzygames")
    return types.SimpleNamespace(fg=fg, cli=importlib.import_module("fuzzygames.cli"))


def interleave(ops, rng) -> list:
    """A seeded order that deals the op classes out in turn.

    Any prefix of a round then holds each class in nearly its full-round
    share, so a run cut off mid-round keeps the workload's mix.
    """
    classes = {}
    for op in ops:
        classes.setdefault(op.kind, []).append(op)
    groups = list(classes.values())
    for group in groups:
        rng.shuffle(group)
    rng.shuffle(groups)
    return [g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)]


class Bench:
    """One workload at one seed: set-up, oracle, and the op loop."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def set_up(self):
        raw = []
        speed = Speedometer()
        for k in range(SETUP_REPEATS):
            gc.collect()  # so no set-up pays for collecting the previous one's garbage
            start = perf_counter()
            mods = import_program()
            pool = self.workload.setup(mods.fg, random.Random(self.seed), self.workdir / f"inputs{k}")
            raw.append(perf_counter() - start)
            speed.probe()
        order = random.Random(f"order-{self.seed}")
        self.pool = [interleave(ops, order) for ops in pool]
        self.mods = mods
        self.setup_raw, self.setup_times = raw, speed.rescale(raw)
        start = perf_counter()
        self.expected = {}
        for ops in self.pool:
            for op in ops:
                if op.key not in self.expected:
                    self.expected[op.key] = self.workload.expect(op)
        self.oracle_s = perf_counter() - start
        gc.collect()

    def execute(self, op) -> float:
        """Run one op and check its answer; only the call itself is timed."""
        start = perf_counter()
        try:
            answer = self.workload.call(op, self.mods)
        except (Exception, SystemExit) as exc:  # a raising op is a failed op
            elapsed = perf_counter() - start
            reason = f"raised {exc!r}"
        else:
            elapsed = perf_counter() - start
            try:
                reason = self.workload.check(op, answer, self.expected[op.key])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                reason = f"malformed answer: {exc!r}"
        self.attempted += 1
        if reason:
            self.failed += 1
            self.failures.append(f"{op.kind} {list(op.argv) or op.key}: {reason}")
        return elapsed

    def ops_in_order(self):
        """The pool's rounds, cycled for as long as the caller wants ops."""
        for r in itertools.count():
            yield from self.pool[r % len(self.pool)]

    def run_ops(self, ops, speed: Speedometer, tracer: Tracer | None = None) -> list:
        """Raw times of the ops, with a speed probe after each."""
        times = []
        for op in ops:
            if tracer:
                tracer.begin_op()
            times.append(self.execute(op))
            speed.probe()
        return times

    def timed(self, seconds: float) -> dict:
        """Ops in pool order until --seconds of raw op time have passed
        and at least MIN_SAMPLES ops have run."""
        raw = []
        speed = Speedometer()
        measured = 0.0
        for op in self.ops_in_order():
            raw += self.run_ops([op], speed)
            measured += raw[-1]
            if measured >= seconds and len(raw) >= MIN_SAMPLES:
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples = speed.rescale(raw)
        self.raw, self.samples = raw, samples
        return {
            "setup_s": statistics.median(self.setup_times),
            "ops_per_s": len(samples) / sum(samples),
            "op_ms.p50": statistics.median(samples) * 1000,
            "op_ms.p90": statistics.quantiles(samples, n=10)[-1] * 1000,
            "peak_rss_mb": peak_kb / 1024,
        }

    def traced(self, seconds: float) -> dict:
        """Alternate plain and traced passes over round 0 while time allows."""
        ops = self.pool[0]
        tracer = Tracer()
        plain = traced = traced_raw = 0.0
        rounds = 0
        while True:
            speed = Speedometer()
            plain += sum(speed.rescale(self.run_ops(ops, speed)))
            speed = Speedometer()
            tracer.install()
            try:
                raw = self.run_ops(ops, speed, tracer)
            finally:
                tracer.uninstall()
            traced += sum(speed.rescale(raw))
            traced_raw += sum(raw)
            rounds += 1
            spent = plain + traced
            if spent + spent / rounds > seconds:
                break
        self.tracer, self.rounds, self.plain_s, self.traced_s = tracer, rounds, plain, traced
        # spans hold raw times; rescale them by the traced rounds' mean factor
        return layer_metrics(tracer, rounds, traced / traced_raw, plain, traced)


def layer_metrics(tracer: Tracer, rounds: int, scale: float, plain: float, traced: float) -> dict:
    """Per-layer values per traced round, times rescaled by `scale`.

    Shares are of the traced round; plain and traced are rescaled totals.
    """
    values = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, total, self_s) in tracer.stats.items():
        values[f"{name}.calls"] = calls / rounds
        values[f"{name}.total_s"] = total * scale / rounds
        values[f"{name}.self_s"] = self_s * scale / rounds
        layer_self[name.split(".")[0]] += self_s * scale
    for name, calls in tracer.counts.items():
        values[f"{name}.calls"] = calls / rounds
    integral_calls = tracer.stats["integrals.tnormed_integral"][0]
    values["integrals.tnormed_integral.distinct_ratio"] = (
        tracer.distinct / integral_calls if integral_calls else 0.0
    )
    search_total = tracer.stats["games.search_equilibria"][1]
    values["games.search_equilibria.us_per_candidate"] = (
        search_total * scale * 1e6 / tracer.candidates if tracer.candidates else 0.0
    )
    values["tensors.tensor_general.cells"] = tracer.cells / rounds
    for layer, self_s in layer_self.items():
        values[f"layer.{layer}.share"] = self_s / traced
    values["trace.overhead_ratio"] = traced / plain
    return values


def tnorm_cost(fg, name: str) -> float:
    """Seconds per TNorm call of a built-in t-norm on quarter-grid Fractions,
    rescaled to the reference speed."""
    t = fg.tnorm(name)
    args = [(Fraction(a, 4), Fraction(b, 4)) for a in range(5) for b in range(5)] * 200
    speed = Speedometer()
    start = perf_counter()
    for a, b in args:
        t(a, b)
    elapsed = perf_counter() - start
    speed.probe()
    return speed.rescale([elapsed])[0] / len(args)


def report_timed(bench: Bench, metrics: dict) -> None:
    samples, raw = bench.samples, bench.raw
    ms = statistics.median
    above = sum(s * 1000 > metrics["op_ms.p90"] for s in samples)
    setups = ", ".join(f"{t:.4f}" for t in bench.setup_times)
    print(
        f"times rescaled to the reference speed ({REFERENCE_S * 1000:g} ms per probe); "
        f"median factor {ms(t / r for t, r in zip(samples, raw)):.3f}\n"
        f"setup_s      {metrics['setup_s']:.4f} s    median of {len(bench.setup_times)} set-ups "
        f"({setups}); raw median {ms(bench.setup_raw):.4f} s\n"
        f"ops_per_s    {metrics['ops_per_s']:.3f} 1/s  {len(samples)} ops; raw "
        f"{len(raw) / sum(raw):.3f} 1/s over {sum(raw):.2f} s of op time\n"
        f"op_ms.p50    {metrics['op_ms.p50']:.3f} ms   {len(samples)} samples; raw {ms(raw) * 1000:.3f} ms\n"
        f"op_ms.p90    {metrics['op_ms.p90']:.3f} ms   {len(samples)} samples, {above} above p90\n"
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB\n"
        f"failed_ratio {bench.failed / bench.attempted:.4f}      {bench.failed} of {bench.attempted} ops\n"
        "per op class: median ms (samples)"
    )
    by_kind = {}
    for op_time, op in zip(samples, bench.ops_in_order()):
        by_kind.setdefault(op.kind, []).append(op_time * 1000)
    for kind, times in sorted(by_kind.items(), key=lambda kv: ms(kv[1])):
        print(f"  {kind:28s} {ms(times):9.3f} ({len(times)})")


def report_traced(bench: Bench, metrics: dict) -> None:
    tracer, rounds, traced = bench.tracer, bench.rounds, bench.traced_s
    round_s = traced / rounds
    print(
        f"{rounds} traced round(s) of {len(bench.pool[0])} ops: "
        f"{round_s:.3f} s traced, {bench.plain_s / rounds:.3f} s untraced, "
        f"overhead ratio {metrics['trace.overhead_ratio']:.3f} "
        f"(times rescaled to the reference speed)"
    )
    print("layer share (self time over the traced round; a faster layer saves at most this much)")
    for layer in LAYERS:
        share = metrics[f"layer.{layer}.share"]
        print(f"  {layer:12s} {share * 100:6.1f} %  {share * round_s:9.4f} s")
    print("span                                  calls/round     total_s      self_s  total share")
    for name in tracer.stats:
        calls = metrics.get(f"{name}.calls", 0)
        if calls:
            total = metrics[f"{name}.total_s"]
            print(
                f"  {name:36s} {calls:11.0f} {total:11.4f} "
                f"{metrics[f'{name}.self_s']:11.4f} {total / round_s * 100:9.1f} %"
            )
    for name, calls in tracer.counts.items():
        print(f"  {name:36s} {calls / rounds:11.0f}  (counted, not timed)")
    if tracer.tnorm_calls:
        builtin = {n: c for n, c in tracer.tnorm_calls.items() if n in ("min", "prod", "luk")}
        est = sum(c * tnorm_cost(bench.mods.fg, n) for n, c in builtin.items())
        print(
            f"  t-norm calls, estimated share of the untraced run: "
            f"{est / bench.plain_s * 100:.1f} % (calls x cost of one call on Fractions)"
        )
    distinct = metrics["integrals.tnormed_integral.distinct_ratio"]
    if distinct:
        print(f"  distinct (values, belief) pairs per integral within an op: {distinct:.4f}")


def run_one(workload, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """Set up, run and check one workload; returns the result object."""
    name = workload.name
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-{seed}-", dir=out))
    try:
        bench = Bench(workload, seed, workdir)
        bench.set_up()
        print(
            f"workload {name}, seed {seed}: closed loop, 1 client, "
            f"{sum(map(len, bench.pool))} ops in {len(bench.pool)} rounds, "
            f"oracle {bench.oracle_s:.2f} s (untimed)"
        )
        if trace:
            values = bench.traced(seconds)
            report_traced(bench, values)
            bench.tracer.write_spans(out / f"spans-{name}-seed{seed}.csv.gz")
            units = PER_LAYER
        else:
            values = bench.timed(seconds)
            report_timed(bench, values)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in bench.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzygames" / "__init__.py").is_file():
        print(f"error: no fuzzygames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        results = run_all(args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"workloads": results}))
    else:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
