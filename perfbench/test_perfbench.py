"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q

Each test runs a workload in process at toy sizes: every metric the
benchmark declares must be printed, every answer must pass the oracle, and
a planted wrong answer must be caught and counted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import AlgebraWorkload, NashWorkload, SearchWorkload  # noqa: E402

sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "search-possibility": lambda: SearchWorkload(
        "search-possibility", [((2, 2, 2), "indicator"), ((2, 2), "grid:2")], rounds=1
    ),
    "search-necessity": lambda: SearchWorkload(
        "search-necessity", [((2, 2, 2), "necessity")], rounds=1
    ),
    "nash-verify": lambda: NashWorkload(
        "nash-verify", profiles_per_round=2, rounds=1, players=3, strategies=2
    ),
    "algebra-laws": lambda: AlgebraWorkload(
        "algebra-laws", resolution=5, sizes=(3, 4), tables_per_size=1, rounds=1
    ),
}


def test_declared_metrics_match_the_runner():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric(name, trace, tmp_path, capsys):
    result = run.run_one(TINY[name](), seed=3, seconds=0.2, trace=trace, out=tmp_path)
    printed = capsys.readouterr().out
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for metric, unit in expected.items():
        assert result["metrics"][metric]["unit"] == unit
        if not trace:
            assert metric in printed
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert (tmp_path / f"spans-{name}-seed3.csv.gz").is_file()


class CorruptedSearch(SearchWorkload):
    """Rewrites the first residual of every reported equilibrium to 1/2."""

    def call(self, op, mods):
        code, out = super().call(op, mods)
        doc = json.loads(out)
        for entry in doc["equilibria"]:
            entry["certificate"]["residuals"][0] = "1/2"
        return code, json.dumps(doc)


class FlippedNash(NashWorkload):
    """Reports the opposite exit code on every float-mode op."""

    def call(self, op, mods):
        code, out = super().call(op, mods)
        return (1 - code if "float" in op.argv else code), out


@pytest.mark.parametrize(
    "workload",
    [
        CorruptedSearch("search-possibility", [((2, 2, 2), "indicator")], rounds=1),
        FlippedNash("nash-verify", profiles_per_round=2, rounds=1, players=3, strategies=2),
    ],
    ids=["residual", "exit-code"],
)
def test_planted_wrong_answer_is_counted(workload, tmp_path, capsys):
    result = run.run_one(workload, seed=5, seconds=0.2, trace=False, out=tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    ratio = result["failed"] / result["attempted"]
    assert f"failed_ratio {ratio:.4f}" in capsys.readouterr().out


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [*DECLARED["command"], "--workload", "nash-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
