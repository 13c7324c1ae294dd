import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fuzzygames import (
    dump_capacity,
    dump_game,
    format_value,
    load_capacity,
    load_game,
    search_equilibria,
    tnorm,
)
import fuzzygames
from fuzzygames import cli
from fuzzygames.cli import build_parser, main
from fuzzygames.fileio import numeric_tolerance
from fuzzygames.games import DEFAULT_SEARCH_BUDGET
from conftest import capacity_nash_by_swaps, random_game

GAME1 = {
    "players": 2,
    "strategies": [["a", "b"], ["a", "b"]],
    "payoffs": [
        {"a,a": "1/2", "a,b": "0", "b,a": "0", "b,b": "1/2"},
        {"a,a": "0", "a,b": "1/2", "b,a": "1/2", "b,b": "0"},
    ],
}
GAME2 = {
    "players": 2,
    "strategies": [["a", "b"], ["a", "b"]],
    "payoffs": [
        {"a,a": "1", "a,b": "0", "b,a": "1/2", "b,b": "1/2"},
        {"a,a": "0", "a,b": "1", "b,a": "1/2", "b,b": "1/2"},
    ],
}
# no 0/1-support belief pair verifies here under min, prod or luk
STUBBORN = {
    "players": 2,
    "strategies": [["a", "b"], ["a", "b"]],
    "payoffs": [
        {"a,a": "1/2", "a,b": "0", "b,a": "0", "b,b": "1/4"},
        {"a,a": "0", "a,b": "1/2", "b,a": "1/2", "b,b": "0"},
    ],
}
BELIEF1 = {
    "space": ["a", "b"],
    "kind": "possibility",
    "density": {"a": "1", "b": "1/2"},
}
TOP = {
    "space": ["a", "b"],
    "kind": "possibility",
    "density": {"a": "1", "b": "1"},
}
JOINT = {
    "space": ["a|a", "a|b", "b|a", "b|b"],
    "kind": "possibility",
    "density": {"a|a": "1", "a|b": "1/2", "b|a": "1/2", "b|b": "1/2"},
}
FUNC = {"space": ["a", "b"], "values": {"a": "1/2", "b": "0"}}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return {
        "game1": write("game1.json", GAME1),
        "game2": write("game2.json", GAME2),
        "stubborn": write("stubborn.json", STUBBORN),
        "belief1": write("belief1.json", BELIEF1),
        "top": write("top.json", TOP),
        "joint": write("joint.json", JOINT),
        "func": write("func.json", FUNC),
        "nec": write("nec.json", dict(BELIEF1, kind="necessity")),
        "dir": tmp_path,
    }


class TestIntegrate:
    def test_function_value(self, files, capsys):
        code = main(
            [
                "integrate",
                "--function", files["func"],
                "--capacity", files["belief1"],
                "--tnorm", "min",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_function_json(self, files, capsys):
        code = main(
            [
                "integrate",
                "--function", files["func"],
                "--capacity", files["belief1"],
                "--tnorm", "prod",
                "--format", "json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"value": "1/2"}

    def test_game_tables(self, files, capsys):
        code = main(
            [
                "integrate",
                "--game", files["game1"],
                "--capacity", files["joint"],
                "--tnorm", "min",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "player 1: 1/2" in out
        assert "player 2: 1/2" in out

    def test_single_player(self, files, capsys):
        code = main(
            [
                "integrate",
                "--game", files["game1"],
                "--capacity", files["joint"],
                "--tnorm", "min",
                "--player", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"player 2": "1/2"}

    @pytest.mark.parametrize("number", [0, 3])
    def test_player_out_of_range_is_named_as_typed(self, files, capsys, number):
        code = main(
            [
                "integrate",
                "--game", files["game1"],
                "--capacity", files["joint"],
                "--tnorm", "min",
                "--player", str(number),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --player {number} out of range for a 2-player game\n"
        )

    def test_player_without_game(self, files, capsys):
        code = main(
            [
                "integrate",
                "--function", files["func"],
                "--capacity", files["belief1"],
                "--tnorm", "min",
                "--player", "1",
            ]
        )
        assert code == 2

    def test_capacity_space_mismatch(self, files, capsys):
        code = main(
            [
                "integrate",
                "--game", files["game1"],
                "--capacity", files["belief1"],
                "--tnorm", "min",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTensor:
    def test_density_product(self, files, capsys):
        code = main(
            [
                "tensor",
                "--capacities", files["belief1"], files["belief1"],
                "--tnorm", "prod",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "possibility"
        assert doc["density"] == {
            "a|a": "1", "a|b": "1/2", "b|a": "1/2", "b|b": "1/4",
        }

    def test_general_form_requested(self, files, capsys):
        code = main(
            [
                "tensor",
                "--capacities", files["belief1"], files["belief1"],
                "--tnorm", "min",
                "--form", "general",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "general"
        assert doc["values"]["a|a"] == "1"
        assert doc["values"]["a|a,b|b"] == "1"

    def test_out_file_loads_back(self, files, capsys):
        out = str(files["dir"] / "tensor.json")
        code = main(
            [
                "tensor",
                "--capacities", files["belief1"], files["top"],
                "--tnorm", "luk",
                "--out", out,
            ]
        )
        assert code == 0
        cap = load_capacity(out)
        assert cap.density == (
            Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2),
        )

    def test_three_factor_fold_in_both_forms(self, files, capsys):
        caps = [files["belief1"], files["belief1"], files["top"]]
        code = main(
            ["tensor", "--capacities", *caps, "--tnorm", "prod", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "possibility"
        density = {
            f"{x}|{y}|{z}": Fraction(dx) * Fraction(dy)
            for x, dx in (("a", 1), ("b", "1/2"))
            for y, dy in (("a", 1), ("b", "1/2"))
            for z in "ab"
        }
        assert {k: Fraction(v) for k, v in doc["density"].items()} == density
        code = main(
            [
                "tensor",
                "--capacities", *caps,
                "--tnorm", "prod",
                "--form", "general",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "general"
        assert len(doc["values"]) == 1 << len(density)
        for key, value in doc["values"].items():
            members = key.split(",") if key else []
            expected = max((density[m] for m in members), default=0)
            assert Fraction(value) == expected

    def test_float_mode_prints_left_out_labels_as_float_zeros(self, files, capsys):
        sparse = files["dir"] / "sparse.json"
        sparse.write_text(
            json.dumps({"space": ["a", "b"], "kind": "possibility", "density": {"a": "1"}})
        )
        code = main(
            [
                "tensor",
                "--capacities", str(sparse), str(sparse),
                "--tnorm", "min",
                "--numeric", "float",
                "--format", "json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["density"] == {
            "a|a": "1.0", "a|b": "0.0", "b|a": "0.0", "b|b": "0.0",
        }

    def test_single_capacity_rejected(self, files, capsys):
        code = main(
            ["tensor", "--capacities", files["belief1"], "--tnorm", "min"]
        )
        assert code == 2

    def test_density_form_needs_possibility(self, files, capsys):
        nec = dict(BELIEF1)
        nec["kind"] = "necessity"
        p = files["dir"] / "nec.json"
        p.write_text(json.dumps(nec))
        code = main(
            [
                "tensor",
                "--capacities", str(p), files["belief1"],
                "--tnorm", "min",
                "--form", "density",
            ]
        )
        assert code == 2
        assert "density form" in capsys.readouterr().err


class TestBestResponse:
    def test_prod_answer(self, files, capsys):
        code = main(
            [
                "best-response",
                "--game", files["game1"],
                "--player", "1",
                "--belief", files["belief1"],
                "--tnorm", "prod",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_min_tie(self, files, capsys):
        code = main(
            [
                "best-response",
                "--game", files["game1"],
                "--player", "1",
                "--belief", files["belief1"],
                "--tnorm", "min",
                "--format", "json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "player": 1, "best_responses": ["a", "b"],
        }

    def test_player_out_of_range(self, files, capsys):
        code = main(
            [
                "best-response",
                "--game", files["game1"],
                "--player", "3",
                "--belief", files["belief1"],
                "--tnorm", "min",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("number", [0, 3])
    def test_player_out_of_range_is_named_as_typed(self, files, capsys, number):
        code = main(
            [
                "best-response",
                "--game", files["game1"],
                "--player", str(number),
                "--belief", files["belief1"],
                "--tnorm", "min",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --player {number} out of range for a 2-player game\n"
        )


class TestVerify:
    def test_equilibrium_exit_zero(self, files, capsys):
        code = main(
            [
                "verify",
                "--game", files["game1"],
                "--beliefs", files["belief1"], files["belief1"],
                "--payoff-tnorm", "min",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: equilibrium" in out
        assert "residual 0" in out

    def test_failure_exit_one_with_residuals(self, files, capsys):
        code = main(
            [
                "verify",
                "--game", files["game1"],
                "--beliefs", files["belief1"], files["belief1"],
                "--payoff-tnorm", "prod",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "verdict: not an equilibrium" in out
        assert "player 1: best responses {a}, residual 1" in out
        assert "player 2: best responses {b}, residual 1/2" in out

    def test_json_certificate(self, files, capsys):
        code = main(
            [
                "verify",
                "--game", files["game1"],
                "--beliefs", files["belief1"], files["belief1"],
                "--payoff-tnorm", "prod",
                "--format", "json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is False
        assert doc["best_responses"] == [["a"], ["b"]]
        assert doc["residuals"] == ["1", "1/2"]
        assert doc["payoff_tnorm"] == "prod"

    def test_float_mode_agrees(self, files, capsys):
        for numeric, expected in (("rational", 0), ("float", 0)):
            code = main(
                [
                    "verify",
                    "--game", files["game1"],
                    "--beliefs", files["belief1"], files["belief1"],
                    "--payoff-tnorm", "min",
                    "--numeric", numeric,
                ]
            )
            assert code == expected
            capsys.readouterr()


def _search_output_by_dumps(found, mode, fmt):
    """search's output with every capacity of every profile dumped anew."""
    if fmt == "text":
        lines = [f"{len(found)} equilibrium profile(s), mode {mode}"]
        for k, (profile, _) in enumerate(found, 1):
            parts = []
            for doc in map(dump_capacity, profile):
                tag = "dual " if doc["kind"] == "necessity" else ""
                parts.append(tag + "(" + ",".join(doc["density"].values()) + ")")
            lines.append(f"  {k}. " + " x ".join(parts))
        return "\n".join(lines) + "\n"
    equilibria = [
        {
            "profile": [
                {"kind": doc["kind"], "density": doc["density"]}
                for doc in map(dump_capacity, profile)
            ],
            "certificate": {
                "verdict": cert.verdict,
                "best_responses": [list(r) for r in cert.best_responses],
                "residuals": [format_value(r) for r in cert.residuals],
                "payoff_tnorm": cert.payoff_tnorm,
                "tensor_tnorm": cert.tensor_tnorm,
            },
        }
        for profile, cert in found
    ]
    doc = {"mode": mode, "found": len(found), "equilibria": equilibria}
    return json.dumps(doc) + "\n"


class TestSearchOutput:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("numeric", ["rational", "float"])
    @pytest.mark.parametrize("mode", ["indicator", "necessity", "grid:2"])
    def test_each_capacity_dumped_once_with_identical_output(
        self, tmp_path, capsys, monkeypatch, mode, numeric, fmt
    ):
        game = random_game(random.Random(2024), players=3, sizes=[2, 3, 3])
        if mode == "grid:2":
            game = random_game(random.Random(2024), players=2, sizes=[2, 3])
        path = tmp_path / "game.json"
        path.write_text(json.dumps(dump_game(game)))
        dumped = []

        def counted(cap):
            dumped.append(cap)
            return dump_capacity(cap)

        monkeypatch.setattr(cli, "dump_capacity", counted)
        code = main(
            [
                "search", "--game", str(path),
                "--payoff-tnorm", "prod", "--tensor-tnorm", "min",
                "--mode", mode, "--numeric", numeric, "--format", fmt,
            ]
        )
        found = search_equilibria(
            load_game(str(path), numeric), tnorm("prod"), tnorm("min"),
            mode=mode, tol=numeric_tolerance(numeric),
        )
        assert code == 0 and len(found) > 1
        assert capsys.readouterr().out == _search_output_by_dumps(found, mode, fmt)
        assert len({id(cap) for cap in dumped}) == len(dumped)
        assert len(dumped) < sum(len(p.capacities) for p, _ in found)


def test_main_builds_its_parser_once(monkeypatch, files, capsys):
    cli._parser.cache_clear()
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(3):
        assert main(["reproduce-paper", "--format", "json"]) == 0
    assert len(built) == 1
    cli._parser.cache_clear()
    assert build_parser().parse_args(["reproduce-paper"]).command == "reproduce-paper"


class TestSearch:
    def test_budget_defaults_to_the_library_budget(self):
        args = build_parser().parse_args(
            ["search", "--game", "g.json", "--payoff-tnorm", "min",
             "--tensor-tnorm", "min"]
        )
        assert args.budget == DEFAULT_SEARCH_BUDGET

    def test_grid_two(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--mode", "grid:2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "9 equilibrium profile(s)" in out

    def test_json_listing(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["found"] == 1
        profile = doc["equilibria"][0]["profile"]
        assert profile[0]["density"] == {"a": "1", "b": "1"}
        assert doc["equilibria"][0]["certificate"]["verdict"] is True

    def test_empty_search_is_resolution_limited(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["stubborn"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "no equilibrium found at this resolution" in out
        assert "not ruled out" in out

    def test_budget_exit_three(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--budget", "3",
            ]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exits_two(self, files, capsys, budget):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--budget", budget,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"search budget must be a positive integer, got {budget}" in captured.err

    def test_oversized_grid_exits_three_before_listing(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--mode", "grid:99999999",
            ]
        )
        assert code == 3
        assert "budget" in capsys.readouterr().err

    def test_bad_mode(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--mode", "bogus",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("mode", ["grid:1_0", "grid:+2", "grid: 2", "grid:\u0662"])
    def test_lenient_grid_mode_exits_two(self, files, capsys, mode):
        # int() would read these as grid:10 or grid:2 and echo the raw mode
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--mode", mode,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad grid mode" in captured.err

    def test_necessity_mode(self, files, capsys):
        code = main(
            [
                "search",
                "--game", files["game1"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
                "--mode", "necessity",
            ]
        )
        assert code == 0
        assert "dual" in capsys.readouterr().out


class TestNashVerify:
    def test_reference_pass(self, files, capsys):
        code = main(
            [
                "nash-verify",
                "--game", files["game2"],
                "--profile", files["top"], files["top"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: capacity equilibrium" in out
        assert "gap 0" in out

    def test_json_report(self, files, capsys):
        code = main(
            [
                "nash-verify",
                "--game", files["game2"],
                "--profile", files["top"], files["top"],
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "luk",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] is True
        assert doc["gaps"] == ["0", "0"]
        assert doc["tensor_tnorm"] == "luk"

    def test_failing_profile(self, files, capsys):
        # both players on a: player 2 gets 0 there but 1 against the
        # greatest capacity, so the check fails with exit 1
        point = dict(BELIEF1)
        point["density"] = {"a": "1", "b": "0"}
        p = files["dir"] / "point.json"
        p.write_text(json.dumps(point))
        code = main(
            [
                "nash-verify",
                "--game", files["game2"],
                "--profile", str(p), str(p),
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 1
        assert "not a capacity equilibrium" in capsys.readouterr().out


def _nash_output_by_swaps(game_doc, profile_docs, payoff, tensor, numeric, fmt):
    """nash-verify's output, from the point-by-point swap oracle."""
    game = load_game(game_doc, numeric)
    caps = [load_capacity(d, numeric) for d in profile_docs]
    report = capacity_nash_by_swaps(
        game, caps, tnorm(payoff), tnorm(tensor), tol=numeric_tolerance(numeric)
    )
    if fmt == "json":
        return json.dumps({
            "verdict": report.verdict,
            "payoffs": [format_value(v) for v in report.payoffs],
            "deviation_bounds": [format_value(v) for v in report.deviation_bounds],
            "gaps": [format_value(v) for v in report.gaps],
            "payoff_tnorm": report.payoff_tnorm,
            "tensor_tnorm": report.tensor_tnorm,
        }) + "\n", report.verdict
    lines = ["verdict: " + (
        "capacity equilibrium" if report.verdict else "not a capacity equilibrium"
    )]
    for i, (v, b, g) in enumerate(
        zip(report.payoffs, report.deviation_bounds, report.gaps)
    ):
        lines.append(
            f"player {i + 1}: payoff {format_value(v)}, "
            f"deviation bound {format_value(b)}, gap {format_value(g)}"
        )
    return "\n".join(lines) + "\n", report.verdict


class TestNashVerifyOutput:
    """nash-verify prints the swap oracle's report, digit for digit: int 1
    against Fraction(1) or 1.0 prints as the point-by-point folds give it.
    Densities left out of a profile file load as the mode's zero (0.0 under
    float); a payoff of int 0 can still print as 0 in float mode, from the
    integral's starting level."""

    @pytest.mark.parametrize("numeric", ["rational", "float"])
    def test_output_matches_point_by_point_folds(self, tmp_path, capsys, numeric):
        rng = random.Random(101)
        runs = 0
        for sizes in ((2, 3), (2, 2, 3), (2, 1, 2, 2)):
            game_doc = dump_game(
                random_game(rng, players=len(sizes), sizes=list(sizes), denom=4)
            )
            game_path = tmp_path / f"game{len(sizes)}.json"
            game_path.write_text(json.dumps(game_doc))
            labels = game_doc["strategies"]
            for trial in range(3):
                docs, paths = [], []
                for j, ls in enumerate(labels):
                    # sparse: labels left out load as the mode's zero
                    density = {x: rng.choice(["1/4", "1/2", "1"]) for x in ls if rng.random() < 0.5}
                    density[rng.choice(ls)] = "1"
                    doc = {"space": ls, "kind": "possibility", "density": density}
                    path = tmp_path / f"p{len(sizes)}-{trial}-{j}.json"
                    path.write_text(json.dumps(doc))
                    docs.append(doc)
                    paths.append(str(path))
                for payoff in ("min", "prod", "luk"):
                    for tensor in ("min", "prod", "luk"):
                        for fmt in ("text", "json"):
                            want, verdict = _nash_output_by_swaps(
                                game_doc, docs, payoff, tensor, numeric, fmt
                            )
                            code = main([
                                "nash-verify", "--game", str(game_path),
                                "--profile", *paths,
                                "--payoff-tnorm", payoff, "--tensor-tnorm", tensor,
                                "--numeric", numeric, "--format", fmt,
                            ])
                            assert capsys.readouterr().out == want
                            assert code == (0 if verdict else 1)
                            runs += 1
        assert runs == 3 * 3 * 9 * 2


class TestReproduce:
    def test_all_checks_pass(self, capsys):
        code = main(["reproduce-paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "14 checks, 14 passed" in out
        assert "FAIL" not in out

    def test_json_report(self, capsys):
        code = main(["reproduce-paper", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 14
        assert all(c["passed"] for c in doc["checks"])

    def test_float_mode(self, capsys):
        code = main(["reproduce-paper", "--numeric", "float"])
        assert code == 0
        assert "14 checks, 14 passed" in capsys.readouterr().out


class TestEntryPoints:
    def test_module_runs_as_a_program(self):
        src = str(Path(fuzzygames.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "fuzzygames", "reproduce-paper", "--format", "json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["passed"] is True

    def test_run_exits_with_the_code_of_main(self, tmp_path, capsys, monkeypatch):
        absent = str(tmp_path / "absent.json")
        monkeypatch.setattr(
            sys,
            "argv",
            ["fuzzygames", "integrate", "--function", absent,
             "--capacity", absent, "--tnorm", "min"],
        )
        with pytest.raises(SystemExit) as err:
            cli.run()
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(
            [
                "integrate",
                "--function", str(tmp_path / "absent.json"),
                "--capacity", str(tmp_path / "alsoabsent.json"),
                "--tnorm", "min",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_tnorm(self, files, capsys):
        code = main(
            [
                "integrate",
                "--function", files["func"],
                "--capacity", files["belief1"],
                "--tnorm", "drastic",
            ]
        )
        assert code == 2
        assert "not continuous" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ([5, 6], r"strategies\[0\] must be a list of labels"),
            (["ab", "cd"], r"strategies\[0\] must be a list of labels"),
            ([["a|b", "a"], ["c", "b|c"]], r"'a\|b\|c'.*'\|' joins"),
        ],
        ids=["numbers", "strings", "pipe-collision"],
    )
    def test_bad_strategies_exit_two(self, tmp_path, capsys, strategies, message):
        p = tmp_path / "game.json"
        p.write_text(json.dumps({"strategies": strategies, "payoffs": [{}, {}]}))
        code = main(
            [
                "search",
                "--game", str(p),
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 2
        assert re.search(message, capsys.readouterr().err)

    def test_string_players_field_exits_two(self, tmp_path, capsys):
        p = tmp_path / "game.json"
        p.write_text(json.dumps(dict(GAME1, players="2")))
        code = main(
            [
                "search",
                "--game", str(p),
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 2
        assert "'players' must be an integer, got '2'" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e400", "NaN", "Infinity"])
    def test_non_finite_payoff_exits_two_with_its_location(
        self, tmp_path, capsys, text
    ):
        p = tmp_path / "game.json"
        p.write_text(json.dumps(GAME1).replace('"b,b": "1/2"', f'"b,b": {text}'))
        code = main(
            [
                "search",
                "--game", str(p),
                "--payoff-tnorm", "min",
                "--tensor-tnorm", "min",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert re.search(r"payoffs\[0\] at 'b,b': malformed fraction (inf|nan)", err)

    def test_malformed_game_file(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{")
        code = main(
            [
                "verify",
                "--game", str(p),
                "--beliefs", str(p), str(p),
                "--payoff-tnorm", "min",
            ]
        )
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


# Every subcommand's exact output, in both formats, on the files fixture.
# DIR stands for the fixture's directory; the tensor-general text view is the
# same indented dump that tensor-density pins.
PINNED_RUNS = {
    "integrate-function": (
        "integrate --function {func} --capacity {belief1} --tnorm min"
    ),
    "integrate-game": "integrate --game {game1} --capacity {joint} --tnorm prod",
    "integrate-player": (
        "integrate --game {game1} --capacity {joint} --tnorm min --player 2"
    ),
    "integrate-player-without-game": (
        "integrate --function {func} --capacity {belief1} --tnorm min --player 1"
    ),
    "tensor-density": "tensor --capacities {belief1} {top} --tnorm prod",
    "tensor-general": (
        "tensor --capacities {belief1} {belief1} --tnorm min --form general"
    ),
    "tensor-out": (
        "tensor --capacities {belief1} {top} --tnorm luk --out {dir}/tensor.json"
    ),
    "tensor-one-capacity": "tensor --capacities {belief1} --tnorm min",
    "tensor-density-form-necessity": (
        "tensor --capacities {nec} {belief1} --tnorm min --form density"
    ),
    "best-response": (
        "best-response --game {game1} --player 1 --belief {belief1} --tnorm min"
    ),
    "verify-pass": (
        "verify --game {game1} --beliefs {belief1} {belief1} --payoff-tnorm min"
    ),
    "verify-fail": (
        "verify --game {game1} --beliefs {belief1} {belief1} --payoff-tnorm prod"
    ),
    "verify-float": (
        "verify --game {game1} --beliefs {belief1} {top} --payoff-tnorm "
        "prod --numeric float"
    ),
    "search-indicator": "search --game {game1} --payoff-tnorm min --tensor-tnorm min",
    "search-necessity": (
        "search --game {game1} --payoff-tnorm prod --tensor-tnorm luk "
        "--mode necessity"
    ),
    "search-empty": "search --game {stubborn} --payoff-tnorm min --tensor-tnorm min",
    "search-bad-mode": (
        "search --game {game1} --payoff-tnorm min --tensor-tnorm min --mode bogus"
    ),
    "nash-verify-pass": (
        "nash-verify --game {game2} --profile {top} {top} --payoff-tnorm "
        "min --tensor-tnorm luk"
    ),
    "nash-verify-float": (
        "nash-verify --game {game2} --profile {belief1} {top} "
        "--payoff-tnorm prod --tensor-tnorm min --numeric float"
    ),
    "reproduce-paper": "reproduce-paper",
}
PINNED_OUTPUT = {
    ("integrate-function", "text"): ("1/2\n", "", 0),
    ("integrate-function", "json"): ('{"value": "1/2"}\n', "", 0),
    ("integrate-game", "text"): ("player 1: 1/2\nplayer 2: 1/4\n", "", 0),
    ("integrate-game", "json"): ('{"player 1": "1/2", "player 2": "1/4"}\n', "", 0),
    ("integrate-player", "text"): ("player 2: 1/2\n", "", 0),
    ("integrate-player", "json"): ('{"player 2": "1/2"}\n', "", 0),
    ("integrate-player-without-game", "text"): (
        "",
        "error: --player only applies with --game\n",
        2,
    ),
    ("integrate-player-without-game", "json"): (
        "",
        "error: --player only applies with --game\n",
        2,
    ),
    ("tensor-density", "text"): (
        (
            "{\n"
            '  "space": [\n'
            '    "a|a",\n'
            '    "a|b",\n'
            '    "b|a",\n'
            '    "b|b"\n'
            "  ],\n"
            '  "kind": "possibility",\n'
            '  "density": {\n'
            '    "a|a": "1",\n'
            '    "a|b": "1",\n'
            '    "b|a": "1/2",\n'
            '    "b|b": "1/2"\n'
            "  }\n"
            "}\n"
        ),
        "",
        0,
    ),
    ("tensor-density", "json"): (
        (
            '{"space": ["a|a", "a|b", "b|a", "b|b"], "kind": "possibility", '
            '"density": {"a|a": "1", "a|b": "1", "b|a": "1/2", '
            '"b|b": "1/2"}}\n'
        ),
        "",
        0,
    ),
    ("tensor-general", "json"): (
        (
            '{"space": ["a|a", "a|b", "b|a", "b|b"], "kind": "general", '
            '"values": {"": "0", "a|a": "1", "a|b": "1/2", "a|a,a|b": "1", '
            '"b|a": "1/2", "a|a,b|a": "1", "a|b,b|a": "1/2", '
            '"a|a,a|b,b|a": "1", "b|b": "1/2", "a|a,b|b": "1", '
            '"a|b,b|b": "1/2", "a|a,a|b,b|b": "1", "b|a,b|b": "1/2", '
            '"a|a,b|a,b|b": "1", "a|b,b|a,b|b": "1/2", '
            '"a|a,a|b,b|a,b|b": "1"}}\n'
        ),
        "",
        0,
    ),
    ("tensor-out", "text"): ("wrote DIR/tensor.json\n", "", 0),
    ("tensor-out", "json"): ("wrote DIR/tensor.json\n", "", 0),
    ("tensor-one-capacity", "text"): (
        "",
        "error: tensor needs at least two capacities\n",
        2,
    ),
    ("tensor-one-capacity", "json"): (
        "",
        "error: tensor needs at least two capacities\n",
        2,
    ),
    ("tensor-density-form-necessity", "text"): (
        "",
        "error: density form needs possibility capacities; use --form general\n",
        2,
    ),
    ("tensor-density-form-necessity", "json"): (
        "",
        "error: density form needs possibility capacities; use --form general\n",
        2,
    ),
    ("best-response", "text"): ("a b\n", "", 0),
    ("best-response", "json"): ('{"player": 1, "best_responses": ["a", "b"]}\n', "", 0),
    ("verify-pass", "text"): (
        (
            "verdict: equilibrium\n"
            "player 1: best responses {a,b}, residual 0\n"
            "player 2: best responses {a,b}, residual 0\n"
        ),
        "",
        0,
    ),
    ("verify-pass", "json"): (
        (
            '{"verdict": true, "best_responses": [["a", "b"], ["a", "b"]], '
            '"residuals": ["0", "0"], "payoff_tnorm": "min", '
            '"tensor_tnorm": null}\n'
        ),
        "",
        0,
    ),
    ("verify-fail", "text"): (
        (
            "verdict: not an equilibrium\n"
            "player 1: best responses {a}, residual 1\n"
            "player 2: best responses {b}, residual 1/2\n"
        ),
        "",
        1,
    ),
    ("verify-fail", "json"): (
        (
            '{"verdict": false, "best_responses": [["a"], ["b"]], '
            '"residuals": ["1", "1/2"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": null}\n'
        ),
        "",
        1,
    ),
    ("verify-float", "text"): (
        (
            "verdict: not an equilibrium\n"
            "player 1: best responses {a}, residual 0\n"
            "player 2: best responses {a,b}, residual 1.0\n"
        ),
        "",
        1,
    ),
    ("verify-float", "json"): (
        (
            '{"verdict": false, "best_responses": [["a"], ["a", "b"]], '
            '"residuals": ["0", "1.0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": null}\n'
        ),
        "",
        1,
    ),
    ("search-indicator", "text"): (
        (
            "1 equilibrium profile(s), mode indicator\n"
            "  1. (1,1) x (1,1)\n"
        ),
        "",
        0,
    ),
    ("search-indicator", "json"): (
        (
            '{"mode": "indicator", "found": 1, '
            '"equilibria": [{"profile": [{"kind": "possibility", '
            '"density": {"a": "1", "b": "1"}}, {"kind": "possibility", '
            '"density": {"a": "1", "b": "1"}}], '
            '"certificate": {"verdict": true, "best_responses": [["a", "b"], '
            '["a", "b"]], "residuals": ["0", "0"], "payoff_tnorm": "min", '
            '"tensor_tnorm": "min"}}]}\n'
        ),
        "",
        0,
    ),
    ("search-necessity", "text"): (
        (
            "5 equilibrium profile(s), mode necessity\n"
            "  1. dual (0,1) x dual (1,1)\n"
            "  2. dual (1,0) x dual (1,1)\n"
            "  3. dual (1,1) x dual (0,1)\n"
            "  4. dual (1,1) x dual (1,0)\n"
            "  5. dual (1,1) x dual (1,1)\n"
        ),
        "",
        0,
    ),
    ("search-necessity", "json"): (
        (
            '{"mode": "necessity", "found": 5, '
            '"equilibria": [{"profile": [{"kind": "necessity", '
            '"density": {"a": "0", "b": "1"}}, {"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}], '
            '"certificate": {"verdict": true, "best_responses": [["a", "b"], '
            '["a"]], "residuals": ["0", "0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": "luk"}}, {"profile": [{"kind": "necessity", '
            '"density": {"a": "1", "b": "0"}}, {"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}], '
            '"certificate": {"verdict": true, "best_responses": [["a", "b"], '
            '["b"]], "residuals": ["0", "0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": "luk"}}, {"profile": [{"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}, {"kind": "necessity", '
            '"density": {"a": "0", "b": "1"}}], '
            '"certificate": {"verdict": true, "best_responses": [["b"], '
            '["a", "b"]], "residuals": ["0", "0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": "luk"}}, {"profile": [{"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}, {"kind": "necessity", '
            '"density": {"a": "1", "b": "0"}}], '
            '"certificate": {"verdict": true, "best_responses": [["a"], '
            '["a", "b"]], "residuals": ["0", "0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": "luk"}}, {"profile": [{"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}, {"kind": "necessity", '
            '"density": {"a": "1", "b": "1"}}], '
            '"certificate": {"verdict": true, "best_responses": [["a", "b"], '
            '["a", "b"]], "residuals": ["0", "0"], "payoff_tnorm": "prod", '
            '"tensor_tnorm": "luk"}}]}\n'
        ),
        "",
        0,
    ),
    ("search-empty", "text"): (
        (
            "no equilibrium found at this resolution (mode indicator); "
            "finer grids or the continuum are not ruled out\n"
        ),
        "",
        1,
    ),
    ("search-empty", "json"): (
        '{"mode": "indicator", "found": 0, "equilibria": []}\n',
        "",
        1,
    ),
    ("search-bad-mode", "text"): (
        "",
        (
            "error: unknown search mode 'bogus'; "
            "use indicator, grid:<g>, or necessity-indicator\n"
        ),
        2,
    ),
    ("search-bad-mode", "json"): (
        "",
        (
            "error: unknown search mode 'bogus'; "
            "use indicator, grid:<g>, or necessity-indicator\n"
        ),
        2,
    ),
    ("nash-verify-pass", "text"): (
        (
            "verdict: capacity equilibrium\n"
            "player 1: payoff 1, deviation bound 1, gap 0\n"
            "player 2: payoff 1, deviation bound 1, gap 0\n"
        ),
        "",
        0,
    ),
    ("nash-verify-pass", "json"): (
        (
            '{"verdict": true, "payoffs": ["1", "1"], '
            '"deviation_bounds": ["1", "1"], "gaps": ["0", "0"], '
            '"payoff_tnorm": "min", "tensor_tnorm": "luk"}\n'
        ),
        "",
        0,
    ),
    ("nash-verify-float", "text"): (
        (
            "verdict: capacity equilibrium\n"
            "player 1: payoff 1.0, deviation bound 1.0, gap 0.0\n"
            "player 2: payoff 1.0, deviation bound 1.0, gap 0.0\n"
        ),
        "",
        0,
    ),
    ("nash-verify-float", "json"): (
        (
            '{"verdict": true, "payoffs": ["1.0", "1.0"], '
            '"deviation_bounds": ["1.0", "1.0"], "gaps": ["0.0", "0.0"], '
            '"payoff_tnorm": "prod", "tensor_tnorm": "min"}\n'
        ),
        "",
        0,
    ),
    ("reproduce-paper", "text"): (
        (
            "game 1: expected payoff, player 1, a, min      expected              1/2"
            "  computed              1/2  pass\n"
            "game 1: expected payoff, player 1, b, min      expected              1/2"
            "  computed              1/2  pass\n"
            "game 1: best responses, player 1, min          expected            {a,b}"
            "  computed            {a,b}  pass\n"
            "game 1: best responses, player 2, min          expected            {a,b}"
            "  computed            {a,b}  pass\n"
            "game 1: equilibrium verdict, min               expected              yes"
            "  computed              yes  pass\n"
            "game 1: expected payoff, player 1, a, prod     expected              1/2"
            "  computed              1/2  pass\n"
            "game 1: expected payoff, player 1, b, prod     expected              1/4"
            "  computed              1/4  pass\n"
            "game 1: best responses, player 1, prod         expected              {a}"
            "  computed              {a}  pass\n"
            "game 1: verdict and player-2 residual, prod    expected no, residual 1/2"
            "  computed no, residual 1/2  pass\n"
            "game 2: expected payoff, player 1, a, min      expected                1"
            "  computed                1  pass\n"
            "game 2: expected payoff, player 1, b, min      expected              1/2"
            "  computed              1/2  pass\n"
            "game 2: best responses, player 1, min          expected              {a}"
            "  computed              {a}  pass\n"
            "game 2: capacity equilibrium verdict, min/min  expected              yes"
            "  computed              yes  pass\n"
            "game 2: equilibrium verdict, min               expected               no"
            "  computed               no  pass\n"
            "14 checks, 14 passed\n"
        ),
        "",
        0,
    ),
    ("reproduce-paper", "json"): (
        (
            '{"passed": true, "checks": [{"name": "game 1: expected payoff, '
            'player 1, a, min", "expected": "1/2", "computed": "1/2", '
            '"passed": true}, {"name": "game 1: expected payoff, player 1, '
            'b, min", "expected": "1/2", "computed": "1/2", "passed": true}, '
            '{"name": "game 1: best responses, player 1, min", '
            '"expected": "{a,b}", "computed": "{a,b}", "passed": true}, '
            '{"name": "game 1: best responses, player 2, min", '
            '"expected": "{a,b}", "computed": "{a,b}", "passed": true}, '
            '{"name": "game 1: equilibrium verdict, min", "expected": "yes", '
            '"computed": "yes", "passed": true}, '
            '{"name": "game 1: expected payoff, player 1, a, prod", '
            '"expected": "1/2", "computed": "1/2", "passed": true}, '
            '{"name": "game 1: expected payoff, player 1, b, prod", '
            '"expected": "1/4", "computed": "1/4", "passed": true}, '
            '{"name": "game 1: best responses, player 1, prod", '
            '"expected": "{a}", "computed": "{a}", "passed": true}, '
            '{"name": "game 1: verdict and player-2 residual, prod", '
            '"expected": "no, residual 1/2", "computed": "no, residual 1/2", '
            '"passed": true}, {"name": "game 2: expected payoff, player 1, '
            'a, min", "expected": "1", "computed": "1", "passed": true}, '
            '{"name": "game 2: expected payoff, player 1, b, min", '
            '"expected": "1/2", "computed": "1/2", "passed": true}, '
            '{"name": "game 2: best responses, player 1, min", '
            '"expected": "{a}", "computed": "{a}", "passed": true}, '
            '{"name": "game 2: capacity equilibrium verdict, min/min", '
            '"expected": "yes", "computed": "yes", "passed": true}, '
            '{"name": "game 2: equilibrium verdict, min", "expected": "no", '
            '"computed": "no", "passed": true}]}\n'
        ),
        "",
        0,
    ),
}


@pytest.mark.parametrize("run, fmt", list(PINNED_OUTPUT))
def test_pinned_output(files, capsys, run, fmt):
    argv = [token.format(**files) for token in PINNED_RUNS[run].split()]
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    out, err, expected_code = PINNED_OUTPUT[run, fmt]
    assert captured.out.replace(str(files["dir"]), "DIR") == out
    assert captured.err == err
    assert code == expected_code
