import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from fuzzygames import (
    Capacity,
    FiniteSpace,
    NecessityCapacity,
    PossibilityCapacity,
    dump_capacity,
    dump_function,
    dump_game,
    example_game_one,
    format_value,
    load_capacity,
    load_function,
    load_game,
    parse_unit,
    parse_value,
    same_capacity,
    save_json,
)
from conftest import random_capacity, random_game, random_possibility, random_space

H = Fraction(1, 2)

POSS_DOC = {
    "space": ["a", "b"],
    "kind": "possibility",
    "density": {"a": "1", "b": "1/2"},
}
GENERAL_DOC = {
    "space": ["a", "b"],
    "kind": "general",
    "values": {"": "0", "a": "1/2", "b": "0", "a,b": "1"},
}
GAME_DOC = {
    "players": 2,
    "strategies": [["a", "b"], ["a", "b"]],
    "payoffs": [
        {"a,a": "1/2", "a,b": "0", "b,a": "0", "b,b": "1/2"},
        {"a,a": "0", "a,b": "1/2", "b,a": "1/2", "b,b": "0"},
    ],
}


class TestScalars:
    def test_parse_value_forms(self):
        assert parse_value(1) == 1
        assert parse_value("1/2") == H
        assert parse_value("2/4") == H
        assert parse_value(" 3/4 ") == Fraction(3, 4)
        assert parse_value("0.5") == H
        assert parse_value(0.5) == H
        assert parse_value("0.1") == Fraction(1, 10)

    def test_parse_value_rejections(self):
        with pytest.raises(ValueError, match="booleans"):
            parse_value(True)
        with pytest.raises(ValueError, match="malformed"):
            parse_value("one half")
        with pytest.raises(ValueError, match="malformed"):
            parse_value("1/0")
        with pytest.raises(ValueError, match="expected"):
            parse_value(None)

    def test_parse_unit_range(self):
        assert parse_unit("1") == 1
        with pytest.raises(ValueError, match="payoff x.*outside"):
            parse_unit("3/2", "payoff x")
        with pytest.raises(ValueError, match="outside"):
            parse_unit("-1/2")

    def test_error_names_the_field(self):
        with pytest.raises(ValueError, match="density of 'b'"):
            load_capacity(
                {
                    "space": ["a", "b"],
                    "kind": "possibility",
                    "density": {"a": "1", "b": "oops"},
                }
            )

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "NaN", "Infinity"])
    def test_non_finite_json_numbers_name_the_field(self, text):
        raw = json.loads(text)
        where = "payoffs[0] at 'a,b'"
        with pytest.raises(ValueError, match=f"^{re.escape(where)}: malformed fraction"):
            parse_value(raw, where)

    def test_format_value(self):
        assert format_value(H) == "1/2"
        assert format_value(Fraction(2, 4)) == "1/2"
        assert format_value(1) == "1"
        assert format_value(0.5) == "0.5"


class TestCapacityFiles:
    def test_possibility_document(self):
        cap = load_capacity(POSS_DOC)
        assert isinstance(cap, PossibilityCapacity)
        assert cap.density == (1, H)

    def test_missing_density_defaults_to_zero(self):
        cap = load_capacity(
            {"space": ["a", "b"], "kind": "possibility", "density": {"a": "1"}}
        )
        assert cap.density == (1, 0)

    @pytest.mark.parametrize("kind", ["possibility", "necessity"])
    def test_float_mode_fills_left_out_labels_with_a_float_zero(self, kind):
        doc = {"space": ["a", "b"], "kind": kind, "density": {"a": "1"}}
        cap = load_capacity(doc, numeric="float")
        poss = cap.conjugate if kind == "necessity" else cap
        assert poss.density == (1.0, 0.0)
        assert all(isinstance(v, float) for v in poss.density)

    def test_unknown_density_label(self):
        with pytest.raises(ValueError, match="unknown labels"):
            load_capacity(
                {
                    "space": ["a", "b"],
                    "kind": "possibility",
                    "density": {"a": "1", "z": "1/2"},
                }
            )

    def test_necessity_document_stores_the_conjugate(self):
        cap = load_capacity(
            {
                "space": ["a", "b"],
                "kind": "necessity",
                "density": {"a": "1", "b": "1/2"},
            }
        )
        assert isinstance(cap, NecessityCapacity)
        assert cap.conjugate.density == (1, H)
        assert cap.value(0b01) == H
        assert cap.value(0b10) == 0

    def test_general_document(self):
        cap = load_capacity(GENERAL_DOC)
        assert isinstance(cap, Capacity)
        assert cap.values == (0, H, 0, 1)

    def test_general_key_order_is_free(self):
        doc = dict(GENERAL_DOC)
        doc["values"] = {"b,a": "1", "": "0", "a": "1/2", "b": "0"}
        cap = load_capacity(doc)
        assert cap.values == (0, H, 0, 1)

    def test_general_duplicate_subset(self):
        doc = dict(GENERAL_DOC)
        doc["values"] = {"": "0", "a": "1/2", "b": "0", "a,b": "1", "b,a": "1"}
        with pytest.raises(ValueError, match="twice"):
            load_capacity(doc)

    def test_general_missing_subsets(self):
        doc = dict(GENERAL_DOC)
        doc["values"] = {"": "0", "a,b": "1"}
        with pytest.raises(ValueError, match="misses 2 subsets"):
            load_capacity(doc)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            load_capacity({"space": ["a"], "kind": "probability", "values": {}})

    def test_bad_space(self):
        with pytest.raises(ValueError, match="space"):
            load_capacity({"kind": "possibility", "density": {}})

    def test_axioms_still_enforced(self):
        doc = dict(GENERAL_DOC)
        doc["values"] = {"": "0", "a": "1/2", "b": "3/4", "a,b": "1/4"}
        with pytest.raises(ValueError):
            load_capacity(doc)

    def test_round_trips(self, rng):
        for _ in range(8):
            space = random_space(rng, max_size=3)
            poss = random_possibility(space, rng)
            assert load_capacity(dump_capacity(poss)) == poss
            nec = poss.dual()
            again = load_capacity(dump_capacity(nec))
            assert isinstance(again, NecessityCapacity)
            assert again == nec
            gen = random_capacity(space, rng)
            back = load_capacity(dump_capacity(gen))
            assert isinstance(back, Capacity)
            assert same_capacity(gen, back)

    def test_fraction_strings_are_reduced(self):
        doc = dump_capacity(
            PossibilityCapacity(FiniteSpace(("a", "b")), (1, Fraction(2, 4)))
        )
        assert doc["density"]["b"] == "1/2"

    def test_float_mode(self):
        cap = load_capacity(POSS_DOC, numeric="float")
        assert cap.density == (1.0, 0.5)
        assert all(isinstance(v, float) for v in cap.density)
        with pytest.raises(ValueError, match="numeric mode"):
            load_capacity(POSS_DOC, numeric="decimal")


class TestGameFiles:
    def test_reference_document(self):
        game = load_game(GAME_DOC)
        assert game.payoffs == example_game_one().payoffs
        assert game.spaces == example_game_one().spaces

    def test_players_field_consistency(self):
        doc = dict(GAME_DOC)
        doc["players"] = 3
        with pytest.raises(ValueError, match="players"):
            load_game(doc)

    @pytest.mark.parametrize("players", ["2", 2.0, True, None])
    def test_players_field_must_be_an_integer(self, players):
        doc = dict(GAME_DOC)
        doc["players"] = players
        message = f"'players' must be an integer, got {players!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            load_game(doc)

    def test_players_field_optional(self):
        doc = dict(GAME_DOC)
        del doc["players"]
        assert load_game(doc).players == 2

    def test_payoff_table_count(self):
        doc = dict(GAME_DOC)
        doc["payoffs"] = doc["payoffs"][:1]
        with pytest.raises(ValueError, match="one table per player"):
            load_game(doc)

    def test_payoff_errors_name_the_entry(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["payoffs"][1]["b,b"] = "7/2"
        with pytest.raises(ValueError, match=r"payoffs\[1\] at 'b,b'"):
            load_game(doc)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("7/2", "'7/2' is outside [0,1]"),
            ("x/y", "malformed fraction 'x/y'"),
            ("1/0", "malformed fraction '1/0'"),
            (1.5, "1.5 is outside [0,1]"),
            ([1], "expected a fraction string, got [1]"),  # unhashable
            ({"v": 1}, "expected a fraction string, got {'v': 1}"),
        ],
    )
    def test_a_repeated_bad_payoff_is_named_at_its_first_key(self, raw, message):
        # each distinct payoff is parsed once; a bad one repeated under
        # several keys, and in a later table, is refused at the first key
        doc = json.loads(json.dumps(GAME_DOC))
        for i, key in ((0, "a,b"), (0, "b,b"), (1, "a,a")):
            doc["payoffs"][i][key] = raw
        with pytest.raises(ValueError) as err:
            load_game(doc)
        assert str(err.value) == f"payoffs[0] at 'a,b': {message}"

    @pytest.mark.parametrize("numeric", ["rational", "float"])
    def test_true_is_not_taken_for_one(self, numeric):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["payoffs"][0]["a,a"] = 1
        doc["payoffs"][0]["b,b"] = True
        with pytest.raises(ValueError) as err:
            load_game(doc, numeric)
        assert str(err.value) == "payoffs[0] at 'b,b': booleans are not numbers"

    @pytest.mark.parametrize("numeric", ["rational", "float"])
    def test_shared_payoffs_equal_parsing_each_entry(self, numeric):
        # equal raws of different types (1, 1.0, "1", " 1 ", "2/2") each
        # parse on their own; the game equals parsing every entry anew
        rng = random.Random(97)
        raws = [0, 1, 1.0, "1", " 1 ", "2/2", "1/2", 0.5, "0.5", "3/4", 0.25, "0"]
        labels = [["a", "b", "c"], ["a", "b"], ["a", "b"]]
        keys = [",".join(k) for k in itertools.product(*labels)]
        doc = {
            "strategies": labels,
            "payoffs": [{k: rng.choice(raws) for k in keys} for _ in labels],
        }
        game = load_game(doc, numeric)
        for i, table in enumerate(doc["payoffs"]):
            for k, raw in table.items():
                want = parse_unit(raw)
                if numeric == "float":
                    want = float(want)
                got = game.payoff_at(i, k.split(","))
                assert (type(got), got) == (type(want), want)

    def test_unknown_payoff_label(self):
        doc = json.loads(json.dumps(GAME_DOC))
        doc["payoffs"][0]["z,a"] = "1/2"
        with pytest.raises(ValueError):
            load_game(doc)

    def test_round_trip(self, rng):
        for _ in range(5):
            game = random_game(rng)
            back = load_game(dump_game(game))
            assert back.spaces == game.spaces
            assert back.payoffs == game.payoffs

    def test_three_player_keys(self):
        game = random_game(random.Random(7), players=3)
        doc = dump_game(game)
        sample = next(iter(doc["payoffs"][0]))
        assert sample.count(",") == 2
        assert load_game(doc).payoffs == game.payoffs


NON_FINITE = ["1e400", "NaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_numbers_in_files_keep_their_location(text):
    game = json.loads(json.dumps(GAME_DOC).replace('"b,b": "1/2"', f'"b,b": {text}'))
    with pytest.raises(ValueError, match=r"^payoffs\[0\] at 'b,b': malformed fraction"):
        load_game(game)
    cap = json.loads(json.dumps(POSS_DOC).replace('"1/2"', text))
    with pytest.raises(ValueError, match=r"^density of 'b': malformed fraction"):
        load_capacity(cap)
    general = json.loads(json.dumps(GENERAL_DOC).replace('"1/2"', text))
    with pytest.raises(ValueError, match=r"^value of subset 'a': malformed fraction"):
        load_capacity(general)
    func = json.loads(f'{{"space": ["a", "b"], "values": {{"a": "1", "b": {text}}}}}')
    with pytest.raises(ValueError, match=r"^value of 'b': malformed fraction"):
        load_function(func)


class TestFunctionFiles:
    def test_document(self):
        f = load_function(
            {"space": ["a", "b"], "values": {"a": "1/2", "b": "0"}}
        )
        assert f.values == (H, 0)

    def test_all_points_required(self):
        with pytest.raises(ValueError, match="misses"):
            load_function({"space": ["a", "b"], "values": {"a": "1/2"}})

    def test_unknown_point(self):
        with pytest.raises(ValueError, match="unknown"):
            load_function(
                {"space": ["a"], "values": {"a": "1/2", "b": "0"}}
            )

    def test_round_trip(self, rng):
        from conftest import random_function

        f = random_function(random_space(rng), rng)
        assert load_function(dump_function(f)) == f


class TestPaths:
    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "cap.json"
        p.write_text(json.dumps(POSS_DOC))
        cap = load_capacity(str(p))
        assert cap.density == (1, H)

    def test_save_json(self, tmp_path):
        p = tmp_path / "out.json"
        save_json(POSS_DOC, p)
        text = p.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == POSS_DOC

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_capacity(str(p))

    def test_non_object_document(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_game(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_capacity(str(tmp_path / "absent.json"))
