import random
from fractions import Fraction
from itertools import product as iterproduct

import pytest
from hypothesis import given, settings, strategies as st

import fuzzygames.games as games_module
import fuzzygames.integrals as integrals_module
import fuzzygames.tensors as tensors_module

from fuzzygames import (
    BeliefProfile,
    Capacity,
    FiniteSpace,
    Game,
    LUKASIEWICZ,
    MINIMUM,
    NecessityCapacity,
    PRODUCT,
    PossibilityCapacity,
    SearchBudgetExceeded,
    StrategyProfile,
    TNorm,
    best_response,
    example_belief_one,
    example_belief_two,
    example_game_one,
    example_game_two,
    expected_payoff,
    greatest_capacity,
    induced_beliefs,
    mixed_expected_payoff,
    possibility_from_density,
    restricted_payoff,
    search_equilibria,
    tensor_n,
    verify_capacity_nash,
    verify_equilibrium,
)
from fuzzygames.integrals import FuzzyFunction, _level_maximum

from conftest import (
    brute_force_certificate,
    capacity_nash_by_swaps,
    hamacher,
    mixed_payoff_by_points,
    per_candidate_search,
    random_game,
    random_possibility,
    slices_by_coords,
)

H = Fraction(1, 2)
AB = FiniteSpace(("a", "b"))
TNORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]


def three_player_asymmetric():
    """Player 1 gets 2/5 for move a, and 1 only at (b, b, b); others get 1."""
    a_row = Fraction(2, 5)
    u1 = [a_row] * 4 + [0, 0, 0, 1]
    u2 = [1] * 8
    return Game((AB, AB, AB), (u1, u2, u2))


def three_player_profile(game):
    return StrategyProfile(
        game,
        (
            PossibilityCapacity(AB, (1, 0)),
            PossibilityCapacity(AB, (1, H)),
            PossibilityCapacity(AB, (1, H)),
        ),
    )


class TestGameConstruction:
    def test_mapping_payoffs(self):
        g = example_game_one()
        assert g.players == 2
        assert g.payoff_at(0, ("a", "a")) == H
        assert g.payoff_at(0, ("a", "b")) == 0
        assert g.payoff_at(1, ("b", "a")) == H
        assert g.payoff_at(1, (1, 1)) == 0

    def test_flat_payoffs(self):
        g = Game((AB, AB), ([H, 0, 0, H], [0, H, H, 0]))
        ref = example_game_one()
        assert g.payoffs == ref.payoffs

    def test_key_errors(self):
        with pytest.raises(ValueError, match="tuple"):
            Game((AB, AB), ({"aa": H, "ab": 0, "ba": 0, "bb": H}, [0] * 3 + [1]))
        with pytest.raises(ValueError, match="tuple"):
            Game((AB, AB), ({("a",): H}, [H, 0, 0, H]))

        class Doubled:
            # a mapping whose items repeat a key, which a dict literal cannot
            def keys(self):
                return [("a", "a")]

            def items(self):
                return [
                    (("a", "a"), 0), (("a", "a"), H),
                    (("a", "b"), 0), (("b", "a"), 0), (("b", "b"), H),
                ]

        with pytest.raises(ValueError, match="twice"):
            Game((AB, AB), ([H, 0, 0, H], Doubled()))

    def test_missing_and_range(self):
        with pytest.raises(ValueError, match="misses"):
            Game((AB, AB), ({("a", "a"): H}, [0, H, H, 0]))
        with pytest.raises(ValueError, match="outside"):
            Game((AB, AB), ([2, 0, 0, H], [0, H, H, 0]))
        with pytest.raises(ValueError, match="outside"):
            Game((AB, AB), ([1 + 5e-10, 0, 0, H], [0, H, H, 0]), tol=1e-9)
        with pytest.raises(ValueError, match="entries"):
            Game((AB, AB), ([H, 0, 0], [0, H, H, 0]))

    def test_range_error_names_the_player_and_the_point(self):
        with pytest.raises(
            ValueError,
            match=r"^payoff of player 1: value of 'b\|a' is 2, outside \[0,1\]$",
        ):
            Game((AB, AB), ([0, H, H, 0], [H, 0, 2, H]))
        table = {("a", "a"): -0.5, ("a", "b"): 0, ("b", "a"): 0, ("b", "b"): H}
        with pytest.raises(
            ValueError,
            match=r"^payoff of player 0: value of 'a\|a' is -0\.5, outside",
        ):
            Game((AB, AB), (table, [0, H, H, 0]))

    def test_needs_two_players(self):
        with pytest.raises(ValueError, match="two players"):
            Game((AB,), ([H, H],))

    def test_player_index_checked(self):
        g = example_game_one()
        with pytest.raises(ValueError, match="out of range"):
            g.payoff_at(2, ("a", "a"))
        with pytest.raises(ValueError, match="out of range"):
            g.opponent_space(-1)

    @pytest.mark.parametrize("ast", TNORMS, ids=lambda t: t.name)
    def test_opponent_spaces_are_the_tensor_spaces(self, ast):
        # beliefs built by tensor_n live on the very space object the game
        # holds, so checking a belief's space takes the identity shortcut
        spaces = (AB, FiniteSpace(("x", "y")), FiniteSpace(("u", "v", "w")))
        game = Game(spaces, [[1] * 12] * 3)
        caps = [PossibilityCapacity(s, (1,) + (H,) * (s.size - 1)) for s in spaces]
        for i in range(3):
            others = [c for j, c in enumerate(caps) if j != i]
            for factors in (others, [c.dual() for c in others]):
                belief = tensor_n(factors, ast)
                assert game.opponent_space(i).space is belief.space


class TestRestriction:
    def test_two_player_slices(self):
        g = example_game_one()
        f = restricted_payoff(g, 0, "a")
        assert f.space == AB
        assert f.values == (H, 0)
        assert restricted_payoff(g, 0, "b").values == (0, H)
        assert restricted_payoff(g, 1, "a").values == (0, H)
        assert restricted_payoff(g, 1, 1).values == (H, 0)

    def test_three_player_slices_keep_opponent_order(self):
        g = three_player_asymmetric()
        # player 2's slice runs over (x1, x3) ascending with x2 fixed
        f = restricted_payoff(g, 1, "a")
        assert f.space.labels == ("a|a", "a|b", "b|a", "b|b")
        g2 = Game(
            (AB, AB, AB),
            (
                [0] * 7 + [1],
                [Fraction(k, 8) for k in range(8)],
                [0] * 7 + [1],
            ),
        )
        f2 = restricted_payoff(g2, 1, "b")
        # player 2's own table at (x1, x2, x3) with x2 = b: indices 2, 3, 6, 7
        assert f2.values == (
            Fraction(2, 8), Fraction(3, 8), Fraction(6, 8), Fraction(7, 8),
        )

    def test_unknown_strategy(self):
        g = example_game_one()
        with pytest.raises(ValueError):
            restricted_payoff(g, 0, "z")
        with pytest.raises(ValueError):
            restricted_payoff(g, 0, 5)


class TestExpectedPayoff:
    def test_reference_values_min(self):
        g = example_game_one()
        b = example_belief_one()
        assert expected_payoff(g, 0, "a", b, MINIMUM) == H
        assert expected_payoff(g, 0, "b", b, MINIMUM) == H
        assert expected_payoff(g, 1, "a", b, MINIMUM) == H
        assert expected_payoff(g, 1, "b", b, MINIMUM) == H

    def test_reference_values_prod(self):
        g = example_game_one()
        b = example_belief_one()
        assert expected_payoff(g, 0, "a", b, PRODUCT) == H
        assert expected_payoff(g, 0, "b", b, PRODUCT) == Fraction(1, 4)

    def test_second_game_values(self):
        g = example_game_two()
        b = example_belief_two()
        assert expected_payoff(g, 0, "a", b, MINIMUM) == 1
        assert expected_payoff(g, 0, "b", b, MINIMUM) == H

    def test_belief_space_is_checked(self):
        g = example_game_one()
        bad = possibility_from_density(FiniteSpace(("x", "y")), {"x": 1})
        with pytest.raises(ValueError, match="belief"):
            expected_payoff(g, 0, "a", bad, MINIMUM)


class TestBestResponse:
    def test_reference_sets(self):
        g = example_game_one()
        b = example_belief_one()
        assert best_response(g, 0, b, MINIMUM) == ("a", "b")
        assert best_response(g, 0, b, PRODUCT) == ("a",)
        assert best_response(g, 0, b, LUKASIEWICZ) == ("a",)
        g2 = example_game_two()
        assert best_response(g2, 0, example_belief_two(), MINIMUM) == ("a",)

    def test_tolerance_widens_the_set(self):
        g = example_game_one()
        b = example_belief_one()
        # under prod the scores are 1/2 and 1/4; tol 1/4 readmits b
        assert best_response(g, 0, b, PRODUCT, tol=Fraction(1, 4)) == ("a", "b")


class TestProfiles:
    def test_belief_profile_validation(self):
        g = example_game_one()
        b = example_belief_one()
        BeliefProfile(g, (b, b))
        with pytest.raises(ValueError, match="beliefs"):
            BeliefProfile(g, (b,))
        bad = possibility_from_density(FiniteSpace(("x",)), {"x": 1})
        with pytest.raises(ValueError, match="lives on"):
            BeliefProfile(g, (b, bad))

    def test_strategy_profile_validation(self):
        g = example_game_one()
        p = example_belief_one()
        prof = StrategyProfile(g, (p, p))
        assert prof.all_possibility()
        assert prof[0] is p
        assert list(prof) == [p, p]
        with pytest.raises(ValueError, match="capacities"):
            StrategyProfile(g, (p,))
        mixed = StrategyProfile(g, (p, p.dual()))
        assert not mixed.all_possibility()


class TestVerifyEquilibrium:
    def test_first_game_min_verdict(self):
        g = example_game_one()
        b = example_belief_one()
        cert = verify_equilibrium(g, (b, b), MINIMUM)
        assert cert.verdict is True
        assert cert.residuals == (0, 0)
        assert cert.best_responses == (("a", "b"), ("a", "b"))
        assert cert.payoff_tnorm == "min"
        assert cert.tensor_tnorm is None

    def test_first_game_prod_verdict(self):
        g = example_game_one()
        b = example_belief_one()
        cert = verify_equilibrium(g, (b, b), PRODUCT)
        assert cert.verdict is False
        assert cert.best_responses == (("a",), ("b",))
        assert cert.residuals == (1, H)

    def test_second_game_min_verdict(self):
        g = example_game_two()
        b = example_belief_two()
        cert = verify_equilibrium(g, (b, b), MINIMUM)
        assert cert.verdict is False
        assert cert.best_responses[0] == ("a",)

    def test_agrees_with_raw_density_recomputation(self, rng):
        for _ in range(12):
            g = random_game(rng, players=2)
            caps = [
                possibility_from_density(
                    s, _random_density(rng, s.size)
                )
                for s in g.spaces
            ]
            profile = StrategyProfile(g, caps)
            for star in TNORMS:
                for ast in TNORMS:
                    beliefs = induced_beliefs(profile, ast)
                    cert = verify_equilibrium(g, beliefs, star)
                    verdict, responses, residuals = brute_force_certificate(
                        g, caps, star, ast
                    )
                    assert cert.verdict == verdict
                    assert cert.best_responses == responses
                    assert cert.residuals == residuals

    def test_three_player_recomputation(self, rng):
        for _ in range(4):
            g = random_game(rng, players=3, sizes=[2, 2, 2])
            caps = [
                possibility_from_density(s, _random_density(rng, s.size))
                for s in g.spaces
            ]
            profile = StrategyProfile(g, caps)
            for star, ast in ((MINIMUM, LUKASIEWICZ), (PRODUCT, PRODUCT)):
                beliefs = induced_beliefs(profile, ast)
                cert = verify_equilibrium(g, beliefs, star)
                verdict, responses, residuals = brute_force_certificate(
                    g, caps, star, ast
                )
                assert cert.verdict == verdict
                assert cert.best_responses == responses
                assert cert.residuals == residuals


def _random_density(rng, size):
    d = [Fraction(rng.randint(0, 4), 4) for _ in range(size)]
    d[rng.randrange(size)] = Fraction(1)
    return d


class TestInducedBeliefs:
    def test_two_player_beliefs_are_the_other_capacity(self):
        g = example_game_one()
        p1 = possibility_from_density(AB, {"a": 1, "b": H})
        p2 = possibility_from_density(AB, {"a": H, "b": 1})
        beliefs = induced_beliefs(StrategyProfile(g, (p1, p2)), MINIMUM)
        assert beliefs[0] is p2
        assert beliefs[1] is p1

    def test_three_player_beliefs_fold_the_others(self):
        g = three_player_asymmetric()
        d1, d2, d3 = (1, 0), (1, H), (1, Fraction(1, 4))
        caps = [PossibilityCapacity(AB, d) for d in (d1, d2, d3)]
        for ast in TNORMS:
            beliefs = induced_beliefs(StrategyProfile(g, caps), ast)
            # player 1 sees (x2, x3), players ascending with 1 removed
            expect = tuple(
                ast(a, b) for a in d2 for b in d3
            )
            assert beliefs[0].density == expect
            assert beliefs[0].space.labels == ("a|a", "a|b", "b|a", "b|b")
            assert beliefs[1].density == tuple(
                ast(a, b) for a in d1 for b in d3
            )
            assert beliefs[2].density == tuple(
                ast(a, b) for a in d1 for b in d2
            )


class TestSearch:
    def test_indicator_search_on_the_first_game(self):
        g = example_game_one()
        for star in TNORMS:
            found = search_equilibria(g, star, MINIMUM, mode="indicator")
            # indicator beliefs are 0/1, every t-norm acts the same there:
            # only the mutual full-support profile survives
            assert len(found) == 1
            profile, cert = found[0]
            assert profile[0].density == (1, 1)
            assert profile[1].density == (1, 1)
            assert cert.verdict is True
            assert cert.tensor_tnorm == "min"
            assert cert.payoff_tnorm == star.name

    def test_grid_search_matches_exhaustive_recomputation(self):
        g = example_game_one()
        found = search_equilibria(g, MINIMUM, MINIMUM, mode="grid:2")
        found_densities = {
            (p[0].density, p[1].density) for p, _ in found
        }
        assert (
            (Fraction(1), H),
            (Fraction(1), H),
        ) in found_densities
        # independent completeness check over all 25 candidate pairs
        levels = [
            (0, Fraction(1)), (H, Fraction(1)), (Fraction(1), 0),
            (Fraction(1), H), (Fraction(1), Fraction(1)),
        ]
        expected = set()
        for d1, d2 in iterproduct(levels, levels):
            caps = [
                PossibilityCapacity(AB, d1), PossibilityCapacity(AB, d2)
            ]
            verdict, _, _ = brute_force_certificate(g, caps, MINIMUM, MINIMUM)
            if verdict:
                expected.add((tuple(d1), tuple(d2)))
        assert found_densities == expected
        assert len(found) == 9

    def test_search_is_deterministic(self):
        g = example_game_one()
        a = search_equilibria(g, MINIMUM, MINIMUM, mode="grid:2")
        b = search_equilibria(g, MINIMUM, MINIMUM, mode="grid:2")
        assert [
            (p[0].density, p[1].density) for p, _ in a
        ] == [
            (p[0].density, p[1].density) for p, _ in b
        ]
        assert [c for _, c in a] == [c for _, c in b]

    def test_necessity_indicator_search(self):
        g = example_game_one()
        found = search_equilibria(g, MINIMUM, MINIMUM, mode="necessity-indicator")
        assert len(found) == 5
        least_density = (Fraction(1), Fraction(1))
        for profile, cert in found:
            assert cert.verdict is True
            assert all(isinstance(c, NecessityCapacity) for c in profile)
            # every surviving profile gives at least one player the vacuous
            # belief (the dual of the full-support possibility)
            assert any(
                c.conjugate.density == least_density for c in profile
            )

    def test_necessity_alias(self):
        g = example_game_one()
        a = search_equilibria(g, MINIMUM, MINIMUM, mode="necessity")
        b = search_equilibria(g, MINIMUM, MINIMUM, mode="necessity-indicator")
        assert len(a) == len(b)

    def test_budget_refusal_is_total(self):
        g = example_game_one()
        with pytest.raises(SearchBudgetExceeded) as err:
            search_equilibria(g, MINIMUM, MINIMUM, mode="indicator", budget=3)
        assert err.value.candidates == 9
        assert err.value.budget == 3

    def test_budget_is_checked_before_candidates_are_listed(self):
        # closed-form counts: (g+1)^n - g^n per player for grid:g, and
        # 2^n - 1 for indicator and necessity; listing them would not end
        g = example_game_one()
        steps = 99_999_999
        per_player = (steps + 1) ** 2 - steps ** 2
        with pytest.raises(SearchBudgetExceeded) as err:
            search_equilibria(g, MINIMUM, MINIMUM, mode=f"grid:{steps}")
        assert err.value.candidates == per_player ** 2
        wide = FiniteSpace(tuple(f"s{k}" for k in range(30)))
        narrow = FiniteSpace(("a", "b"))
        game = Game([wide, narrow], [[0] * 60, [0] * 60])
        for mode in ("indicator", "necessity"):
            with pytest.raises(SearchBudgetExceeded) as err:
                search_equilibria(game, MINIMUM, MINIMUM, mode=mode)
            assert err.value.candidates == ((1 << 30) - 1) * 3

    @pytest.mark.parametrize("budget", [0, -1, 2.5, "9", True, None])
    def test_budget_must_be_a_positive_int(self, budget):
        g = example_game_one()
        for mode in ("indicator", "grid:2", "necessity"):
            with pytest.raises(ValueError, match="positive integer"):
                search_equilibria(g, MINIMUM, MINIMUM, mode=mode, budget=budget)
        # the smallest budget that holds the 9 candidates still runs
        assert len(search_equilibria(g, MINIMUM, MINIMUM, budget=9)) == 1

    def test_mode_errors(self):
        g = example_game_one()
        with pytest.raises(ValueError, match="unknown search mode"):
            search_equilibria(g, MINIMUM, MINIMUM, mode="bogus")
        with pytest.raises(ValueError, match="grid"):
            search_equilibria(g, MINIMUM, MINIMUM, mode="grid:x")
        with pytest.raises(ValueError, match="at least one step"):
            search_equilibria(g, MINIMUM, MINIMUM, mode="grid:0")
        # int() takes these; the step count is ASCII digits only
        for mode in ("grid:1_0", "grid:+2", "grid: 2", "grid:\u0662", "grid:-1"):
            with pytest.raises(ValueError, match="bad grid mode"):
                search_equilibria(g, MINIMUM, MINIMUM, mode=mode)


class TestMixedPayoffs:
    def test_frozen_first_game_value(self):
        g = example_game_one()
        p = PossibilityCapacity(AB, (1, H))
        profile = StrategyProfile(g, (p, p))
        assert mixed_expected_payoff(g, 0, profile, MINIMUM, MINIMUM) == H
        assert mixed_expected_payoff(g, 1, profile, MINIMUM, MINIMUM) == H

    def test_possibility_only(self):
        g = example_game_one()
        p = PossibilityCapacity(AB, (1, H))
        profile = StrategyProfile(g, (p, p.dual()))
        with pytest.raises(ValueError, match="possibility"):
            mixed_expected_payoff(g, 0, profile, MINIMUM, MINIMUM)

    def test_joint_belief_is_the_profile_tensor(self, rng):
        g = random_game(rng, players=2, sizes=[2, 2])
        caps = [
            possibility_from_density(s, _random_density(rng, s.size))
            for s in g.spaces
        ]
        profile = StrategyProfile(g, caps)
        for star in TNORMS:
            for ast in TNORMS:
                joint = tensor_n(caps, ast)
                direct = max(
                    star(d, v)
                    for d, v in zip(joint.density, g.payoffs[0])
                )
                assert mixed_expected_payoff(
                    g, 0, profile, star, ast
                ) == direct


class TestCapacityNash:
    def test_second_game_reference(self):
        g = example_game_two()
        profile = StrategyProfile(
            g, (greatest_capacity(AB), greatest_capacity(AB))
        )
        report = verify_capacity_nash(g, profile, MINIMUM, MINIMUM)
        assert report.verdict is True
        assert report.gaps == (0, 0)
        assert report.payoffs == (1, 1)

    def test_first_game_half_profile(self):
        g = example_game_one()
        p = PossibilityCapacity(AB, (1, H))
        report = verify_capacity_nash(
            g, StrategyProfile(g, (p, p)), MINIMUM, MINIMUM
        )
        assert report.verdict is True
        assert report.payoffs == (H, H)
        assert report.deviation_bounds == (H, H)

    def test_gaps_are_never_negative(self, rng):
        for _ in range(10):
            g = random_game(rng, players=2)
            caps = [
                possibility_from_density(s, _random_density(rng, s.size))
                for s in g.spaces
            ]
            profile = StrategyProfile(g, caps)
            for star in TNORMS:
                for ast in TNORMS:
                    report = verify_capacity_nash(g, profile, star, ast)
                    assert all(gap >= 0 for gap in report.gaps)
                    assert report.verdict == all(
                        gap == 0 for gap in report.gaps
                    )

    def test_tnorm_names_recorded(self):
        g = example_game_two()
        profile = StrategyProfile(
            g, (greatest_capacity(AB), greatest_capacity(AB))
        )
        report = verify_capacity_nash(g, profile, PRODUCT, LUKASIEWICZ)
        assert report.payoff_tnorm == "prod"
        assert report.tensor_tnorm == "luk"


class TestThreePlayerCounterexample:
    """A profile that is an equilibrium under one pairing of t-norms yet
    fails the capacity equilibrium check under another tensor t-norm.

    With three players the induced beliefs depend on the tensor t-norm, so
    equilibrium under (min, luk) does not transfer to the (min, min) check:
    the matched pairing passes while the mismatched one leaves a gap."""

    def test_equilibrium_under_lukasiewicz_tensor(self):
        g = three_player_asymmetric()
        profile = three_player_profile(g)
        beliefs = induced_beliefs(profile, LUKASIEWICZ)
        cert = verify_equilibrium(
            g, beliefs, MINIMUM, tensor_tnorm=LUKASIEWICZ.name
        )
        assert cert.verdict is True
        assert cert.residuals == (0, 0, 0)
        assert cert.best_responses == (("a",), ("a", "b"), ("a", "b"))

    def test_not_an_equilibrium_under_min_tensor(self):
        g = three_player_asymmetric()
        profile = three_player_profile(g)
        cert = verify_equilibrium(g, induced_beliefs(profile, MINIMUM), MINIMUM)
        assert cert.verdict is False
        assert cert.best_responses[0] == ("b",)

    def test_matched_nash_check_passes(self):
        g = three_player_asymmetric()
        profile = three_player_profile(g)
        report = verify_capacity_nash(g, profile, MINIMUM, LUKASIEWICZ)
        assert report.verdict is True
        assert report.gaps == (0, 0, 0)
        assert report.payoffs[0] == Fraction(2, 5)

    def test_mismatched_nash_check_fails(self):
        g = three_player_asymmetric()
        profile = three_player_profile(g)
        report = verify_capacity_nash(g, profile, MINIMUM, MINIMUM)
        assert report.verdict is False
        assert report.gaps == (Fraction(1, 10), 0, 0)
        assert report.payoffs[0] == Fraction(2, 5)
        assert report.deviation_bounds[0] == H


class TestTwoPlayerTensorIndependence:
    def test_two_player_equilibria_ignore_the_tensor_tnorm(self, rng):
        # with one opponent there is nothing to fold, so the induced belief
        # and hence the certificate cannot depend on the tensor t-norm
        for _ in range(6):
            g = random_game(rng, players=2)
            for star in TNORMS:
                results = [
                    {
                        (p[0].density, p[1].density)
                        for p, _ in search_equilibria(g, star, ast)
                    }
                    for ast in TNORMS
                ]
                assert results[0] == results[1] == results[2]

    def test_found_equilibria_pass_every_matched_check(self, rng):
        for _ in range(5):
            g = random_game(rng, players=2)
            for star in TNORMS:
                for ast in TNORMS:
                    for profile, _ in search_equilibria(g, star, ast):
                        report = verify_capacity_nash(g, profile, star, ast)
                        assert report.verdict is True


class TestFloatMode:
    def test_float_verdicts_match_rational(self):
        g = example_game_one()
        fg = Game(
            g.spaces,
            [[float(v) for v in t] for t in g.payoffs],
            tol=1e-9,
        )
        fb = PossibilityCapacity(AB, (1.0, 0.5), tol=1e-9)
        cert_min = verify_equilibrium(fg, (fb, fb), MINIMUM, tol=1e-9)
        assert cert_min.verdict is True
        cert_prod = verify_equilibrium(fg, (fb, fb), PRODUCT, tol=1e-9)
        assert cert_prod.verdict is False
        assert abs(cert_prod.residuals[1] - 0.5) <= 1e-9


def _float_game(g):
    return Game(g.spaces, [[float(v) for v in t] for t in g.payoffs], tol=1e-9)


def _same_types(found, expected):
    for (p, c), (q, d) in zip(found, expected):
        for a, b in zip(p, q):
            density = a.density if a.kind == "possibility" else a.conjugate.density
            ref = b.density if b.kind == "possibility" else b.conjugate.density
            assert list(map(type, density)) == list(map(type, ref))
        assert list(map(type, c.residuals)) == list(map(type, d.residuals))


def _same_search(game, star, ast, mode, tol):
    found = search_equilibria(game, star, ast, mode=mode, tol=tol)
    expected = per_candidate_search(game, star, ast, mode=mode, tol=tol)
    assert [(p.capacities, c) for p, c in found] == [
        (p.capacities, c) for p, c in expected
    ]
    _same_types(found, expected)
    return len(found)


class TestFactoredSearch:
    """Every search mode returns what the per-candidate loop returns.

    Same profiles, certificates, value types and order; every mode runs
    the one memoized loop, grid:g on folded densities, indicator and
    necessity on orders alone.
    """

    ORDER_ONLY = [(2, 2), (2, 3), (3, 3), (1, 3), (2, 2, 2), (2, 2, 3),
                  (3, 1, 2), (2, 2, 2, 2)]
    SIZES = {
        "indicator": ORDER_ONLY,
        "grid:2": [(2, 2), (2, 3), (3, 3), (2, 2, 2)],
        "necessity": ORDER_ONLY,
    }

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    @pytest.mark.parametrize("mode", ["indicator", "grid:2", "necessity"])
    def test_matches_the_per_candidate_loop(self, mode, numeric):
        # sixths make float payoffs inexact, so tol = 1e-9 is exercised
        rng = random.Random(41)
        found = 0
        for sizes in self.SIZES[mode]:
            g = random_game(rng, players=len(sizes), sizes=list(sizes), denom=6)
            tol = 0
            if numeric == "float":
                g, tol = _float_game(g), 1e-9
            for star in TNORMS:
                for ast in TNORMS:
                    found += _same_search(g, star, ast, mode, tol)
        assert found > 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_candidate_loop_on_small_games(self, data):
        players = data.draw(st.integers(2, 4), label="players")
        top = 3 if players == 2 else 2
        sizes = data.draw(
            st.lists(st.integers(1, top), min_size=players, max_size=players)
        )
        spaces = [FiniteSpace(tuple("abc"[:n])) for n in sizes]
        total = 1
        for n in sizes:
            total *= n
        unit = st.sampled_from([Fraction(k, 4) for k in range(5)])
        payoffs = data.draw(
            st.lists(st.lists(unit, min_size=total, max_size=total),
                     min_size=players, max_size=players)
        )
        g = Game(spaces, payoffs)
        tol = 0
        if data.draw(st.booleans(), label="float"):
            g, tol = _float_game(g), 1e-9
        modes = ["indicator", "necessity"]
        if players < 4:
            modes.append("grid:2")
        mode = data.draw(st.sampled_from(modes))
        star = data.draw(st.sampled_from(TNORMS))
        ast = data.draw(st.sampled_from(TNORMS))
        _same_search(g, star, ast, mode, tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 2), 1])
    def test_wide_tolerances_match_the_per_candidate_loop(self, tol):
        # at tol >= 1/g a grid density of k/g <= tol leaves no residual above
        # tol, and at tol >= 1 every strategy is a best response
        rng = random.Random(43)
        for sizes in [(2, 2), (2, 3), (2, 2, 2)]:
            g = random_game(rng, players=len(sizes), sizes=list(sizes), denom=4)
            for mode in ("indicator", "grid:2", "necessity"):
                for star, ast in ((MINIMUM, PRODUCT), (LUKASIEWICZ, LUKASIEWICZ)):
                    _same_search(g, star, ast, mode, tol)

    @pytest.mark.parametrize("mode", ["indicator", "grid:2", "necessity"])
    def test_work_is_shared_across_candidates(self, monkeypatch, mode):
        # each player's belief and best responses are built once per
        # combination of opponent candidates, not once per candidate profile
        counts = {"integrals": 0, "tensors": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            games_module, "tnormed_integral",
            counting("integrals", games_module.tnormed_integral),
        )
        monkeypatch.setattr(
            games_module, "tensor_n", counting("tensors", games_module.tensor_n)
        )
        g = random_game(random.Random(7), players=3, sizes=[2, 2, 3])
        if mode == "grid:2":
            cands = [3**s.size - 2**s.size for s in g.spaces]
        else:
            cands = [2**s.size - 1 for s in g.spaces]
        search_equilibria(g, PRODUCT, LUKASIEWICZ, mode=mode)
        per_opponents = [cands[(i + 1) % 3] * cands[(i + 2) % 3] for i in range(3)]
        # per-candidate recomputation would build 3 * prod(cands) tensors
        assert sum(per_opponents) < 3 * cands[0] * cands[1] * cands[2]
        assert counts["tensors"] <= sum(per_opponents)
        assert counts["integrals"] <= sum(
            s.size * m for s, m in zip(g.spaces, per_opponents)
        )


class TestSupportSearch:
    """Every search runs on supports, masks and folded densities alone."""

    MODES = ["indicator", "necessity", "grid:2"]

    def _corpus(self, seed):
        rng = random.Random(seed)
        for sizes in TestFactoredSearch.ORDER_ONLY:
            yield random_game(rng, players=len(sizes), sizes=list(sizes), denom=6)

    @pytest.mark.parametrize("mode", MODES)
    def test_user_tnorms_give_the_same_values(self, mode):
        # the tensor route may give residuals 0.0 or Fraction(0) under a
        # user t-norm; the values agree, and the order-only search's are
        # int 0, while grid:2 folds the densities as the tensor route does
        ham = TNorm.from_function("hamacher", hamacher)
        # under grid:2 the oracle would take most of a second on the 2x2x3 game
        for g in list(self._corpus(53))[:5 if mode == "grid:2" else 6]:
            for star, ast in ((ham, MINIMUM), (PRODUCT, ham), (ham, ham)):
                got = search_equilibria(g, star, ast, mode=mode)
                ref = per_candidate_search(g, star, ast, mode=mode)
                assert [(p.capacities, c) for p, c in got] == [
                    (p.capacities, c) for p, c in ref
                ]
                if mode == "grid:2":
                    _same_types(got, ref)
                for _, cert in got:
                    assert cert.residuals == (0,) * g.players
                    if mode != "grid:2":
                        assert {type(r) for r in cert.residuals} == {int}
                    assert cert.payoff_tnorm == star.name
                    assert cert.tensor_tnorm == ast.name

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    @pytest.mark.parametrize("mode", MODES)
    def test_no_tensor_capacity_or_tnorm_call(self, monkeypatch, mode, numeric):
        counts = {}

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner in (games_module, tensors_module):
            counting(owner, "tensor_n")
        counting(tensors_module, "tensor_general")
        for owner in (games_module, integrals_module):
            counting(owner, "tnormed_integral")
        counting(TNorm, "__call__")
        counting(Capacity, "__init__")
        built = []
        init = PossibilityCapacity.__init__

        def possibility(self, space, density, tol=0):
            built.append((space, tuple(density)))
            init(self, space, density, tol)

        monkeypatch.setattr(PossibilityCapacity, "__init__", possibility)
        total = 0
        for g in self._corpus(59):
            tol = 0
            if numeric == "float":
                g, tol = _float_game(g), 1e-9
            for star in TNORMS:
                for ast in TNORMS:
                    built.clear()
                    found = search_equilibria(g, star, ast, mode=mode, tol=tol)
                    pairs = {(j, c) for p, _ in found for j, c in enumerate(p)}
                    assert len(built) <= len(pairs)
                    total += len(found)
        assert counts == {}
        assert total > 0


# ast calls of the prefix-shared fold in verify_capacity_nash: with
# Q_k = |S_0| ... |S_(k-1)|, sum_(k>=2) Q_k for the profile and for players 0
# and 1, and sum_(k>i) Q_k for each later player i.  Folding the n + 1
# tensors point by point takes (n + 1)(n - 1) Q_n calls: 18, 96, 180, 3840.
_PREFIX_FOLD_CALLS = {(2, 3): 18, (2, 2, 3): 60, (3, 1, 2, 2): 93, (4, 4, 4, 4): 1584}


def _lean(a, b):
    """A payoff operation that hands back its first argument itself, unless
    the level is high.  Not a t-norm: it makes the type of the measure that
    the level sweep reaches visible in the result, so a tie between int 1
    and Fraction(1) or 1.0 resolved to the wrong point shows."""
    return a if b <= H else a * 0


class TestPrefixFold:
    """The capacity Nash check and the mixed payoff fold each density prefix
    once and sweep each payoff's level groups once; they give the reports
    and payoffs of folding every tensor point by point, in value and type."""

    SIZES = [(2, 3), (3, 2), (2, 2, 3), (3, 1, 2), (2, 2, 2, 2), (1, 3, 2, 2)]

    def _cases(self, seed, numeric):
        rng = random.Random(seed)
        unit = float if numeric == "float" else Fraction
        tol = 1e-9 if numeric == "float" else 0
        for sizes in self.SIZES:
            g = random_game(rng, players=len(sizes), sizes=list(sizes), denom=4)
            # int 1 beside Fraction(1) (or 1.0) in the payoffs as well
            g = Game(g.spaces, [
                [1 if v == 1 and rng.random() < 0.5 else unit(v) for v in t]
                for t in g.payoffs
            ])
            for kind in ("random", "sparse", "ties"):
                caps = []
                for s in g.spaces:
                    top = rng.randrange(s.size)
                    if kind == "random":
                        d = [unit(Fraction(rng.randint(0, 4), 4)) for _ in s.labels]
                        d[top] = unit(1)
                        caps.append(PossibilityCapacity(s, d, tol=tol))
                    elif kind == "sparse":
                        # labels left out get the default int 0
                        d = {
                            x: unit(Fraction(rng.randint(1, 3), 4))
                            for x in s.labels if rng.random() < 0.4
                        }
                        d[s.labels[top]] = unit(1)
                        caps.append(possibility_from_density(s, d, tol=tol))
                    else:
                        # int 1 ties Fraction(1) or 1.0 at several points
                        d = [rng.choice((1, unit(1), unit(H))) for _ in s.labels]
                        d[top] = rng.choice((1, unit(1)))
                        caps.append(PossibilityCapacity(s, d, tol=tol))
                yield g, StrategyProfile(g, caps), tol

    def _pairs(self):
        ham = TNorm.from_function("hamacher", hamacher)
        stars = TNORMS + [ham, TNorm("lean", _lean)]
        return [(star, ast) for star in stars for ast in TNORMS + [ham]]

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    def test_nash_reports_match_point_by_point_folds(self, numeric):
        pairs = self._pairs()
        checked = 0
        for g, profile, tol in self._cases(71, numeric):
            for star, ast in pairs:
                got = verify_capacity_nash(g, profile, star, ast, tol=tol)
                ref = capacity_nash_by_swaps(g, profile, star, ast, tol=tol)
                assert got == ref
                for field in ("payoffs", "deviation_bounds", "gaps"):
                    assert list(map(type, getattr(got, field))) == list(
                        map(type, getattr(ref, field))
                    )
                checked += 1
        assert checked == 3 * len(self.SIZES) * len(pairs)

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    def test_mixed_payoffs_match_tensor_n_and_point_folds(self, numeric):
        pairs = self._pairs()
        for g, profile, tol in self._cases(73, numeric):
            for star, ast in pairs:
                joint = tensor_n(list(profile), ast, tol=tol)
                for i in range(g.players):
                    got = mixed_expected_payoff(g, i, profile, star, ast, tol=tol)
                    want = _level_maximum(g._functions[i].values, joint.value, star)
                    by_points = mixed_payoff_by_points(
                        g, i, list(profile), star, ast, tol=tol
                    )
                    assert (type(got), got) == (type(want), want)
                    assert (type(got), got) == (type(by_points), by_points)

    def test_a_tie_goes_to_the_lowest_index(self):
        # the profile's min tensor is [F1, F1, 1, 1]; player 1's payoff sweeps
        # level 3/4 (point 2, int 1) and then level 1/2 (points 1 and 3),
        # where point 1's Fraction(1) ties point 2's int 1 and comes first
        one = Fraction(1)
        g = Game([AB, AB], [[Fraction(1, 4), H, Fraction(3, 4), H], [0, 0, 0, 0]])
        profile = StrategyProfile(
            g, [PossibilityCapacity(AB, [one, 1]), PossibilityCapacity(AB, [1, one])]
        )
        lean = TNorm("lean", _lean)
        assert mixed_expected_payoff(g, 0, profile, lean, MINIMUM) == 1
        assert type(mixed_expected_payoff(g, 0, profile, lean, MINIMUM)) is Fraction
        report = verify_capacity_nash(g, profile, lean, MINIMUM)
        assert report == capacity_nash_by_swaps(g, profile, lean, MINIMUM)
        assert type(report.payoffs[0]) is Fraction

    @pytest.mark.parametrize("sizes", sorted(_PREFIX_FOLD_CALLS))
    def test_fold_calls_ast_once_per_prefix_point(self, sizes):
        g = random_game(random.Random(79), players=len(sizes), sizes=list(sizes), denom=4)
        rng = random.Random(83)
        profile = StrategyProfile(g, [random_possibility(s, rng) for s in g.spaces])
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return PRODUCT._fn(a, b)

        got = verify_capacity_nash(g, profile, MINIMUM, TNorm("prod", counted))
        assert got == capacity_nash_by_swaps(g, profile, MINIMUM, PRODUCT)
        assert len(calls) == _PREFIX_FOLD_CALLS[sizes]

    @pytest.mark.parametrize("players", [2, 3])
    def test_errors_match_point_by_point_folds(self, players):
        # an operation that leaves [0,1] is refused where the per-point fold
        # refuses it: at its first out-of-range argument, or as a density
        rng = random.Random(89)
        wild = TNorm("wild", lambda a, b: a + b)
        for _ in range(10):
            g = random_game(rng, players=players, sizes=[2] * players, denom=4)
            profile = StrategyProfile(
                g, [random_possibility(s, rng, denom=4) for s in g.spaces]
            )
            with pytest.raises(ValueError) as want:
                capacity_nash_by_swaps(g, profile, MINIMUM, wild)
            with pytest.raises(ValueError) as got:
                verify_capacity_nash(g, profile, MINIMUM, wild)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)
        # in float mode a joint whose maximum misses 1 by more than tol is
        # refused as tensor_n refuses it
        g = random_game(rng, players=3, sizes=[2, 2, 2], denom=4)
        near = [PossibilityCapacity(s, [1 - 6e-10, 0.5], tol=1e-9) for s in g.spaces]
        profile = StrategyProfile(g, near)
        with pytest.raises(ValueError) as want:
            capacity_nash_by_swaps(g, profile, MINIMUM, LUKASIEWICZ, tol=1e-9)
        with pytest.raises(ValueError) as got:
            verify_capacity_nash(g, profile, MINIMUM, LUKASIEWICZ, tol=1e-9)
        assert str(got.value) == str(want.value)
        assert "must reach 1" in str(got.value)


class TestStoredPayoffs:
    """The game builds each payoff table and slice once; everything reads them."""

    SIZES = [(2, 3), (3, 1), (2, 3, 2), (1, 2, 3), (2, 1, 2, 3), (3, 2, 2, 2)]

    def _games(self, numeric):
        rng = random.Random(61)
        for sizes in self.SIZES:
            g = random_game(rng, players=len(sizes), sizes=list(sizes), denom=6)
            profile = [random_possibility(s, rng, denom=6) for s in g.spaces]
            tol = 0
            if numeric == "float":
                g, tol = _float_game(g), 1e-9
                profile = [
                    PossibilityCapacity(c.space, map(float, c.density), tol=tol)
                    for c in profile
                ]
            yield g, StrategyProfile(g, profile), tol

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    def test_slices_match_the_per_cell_loop(self, numeric):
        for g, _, _ in self._games(numeric):
            for i in range(g.players):
                expected = slices_by_coords(g, i)
                for xi, values in enumerate(expected):
                    f = restricted_payoff(g, i, xi)
                    assert f.space is g.opponent_space(i).space
                    assert f.values == values
                    assert list(map(type, f.values)) == list(map(type, values))
                    assert restricted_payoff(g, i, xi) is f

    @pytest.mark.parametrize("numeric", ["exact", "float"])
    def test_nash_reports_match_the_swap_loop(self, numeric):
        for g, profile, tol in self._games(numeric):
            for star in TNORMS:
                for ast in TNORMS:
                    got = verify_capacity_nash(g, profile, star, ast, tol=tol)
                    ref = capacity_nash_by_swaps(g, profile, star, ast, tol=tol)
                    assert got == ref
                    for field in ("payoffs", "deviation_bounds", "gaps"):
                        assert list(map(type, getattr(got, field))) == list(
                            map(type, getattr(ref, field))
                        )

    def test_no_payoff_function_is_built_after_the_game(self, monkeypatch):
        g = random_game(random.Random(5), players=3, sizes=[2, 2, 3])
        profile = StrategyProfile(
            g, [random_possibility(s, random.Random(6)) for s in g.spaces]
        )
        built = []
        init = FuzzyFunction.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FuzzyFunction, "__init__", counting)
        tensors = []
        for owner in (games_module, tensors_module):
            monkeypatch.setattr(
                owner, "tensor_n",
                lambda *a, **k: tensors.append(a) or tensor_n(*a, **k),
            )
        for mode in ("indicator", "grid:2", "necessity"):
            search_equilibria(g, PRODUCT, LUKASIEWICZ, mode=mode)
        verify_equilibrium(g, induced_beliefs(profile, MINIMUM), PRODUCT)
        assert built == []
        tensors.clear()
        calls = {"__call__": 0, "ast": 0}
        call = TNorm.__call__

        def counted_call(t, a, b):
            calls["__call__"] += 1
            return call(t, a, b)

        def counted_luk(a, b):
            calls["ast"] += 1
            return LUKASIEWICZ._fn(a, b)

        monkeypatch.setattr(TNorm, "__call__", counted_call)
        ast = TNorm(LUKASIEWICZ.name, counted_luk)
        report = verify_capacity_nash(g, profile, PRODUCT, ast)
        assert report == verify_capacity_nash(g, profile, PRODUCT, LUKASIEWICZ)
        assert tensors == []
        assert calls == {"__call__": 0, "ast": _PREFIX_FOLD_CALLS[(2, 2, 3)]}
        assert built == []
