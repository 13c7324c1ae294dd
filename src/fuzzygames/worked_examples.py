"""Built-in reference games and the value table they must reproduce.

Two small 2x2 games with known-by-hand results serve as a regression anchor
for the whole pipeline.  In game 1, player 1 wants to match the opponent's
move and player 2 wants to mismatch; both hold the possibility belief with
density (a: 1, b: 1/2).  Under the minimum t-norm both strategies of both
players are best responses and the belief pair verifies as an equilibrium;
under the product t-norm player 1's best response shrinks to {a} and the
verification fails, leaving player 2 a residual of 1/2.  In game 2 both
players hold the vacuous belief (density 1 everywhere); the profile of
greatest capacities passes the capacity equilibrium check yet is not an
equilibrium in the belief sense, because player 1's best response set under
the minimum t-norm is {a} alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .spaces import FiniteSpace
from .capacities import PossibilityCapacity, greatest_capacity
from .fileio import format_value, numeric_tolerance
from .tnorms import MINIMUM, PRODUCT
from .games import (
    BeliefProfile,
    Game,
    StrategyProfile,
    expected_payoff,
    best_response,
    verify_capacity_nash,
    verify_equilibrium,
)

_AB = FiniteSpace(("a", "b"))
_H = Fraction(1, 2)


def example_game_one() -> Game:
    """Match-versus-mismatch game: u1 rewards equal moves, u2 unequal ones."""
    return Game(
        (_AB, _AB),
        (
            {("a", "a"): _H, ("a", "b"): 0, ("b", "a"): 0, ("b", "b"): _H},
            {("a", "a"): 0, ("a", "b"): _H, ("b", "a"): _H, ("b", "b"): 0},
        ),
    )


def example_belief_one() -> PossibilityCapacity:
    """Possibility belief with density (a: 1, b: 1/2), shared by both players."""
    return PossibilityCapacity(_AB, (1, _H))


def example_game_two() -> Game:
    """Game where move a pays player 1 fully against a, and b pays 1/2 flat."""
    return Game(
        (_AB, _AB),
        (
            {("a", "a"): 1, ("a", "b"): 0, ("b", "a"): _H, ("b", "b"): _H},
            {("a", "a"): 0, ("a", "b"): 1, ("b", "a"): _H, ("b", "b"): _H},
        ),
    )


def example_belief_two() -> PossibilityCapacity:
    """The vacuous possibility belief, density 1 on both strategies."""
    return greatest_capacity(_AB)


@dataclass(frozen=True)
class CheckRow:
    """One line of the reproduction report."""

    name: str
    expected: str
    computed: str
    passed: bool


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, tuple):
        return "{" + ",".join(v) + "}"
    return format_value(v)


def _row(name, expected, computed, equal) -> CheckRow:
    return CheckRow(name, _fmt(expected), _fmt(computed), equal)


def _value_row(name, expected, computed, tol) -> CheckRow:
    return _row(name, expected, computed, abs(computed - expected) <= tol)


def _set_row(name, expected, computed) -> CheckRow:
    return _row(name, expected, computed, tuple(computed) == tuple(expected))


def reference_report(
    numeric: str = "rational",
    game_one: Game | None = None,
    belief_one=None,
    game_two: Game | None = None,
    belief_two=None,
) -> list[CheckRow]:
    """Recompute both reference games and compare with their known values.

    numeric "rational" compares exactly; "float" converts every input to
    binary floats and compares within 1e-9.  The game/belief arguments exist
    so tests can inject corrupted fixtures; leave them None for the real ones.
    """
    tol = numeric_tolerance(numeric)

    g1 = game_one if game_one is not None else example_game_one()
    b1 = belief_one if belief_one is not None else example_belief_one()
    g2 = game_two if game_two is not None else example_game_two()
    b2 = belief_two if belief_two is not None else example_belief_two()
    if numeric == "float":
        g1, g2 = _float_game(g1), _float_game(g2)
        b1, b2 = _float_possibility(b1), _float_possibility(b2)

    half = 0.5 if numeric == "float" else _H
    one = 1.0 if numeric == "float" else Fraction(1)
    quarter = 0.25 if numeric == "float" else Fraction(1, 4)

    rows: list[CheckRow] = []

    beliefs1 = BeliefProfile(g1, (b1, b1))
    rows.append(
        _value_row(
            "game 1: expected payoff, player 1, a, min",
            half,
            expected_payoff(g1, 0, "a", b1, MINIMUM),
            tol,
        )
    )
    rows.append(
        _value_row(
            "game 1: expected payoff, player 1, b, min",
            half,
            expected_payoff(g1, 0, "b", b1, MINIMUM),
            tol,
        )
    )
    rows.append(
        _set_row(
            "game 1: best responses, player 1, min",
            ("a", "b"),
            best_response(g1, 0, b1, MINIMUM, tol=tol),
        )
    )
    rows.append(
        _set_row(
            "game 1: best responses, player 2, min",
            ("a", "b"),
            best_response(g1, 1, b1, MINIMUM, tol=tol),
        )
    )
    cert_min = verify_equilibrium(g1, beliefs1, MINIMUM, tol=tol)
    rows.append(
        _row("game 1: equilibrium verdict, min", True, cert_min.verdict, cert_min.verdict is True)
    )
    rows.append(
        _value_row(
            "game 1: expected payoff, player 1, a, prod",
            half,
            expected_payoff(g1, 0, "a", b1, PRODUCT),
            tol,
        )
    )
    rows.append(
        _value_row(
            "game 1: expected payoff, player 1, b, prod",
            quarter,
            expected_payoff(g1, 0, "b", b1, PRODUCT),
            tol,
        )
    )
    rows.append(
        _set_row(
            "game 1: best responses, player 1, prod",
            ("a",),
            best_response(g1, 0, b1, PRODUCT, tol=tol),
        )
    )
    cert_prod = verify_equilibrium(g1, beliefs1, PRODUCT, tol=tol)
    prod_ok = (
        cert_prod.verdict is False
        and abs(cert_prod.residuals[1] - half) <= tol
    )
    rows.append(
        CheckRow(
            "game 1: verdict and player-2 residual, prod",
            "no, residual 1/2",
            f"{_fmt(cert_prod.verdict)}, residual {_fmt(cert_prod.residuals[1])}",
            prod_ok,
        )
    )

    beliefs2 = BeliefProfile(g2, (b2, b2))
    rows.append(
        _value_row(
            "game 2: expected payoff, player 1, a, min",
            one,
            expected_payoff(g2, 0, "a", b2, MINIMUM),
            tol,
        )
    )
    rows.append(
        _value_row(
            "game 2: expected payoff, player 1, b, min",
            half,
            expected_payoff(g2, 0, "b", b2, MINIMUM),
            tol,
        )
    )
    rows.append(
        _set_row(
            "game 2: best responses, player 1, min",
            ("a",),
            best_response(g2, 0, b2, MINIMUM, tol=tol),
        )
    )
    profile2 = StrategyProfile(g2, (b2, b2))
    nash = verify_capacity_nash(g2, profile2, MINIMUM, MINIMUM, tol=tol)
    rows.append(
        _row(
            "game 2: capacity equilibrium verdict, min/min",
            True,
            nash.verdict,
            nash.verdict is True,
        )
    )
    cert2 = verify_equilibrium(g2, beliefs2, MINIMUM, tol=tol)
    rows.append(
        _row(
            "game 2: equilibrium verdict, min",
            False,
            cert2.verdict,
            cert2.verdict is False,
        )
    )
    return rows


def _float_game(game: Game) -> Game:
    return Game(
        game.spaces, [[float(v) for v in table] for table in game.payoffs]
    )


def _float_possibility(cap: PossibilityCapacity) -> PossibilityCapacity:
    return PossibilityCapacity(
        cap.space, [float(v) for v in cap.density], tol=1e-9
    )
