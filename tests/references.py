"""``Fraction`` references shared by the test modules.

Each is the ``Fraction`` code that the package once carried next to the
integer route it now takes, kept here as the reference that route is
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mbce.game import BaseGame, Outcome
from mbce.rationals import exact_sum

ZERO = Fraction(0)


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior over states conditional on each positively recommended action."""

    beliefs: dict[int, tuple[Fraction, ...]]


def belief_system_from_outcome(outcome: Outcome) -> BeliefSystem:
    """Posteriors by Bayes' rule: normalize each positive-mass action row.

    Actions with zero marginal mass are omitted; nothing conditions on them.
    """
    beliefs: dict[int, tuple[Fraction, ...]] = {}
    for a, row in enumerate(outcome.probs):
        mass = exact_sum(row)
        if mass > 0:
            beliefs[a] = tuple(q / mass for q in row)
    return BeliefSystem(beliefs=beliefs)


def obedience_slack(outcome: Outcome, game: BaseGame, a: int, alt: int) -> Fraction:
    """Expected payoff advantage of following recommendation a over playing
    alt instead, on the event a is recommended. Nonnegative iff obedient;
    the ``Fraction`` reference of ``check_obedience``."""
    return sum(
        (outcome.probs[a][t] * (game.utility[a][t] - game.utility[alt][t])
         for t in range(game.n_states)),
        ZERO,
    )


def core_slack(marginal, menus: dict[frozenset[int], Fraction], subset: frozenset[int]) -> Fraction:
    """Marginal mass on the subset minus the mass of menus entirely inside
    it, with ``menus`` the ``Fraction`` mass of each menu; the ``Fraction``
    reference of ``implementation.core_slack``."""
    lhs = exact_sum(marginal.probs[a] for a in subset)
    rhs = exact_sum(w for menu, w in menus.items() if menu <= subset)
    return lhs - rhs
