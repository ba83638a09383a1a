"""Core domain types and elementary checks.

A base game is a finite single-agent decision problem: states with a common
prior, actions, and a rational utility table. An outcome is a joint
distribution over actions and states; the elementary questions about an
outcome are whether it is obedient (no action recommendation the agent would
rather deviate from), and whether its marginals match a given prior and
action distribution. Everything downstream composes these checks.

Values are exact ``Fraction``s at every boundary. Inside, best responses and
obedience work on integer rows, as the simplex does: each game keeps its
utility table scaled by the lcm of its denominators
(``BaseGame.integer_utility``), a belief is scaled the same way, and each
outcome keeps its table over one common denominator
(``Outcome.integer_probs``). Both views are derived once per object, so the
validation of an outcome, its two marginals, its obedience and its choice
rule all read the same integers; a ``Fraction`` is built only for an answer
that carries a value (a marginal entry, an obedience slack, a choice
probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatch,
    EmptySpace,
    NotADistribution,
    RepeatedLabel,
    StateMarginalMismatch,
    ZeroPriorState,
)
from .rationals import (
    exact_fraction,
    exact_sum,
    fraction_table,
    fraction_vector,
    integer_row,
    integer_table,
)

if TYPE_CHECKING:
    from .polytope import BeliefPolytope

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class BaseGame:
    """Finite decision problem: states, actions, utility table, prior.

    ``utility[a][t]`` is the payoff of action index ``a`` in state index
    ``t``. The prior must have full support; conditioning divides by it.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    utility: tuple[tuple[Fraction, ...], ...]
    prior: tuple[Fraction, ...]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def integer_utility(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(scale, table)`` with ``table[a][t] == scale * utility[a][t]``,
        ``scale`` the lcm of the utility denominators. Derived once per game
        and kept outside the fields, so equality and hashing ignore it."""
        return integer_table(self.utility)

    @cached_property
    def belief_polytopes(self) -> dict[int, BeliefPolytope]:
        """Each action's belief polytope, by action index, filled by
        ``polytope.opt_belief_polytope`` on first use, so a polytope (with
        its own cached point masses and LP rows) is built once per game and
        action. Kept outside the fields like ``integer_utility``."""
        return {}

    @cached_property
    def _valid(self) -> bool:
        """True once ``validate_game`` has passed on this game. Kept outside
        the fields like ``integer_utility``; a check that raises caches
        nothing, so an invalid game raises on every call."""
        _check_game(self)
        return True


@dataclass(frozen=True)
class ActionMarginal:
    """Target distribution over actions. Zero entries are allowed."""

    probs: tuple[Fraction, ...]


@dataclass(frozen=True)
class Outcome:
    """Joint distribution over actions and states; ``probs[a][t]``."""

    probs: tuple[tuple[Fraction, ...], ...]

    @property
    def n_actions(self) -> int:
        return len(self.probs)

    @property
    def n_states(self) -> int:
        return len(self.probs[0]) if self.probs else 0

    @cached_property
    def integer_probs(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(scale, table)`` with ``table[a][t] == scale * probs[a][t]``,
        ``scale`` the lcm of the denominators. Derived once per outcome and
        kept outside the fields, so equality and hashing ignore it."""
        return integer_table(self.probs)


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior over states conditional on each positively recommended action."""

    beliefs: dict[int, tuple[Fraction, ...]]


@dataclass(frozen=True)
class StochasticChoiceRule:
    """Distribution over actions for each state; ``rows[t][a]``."""

    rows: tuple[tuple[Fraction, ...], ...]


def make_game(states, actions, utility, prior) -> BaseGame:
    """Build a BaseGame, coercing ints and "p/q" strings to exact rationals."""
    return BaseGame(
        states=tuple(states),
        actions=tuple(actions),
        utility=fraction_table(utility),
        prior=fraction_vector(prior),
    )


def make_outcome(rows) -> Outcome:
    return Outcome(probs=fraction_table(rows))


def make_marginal(values) -> ActionMarginal:
    return ActionMarginal(probs=fraction_vector(values))


def matching_game(p) -> BaseGame:
    """Two-state two-action guessing game: payoff 1 iff the action index
    matches the state index, prior (p, 1-p). The standard worked fixture."""
    p = exact_fraction(p)
    return BaseGame(
        states=("t1", "t2"),
        actions=("a1", "a2"),
        utility=((ONE, ZERO), (ZERO, ONE)),
        prior=(p, ONE - p),
    )


def validate_game(game: BaseGame) -> None:
    """Raise unless every BaseGame invariant holds.

    EmptySpace for missing states/actions, RepeatedLabel for a state or
    action label given twice, DimensionMismatch for a ragged or misshapen
    utility table or prior, NotADistribution / ZeroPriorState for a bad prior.
    The checks run once per game object: a game that passes is remembered
    as valid, so parsing a game and then deciding it validates it once.
    """
    game._valid  # runs the checks on first use; raises while they fail


def _check_game(game: BaseGame) -> None:
    if game.n_states == 0 or game.n_actions == 0:
        raise EmptySpace("a game needs at least one state and one action")
    for kind, labels in (("state", game.states), ("action", game.actions)):
        if len(set(labels)) != len(labels):
            label = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise RepeatedLabel(f"{kind} label {label!r} is repeated")
    if len(game.utility) != game.n_actions:
        raise DimensionMismatch(
            f"utility has {len(game.utility)} rows for {game.n_actions} actions"
        )
    for a, row in enumerate(game.utility):
        if len(row) != game.n_states:
            raise DimensionMismatch(
                f"utility row {a} has {len(row)} entries for {game.n_states} states"
            )
    if len(game.prior) != game.n_states:
        raise DimensionMismatch(
            f"prior has {len(game.prior)} entries for {game.n_states} states"
        )
    if any(q.numerator < 0 for q in game.prior) or exact_sum(game.prior) != ONE:
        raise NotADistribution(f"prior {game.prior} is not a probability vector")
    for t, q in enumerate(game.prior):
        if q == 0:
            raise ZeroPriorState(f"state {game.states[t]!r} has zero prior mass")


def validate_marginal(marginal: ActionMarginal, n_actions: int) -> None:
    if len(marginal.probs) != n_actions:
        raise DimensionMismatch(
            f"marginal has {len(marginal.probs)} entries for {n_actions} actions"
        )
    if any(q.numerator < 0 for q in marginal.probs) or exact_sum(marginal.probs) != ONE:
        raise NotADistribution(f"marginal {marginal.probs} is not a probability vector")


def validate_outcome(outcome: Outcome, game: BaseGame) -> None:
    if outcome.n_actions != game.n_actions or any(
        len(row) != game.n_states for row in outcome.probs
    ):
        raise DimensionMismatch("outcome table does not match the game's shape")
    scale, table = outcome.integer_probs
    # The scale is positive, so the numerators carry the entries' signs.
    if any(x < 0 for row in table for x in row):
        raise NotADistribution("outcome has a negative entry")
    mass = sum(map(sum, table))
    if mass != scale:
        raise NotADistribution(f"outcome mass is {Fraction(mass, scale)}, not 1")


def action_marginal_of(outcome: Outcome) -> tuple[Fraction, ...]:
    """Row sums: the distribution over actions induced by the outcome."""
    scale, table = outcome.integer_probs
    return tuple(Fraction(sum(row), scale) for row in table)


def state_marginal_of(outcome: Outcome) -> tuple[Fraction, ...]:
    """Column sums: the distribution over states induced by the outcome."""
    scale, table = outcome.integer_probs
    return tuple(Fraction(sum(column), scale) for column in zip(*table))


def _sums_match(sums, scale: int, target) -> bool:
    """Whether ``sums[i] / scale == target[i]`` for each i, by cross
    multiplication: no ``Fraction`` is built."""
    return len(sums) == len(target) and all(
        s * q.denominator == q.numerator * scale for s, q in zip(sums, target)
    )


@dataclass(frozen=True)
class ObedienceViolation:
    """A recommendation the agent strictly prefers to deviate from.

    ``slack`` is the (negative) value of the deviation inequality for the
    pair: the expected gain of following ``recommended`` over ``deviation``
    on the event that ``recommended`` is drawn.
    """

    recommended: int
    deviation: int
    slack: Fraction


@dataclass(frozen=True)
class ObedienceReport:
    obedient: bool
    violations: tuple[ObedienceViolation, ...]


def obedience_slack(outcome: Outcome, game: BaseGame, a: int, alt: int) -> Fraction:
    """Expected payoff advantage of following recommendation a over playing
    alt instead, on the event a is recommended. Nonnegative iff obedient."""
    return sum(
        (outcome.probs[a][t] * (game.utility[a][t] - game.utility[alt][t])
         for t in range(game.n_states)),
        ZERO,
    )


def check_obedience(outcome: Outcome, game: BaseGame) -> ObedienceReport:
    """Check every deviation inequality exactly.

    Returns a report listing all ordered pairs (recommended, deviation) whose
    slack is strictly negative. Each recommendation's row of the outcome's
    integer view is priced once per action on the game's integer utility
    table, so a slack is the difference of two of those payoffs over the two
    scales; a row of zeros recommends nothing and is skipped.
    """
    if outcome.n_actions != game.n_actions or any(
        len(row) != game.n_states for row in outcome.probs
    ):
        raise DimensionMismatch("outcome table does not match the game's shape")
    utility_scale, table = game.integer_utility
    scale, rows = outcome.integer_probs
    violations = []
    for a, weights in enumerate(rows):
        if not any(weights):
            continue
        payoffs = [sum(map(mul, weights, utility)) for utility in table]
        for alt, payoff in enumerate(payoffs):
            if payoff > payoffs[a]:
                slack = Fraction(payoffs[a] - payoff, scale * utility_scale)
                violations.append(ObedienceViolation(a, alt, slack))
    return ObedienceReport(obedient=not violations, violations=tuple(violations))


def check_state_marginal(outcome: Outcome, prior: tuple[Fraction, ...]) -> bool:
    if outcome.n_states != len(prior):
        raise DimensionMismatch("outcome and prior disagree on the number of states")
    scale, table = outcome.integer_probs
    return _sums_match([sum(column) for column in zip(*table)], scale, prior)


def check_action_marginal(outcome: Outcome, marginal: ActionMarginal) -> bool:
    if outcome.n_actions != len(marginal.probs):
        raise DimensionMismatch("outcome and marginal disagree on the number of actions")
    scale, table = outcome.integer_probs
    return _sums_match(list(map(sum, table)), scale, marginal.probs)


def expected_utility(game: BaseGame, belief, action: int) -> Fraction:
    """Exact expected payoff of an action at a belief, in ``Fraction``s."""
    return sum(
        (belief[t] * game.utility[action][t] for t in range(game.n_states)), ZERO
    )


def best_response_set(game: BaseGame, belief) -> frozenset[int]:
    """Actions attaining the exact maximum expected utility at the belief.

    Ties are kept, never broken; the result is nonempty. The belief is scaled
    to integers and priced by ``integer_best_responses``; the scale is
    positive, so the argmax is the one ``expected_utility`` gives.
    """
    return integer_best_responses(game, integer_row(belief)[1])


def integer_best_responses(game: BaseGame, weights) -> frozenset[int]:
    """``best_response_set`` at a belief given as integers over any positive
    scale: each action's payoff is the integer dot product of ``weights``
    with its row of the game's integer utility table."""
    values = [sum(map(mul, weights, utility)) for utility in game.integer_utility[1]]
    top = max(values)
    return frozenset(a for a, v in enumerate(values) if v == top)


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


def choice_rule_from_outcome(outcome: Outcome, prior: tuple[Fraction, ...]) -> StochasticChoiceRule:
    """State-conditional choice probabilities: divide each column by the prior.

    The outcome's state marginal must equal the prior exactly, otherwise the
    rows would not be distributions. Each cell ``(n / scale) / p``, with
    ``n`` a numerator of the outcome's integer view, is built as one
    ``Fraction`` from ``n`` and the numerator and denominator of ``p``.
    A state of zero prior mass has no conditional choice: ZeroPriorState.
    """
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)} differs from prior {tuple(prior)}"
        )
    if ZERO in prior:
        raise ZeroPriorState(f"state {list(prior).index(ZERO)} has zero prior mass")
    scale, table = outcome.integer_probs
    rows = []
    for p, column in zip(prior, zip(*table)):
        over = scale * p.numerator
        rows.append(tuple(Fraction(n * p.denominator, over) for n in column))
    return StochasticChoiceRule(rows=tuple(rows))
