"""Core domain types and elementary checks.

A base game is a finite single-agent decision problem: states with a common
prior, actions, and a rational utility table. An outcome is a joint
distribution over actions and states; the elementary questions about an
outcome are whether it is obedient (no action recommendation the agent would
rather deviate from), and whether its marginals match a given prior and
action distribution. Everything downstream composes these checks.

Values are exact ``Fraction``s at every boundary. Inside, best responses and
obedience work on integer rows, as the simplex does: each game keeps its
utility table scaled by the lcm of its denominators, a belief or outcome row
is scaled the same way, and a ``Fraction`` is built only for an answer that
carries a value (an obedience slack). Validation and marginals add their
rationals with ``exact_sum``, and a choice rule divides each outcome cell by
the prior on numerators and denominators, one ``Fraction`` per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

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
    if any(q.numerator < 0 for row in outcome.probs for q in row):
        raise NotADistribution("outcome has a negative entry")
    total = exact_sum(q for row in outcome.probs for q in row)
    if total != ONE:
        raise NotADistribution(f"outcome mass is {total}, not 1")


def action_marginal_of(outcome: Outcome) -> tuple[Fraction, ...]:
    """Row sums: the distribution over actions induced by the outcome."""
    return tuple(exact_sum(row) for row in outcome.probs)


def state_marginal_of(outcome: Outcome) -> tuple[Fraction, ...]:
    """Column sums: the distribution over states induced by the outcome."""
    return tuple(exact_sum(row[t] for row in outcome.probs) for t in range(outcome.n_states))


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
    slack is strictly negative. Each recommendation's row, scaled to
    integers, is priced once per action on the game's integer utility table,
    so a slack is the difference of two of those payoffs over the two scales.
    """
    if outcome.n_actions != game.n_actions or any(
        len(row) != game.n_states for row in outcome.probs
    ):
        raise DimensionMismatch("outcome table does not match the game's shape")
    utility_scale, table = game.integer_utility
    violations = []
    for a, row in enumerate(outcome.probs):
        row_scale, weights = integer_row(row)
        payoffs = [sum(map(mul, weights, utility)) for utility in table]
        for alt, payoff in enumerate(payoffs):
            if payoff > payoffs[a]:
                slack = Fraction(payoffs[a] - payoff, row_scale * utility_scale)
                violations.append(ObedienceViolation(a, alt, slack))
    return ObedienceReport(obedient=not violations, violations=tuple(violations))


def check_state_marginal(outcome: Outcome, prior: tuple[Fraction, ...]) -> bool:
    if outcome.n_states != len(prior):
        raise DimensionMismatch("outcome and prior disagree on the number of states")
    return state_marginal_of(outcome) == tuple(prior)


def check_action_marginal(outcome: Outcome, marginal: ActionMarginal) -> bool:
    if outcome.n_actions != len(marginal.probs):
        raise DimensionMismatch("outcome and marginal disagree on the number of actions")
    return action_marginal_of(outcome) == marginal.probs


def expected_utility(game: BaseGame, belief, action: int) -> Fraction:
    """Exact expected payoff of an action at a belief, in ``Fraction``s."""
    return sum(
        (belief[t] * game.utility[action][t] for t in range(game.n_states)), ZERO
    )


def best_response_set(game: BaseGame, belief) -> frozenset[int]:
    """Actions attaining the exact maximum expected utility at the belief.

    Ties are kept, never broken; the result is nonempty. The belief is scaled
    to integers and priced on the game's integer utility table; both scales
    are positive, so the argmax is the one ``expected_utility`` gives.
    """
    _, weights = integer_row(belief)
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
    rows would not be distributions. Each cell ``q / p`` is built as one
    ``Fraction`` from the numerators and denominators of ``q`` and ``p``.
    """
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)} differs from prior {tuple(prior)}"
        )
    rows = tuple(
        tuple(Fraction(q.numerator * p.denominator, q.denominator * p.numerator) for q in column)
        for p, column in zip(prior, zip(*outcome.probs))
    )
    return StochasticChoiceRule(rows=rows)
