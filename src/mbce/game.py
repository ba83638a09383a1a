"""Core domain types and elementary checks.

A base game is a finite single-agent decision problem: states with a common
prior, actions, and a rational utility table. An outcome is a joint
distribution over actions and states; the elementary questions about an
outcome are whether it is obedient (no action recommendation the agent would
rather deviate from), and whether its marginals match a given prior and
action distribution. Everything downstream composes these checks.

Each type stores its rows in the reduced integer form of ``rationals``: a
game its utility table (``BaseGame.integer_utility``) and its prior
(``integer_prior``), a marginal, an outcome and a choice rule their rows
(``integer_probs``, ``integer_rows``), each over one positive scale. A type
reduces what it is given as it is built, so equality and hashing are those
of the rationals, and the ``Fraction`` tuples (``utility``, ``prior``,
``probs``, ``rows``) are views derived on first read. Validation, best
responses, both marginals, obedience and the choice rule work on the
integers; a ``Fraction`` is built only for an answer that carries a value
(a marginal entry, an obedience slack). A prior is passed as its integer
row, a game's ``integer_prior``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import TYPE_CHECKING

from .errors import (
    BadScale,
    DimensionMismatch,
    EmptySpace,
    NotADistribution,
    RepeatedLabel,
    StateMarginalMismatch,
    ZeroPriorState,
)
from .rationals import (
    IntegerRow,
    IntegerTable,
    exact_fraction,
    parse_row,
    parse_table,
    reduced_row,
    reduced_table,
    row_fractions,
    table_fractions,
)

if TYPE_CHECKING:
    from .polytope import BeliefPolytope


@dataclass(frozen=True)
class BaseGame:
    """Finite decision problem: states, actions, utility table, prior.

    ``utility[a][t]`` is the payoff of action index ``a`` in state index
    ``t``, stored as ``integer_utility``, the reduced ``(scale, table)``
    with ``table[a][t] == scale * utility[a][t]``; the prior is stored as
    ``integer_prior`` the same way. The prior must have full support;
    conditioning divides by it.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    integer_utility: IntegerTable
    integer_prior: IntegerRow

    def __post_init__(self):
        object.__setattr__(self, "integer_utility", reduced_table(self.integer_utility))
        object.__setattr__(self, "integer_prior", reduced_row(self.integer_prior))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    # The views and caches below are derived once per game and kept outside
    # the fields, so equality and hashing ignore them.

    @cached_property
    def utility(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_utility)

    @cached_property
    def prior(self) -> tuple[Fraction, ...]:
        return row_fractions(self.integer_prior)

    @cached_property
    def belief_polytopes(self) -> dict[int, BeliefPolytope]:
        """Each action's belief polytope, by action index, filled by
        ``polytope.opt_belief_polytope`` on first use, so a polytope (with
        its own cached point masses and LP rows) is built once per game and
        action."""
        return {}

    @cached_property
    def _valid(self) -> bool:
        """True once ``validate_game`` has passed on this game; a check that
        raises caches nothing, so an invalid game raises on every call."""
        _check_game(self)
        return True


@dataclass(frozen=True)
class ActionMarginal:
    """Target distribution over actions, stored as the reduced
    ``integer_probs``. Zero entries are allowed."""

    integer_probs: IntegerRow

    def __post_init__(self):
        object.__setattr__(self, "integer_probs", reduced_row(self.integer_probs))

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return row_fractions(self.integer_probs)


@dataclass(frozen=True)
class Outcome:
    """Joint distribution over actions and states; ``probs[a][t]``, stored
    as the reduced ``integer_probs``."""

    integer_probs: IntegerTable

    def __post_init__(self):
        object.__setattr__(self, "integer_probs", reduced_table(self.integer_probs))

    @property
    def n_actions(self) -> int:
        return len(self.integer_probs[1])

    @property
    def n_states(self) -> int:
        table = self.integer_probs[1]
        return len(table[0]) if table else 0

    @cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_probs)


@dataclass(frozen=True)
class StochasticChoiceRule:
    """Distribution over actions for each state; ``rows[t][a]``, stored as
    the reduced ``integer_rows``."""

    integer_rows: IntegerTable

    def __post_init__(self):
        object.__setattr__(self, "integer_rows", reduced_table(self.integer_rows))

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_rows)


def make_game(states, actions, utility, prior) -> BaseGame:
    """Build a BaseGame, reading ints, "p/q" strings and Fractions."""
    return BaseGame(tuple(states), tuple(actions), parse_table(utility), parse_row(prior))


def make_outcome(rows) -> Outcome:
    return Outcome(parse_table(rows))


def make_marginal(values) -> ActionMarginal:
    return ActionMarginal(parse_row(values))


def matching_game(p) -> BaseGame:
    """Two-state two-action guessing game: payoff 1 iff the action index
    matches the state index, prior (p, 1-p). The standard worked fixture."""
    p = exact_fraction(p)
    n, d = p.numerator, p.denominator
    return BaseGame(("t1", "t2"), ("a1", "a2"), (1, ((1, 0), (0, 1))), (d, (n, d - n)))


def validate_game(game: BaseGame) -> None:
    """Raise unless every BaseGame invariant holds.

    EmptySpace for missing states/actions, RepeatedLabel for a state or
    action label given twice, DimensionMismatch for a ragged or misshapen
    utility table or prior, BadScale for a utility or prior scale that is
    not a positive int, NotADistribution / ZeroPriorState for a bad prior.
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
    check_scale(game.integer_utility[0], "utility")
    check_scale(game.integer_prior[0], "prior")
    table = game.integer_utility[1]
    if len(table) != game.n_actions:
        raise DimensionMismatch(f"utility has {len(table)} rows for {game.n_actions} actions")
    for a, row in enumerate(table):
        if len(row) != game.n_states:
            raise DimensionMismatch(
                f"utility row {a} has {len(row)} entries for {game.n_states} states"
            )
    scale, prior = game.integer_prior
    if len(prior) != game.n_states:
        raise DimensionMismatch(f"prior has {len(prior)} entries for {game.n_states} states")
    # The scale is positive, so the numerators carry the entries' signs.
    if any(x < 0 for x in prior) or sum(prior) != scale:
        raise NotADistribution(f"prior {game.prior} is not a probability vector")
    if 0 in prior:
        raise ZeroPriorState(f"state {game.states[prior.index(0)]!r} has zero prior mass")


def check_scale(scale, what: str) -> None:
    """Refuse an integer form whose scale is not a positive int: the checks
    read the numerators' signs as the entries' signs, and the ``Fraction``
    views divide by the scale."""
    if type(scale) is not int or scale <= 0:
        raise BadScale(f"{what} has scale {scale!r}, not a positive int")


def validate_marginal(marginal: ActionMarginal, n_actions: int) -> None:
    scale, ints = marginal.integer_probs
    check_scale(scale, "marginal")
    if len(ints) != n_actions:
        raise DimensionMismatch(f"marginal has {len(ints)} entries for {n_actions} actions")
    if any(x < 0 for x in ints) or sum(ints) != scale:
        raise NotADistribution(f"marginal {marginal.probs} is not a probability vector")


def validate_outcome(outcome: Outcome, game: BaseGame) -> None:
    scale, table = outcome.integer_probs
    check_scale(scale, "outcome")
    if len(table) != game.n_actions or any(len(row) != game.n_states for row in table):
        raise DimensionMismatch("outcome table does not match the game's shape")
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


def check_obedience(outcome: Outcome, game: BaseGame) -> ObedienceReport:
    """Check every deviation inequality exactly.

    Returns a report listing all ordered pairs (recommended, deviation) whose
    slack is strictly negative. Each recommendation's row of the outcome's
    integer table is priced once per action on the game's integer utility
    table, so a slack is the difference of two of those payoffs over the two
    scales; a row of zeros recommends nothing and is skipped.
    """
    utility_scale, table = game.integer_utility
    scale, rows = outcome.integer_probs
    if len(rows) != game.n_actions or any(len(row) != game.n_states for row in rows):
        raise DimensionMismatch("outcome table does not match the game's shape")
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


def check_state_marginal(outcome: Outcome, prior: IntegerRow) -> bool:
    prior_scale, target = prior
    if outcome.n_states != len(target):
        raise DimensionMismatch("outcome and prior disagree on the number of states")
    scale, table = outcome.integer_probs
    # sum(column) / scale == p / prior_scale, by cross multiplication.
    return all(sum(column) * prior_scale == p * scale for column, p in zip(zip(*table), target))


def check_action_marginal(outcome: Outcome, marginal: ActionMarginal) -> bool:
    target_scale, target = marginal.integer_probs
    if outcome.n_actions != len(target):
        raise DimensionMismatch("outcome and marginal disagree on the number of actions")
    scale, table = outcome.integer_probs
    # sum(row) / scale == x / target_scale, by cross multiplication.
    return all(sum(row) * target_scale == x * scale for row, x in zip(table, target))


def best_response_set(game: BaseGame, belief) -> frozenset[int]:
    """Actions attaining the exact maximum expected utility at the belief.

    Ties are kept, never broken; the result is nonempty. The belief is scaled
    to integers and priced by ``integer_best_responses``; the scale is
    positive, so the argmax is that of the exact expected utilities.
    """
    return integer_best_responses(game, parse_row(belief)[1])


def integer_best_responses(game: BaseGame, weights) -> frozenset[int]:
    """``best_response_set`` at a belief given as integers over any positive
    scale: each action's payoff is the integer dot product of ``weights``
    with its row of the game's integer utility table."""
    values = [sum(map(mul, weights, utility)) for utility in game.integer_utility[1]]
    top = max(values)
    return frozenset(a for a, v in enumerate(values) if v == top)


def choice_rule_from_outcome(outcome: Outcome, prior: IntegerRow) -> StochasticChoiceRule:
    """State-conditional choice probabilities: divide each column by the prior.

    The outcome's state marginal must equal the prior exactly, otherwise the
    rows would not be distributions. Each cell ``(n / scale) / (p / s)``,
    with ``n`` an integer of the outcome's table and ``(s, ints)`` the prior,
    is ``n * s * (m / p)`` over ``scale * m``, where ``m`` is the lcm of
    ``ints``: one table, reduced once as the rule is built.
    A state of zero prior mass has no conditional choice: ZeroPriorState.
    """
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)}"
            f" differs from prior {row_fractions(prior)}"
        )
    prior_scale, target = prior
    if 0 in target:
        raise ZeroPriorState(f"state {target.index(0)} has zero prior mass")
    scale, table = outcome.integer_probs
    m = lcm(*target)
    rows = tuple(
        tuple(n * factor for n in column)
        for column, factor in zip(zip(*table), [prior_scale * (m // p) for p in target])
    )
    return StochasticChoiceRule((scale * m, rows))
