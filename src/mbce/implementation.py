"""From posterior distributions to implementing experiments.

A posterior distribution tau says how often an experiment leaves the agent
at each belief. Whether tau can be steered into a target action marginal is
a matching question: each belief can only route its mass to actions optimal
there. One exact max-flow on the belief/action network (Gale's supply and
demand network) decides it, and the flow is constructive: its ratios are the
decision rule, which then unfolds into a stochastic choice rule and a full
outcome. When the Gale or the menu flow falls short, ImplementationInfeasible
names the canonical overfull action subset of the core condition on menu
masses: the first, in size-then-lexicographic order, whose menus carry more
mass than the marginal puts on it. By Hall's theorem that subset is a union
of menus, so the scan visits only the distinct unions of the menus tau
produces, never all 2^|A| action subsets.
The demand condition on posterior masses is the third, equivalent test; it
walks every action subset and stays off the decision path as a reference
the tests compare against.

The arithmetic runs on integers over common denominators, as in the game
layer. A posterior distribution stores its support and its weights in the
reduced integer form (``integer_support``, ``integer_weights``) and a
decision rule its rows (``integer_rows``): ``make_posteriors`` checks
signs, sums and distinct support points on them, Bayes plausibility
cross-multiplies their integer dot product with the game's ``integer_prior``,
and each menu prices a row of the support on the game's integer utility
table. The ``Fraction`` tuples (``support``, ``weights``, ``rows``) are views.

The integer form crosses every boundary of the flows too. Both networks put
their supplies and demands over one scale (``common_scale``) and get back an
integer flow over it; a decision rule reads each flow row over its own sum.
A ``MenuMeasure`` is tau's weight scale and the integer mass of each menu,
and a ``MenuRule`` holds each menu's column of the menu flow over its demand,
an ``IntegerRow``. A ``Fraction`` is built for a subset's slack, in
``core_slack``, and in ``demand_check``, the ``Fraction`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .errors import (
    DimensionMismatch,
    ImplementationInfeasible,
    InfeasibleFlow,
    InternalDisagreement,
    NotADistribution,
    NotBayesPlausible,
    StateMarginalMismatch,
    TooManyActionsForSubsetCheck,
)
from .flows import FlowNetwork, max_flow_feasible
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    check_scale,
    check_state_marginal,
    integer_best_responses,
    state_marginal_of,
)
from .rationals import (
    IntegerRow,
    IntegerTable,
    common_scale,
    parse_row,
    parse_table,
    reduced_row,
    reduced_table,
    row_fractions,
    table_fractions,
)

ZERO = Fraction(0)

# Subset scans visit at most this many sets, the empty set counted: the
# unions of menus core_check scans, and the 2^|A| subsets demand_check walks.
MAX_SUBSETS_FOR_SUBSET_CHECK = 4096

Menus = tuple[frozenset[int], ...]  # the menu of each posterior, in support order
# (tau's weight scale, the integer mass of each menu over it)
MenuMeasure = tuple[int, dict[frozenset[int], int]]
MenuRule = dict[frozenset[int], IntegerRow]  # each menu's tie-break row


@dataclass(frozen=True)
class PosteriorDistribution:
    """Finitely supported distribution over beliefs; weights are positive
    and sum to one, support points are pairwise distinct.

    Stored as the reduced ``integer_support``, every support point over one
    scale, and ``integer_weights``; ``support`` and ``weights`` are their
    ``Fraction`` views."""

    integer_support: IntegerTable
    integer_weights: IntegerRow

    def __post_init__(self):
        object.__setattr__(self, "integer_support", reduced_table(self.integer_support))
        object.__setattr__(self, "integer_weights", reduced_row(self.integer_weights))

    @property
    def size(self) -> int:
        return len(self.integer_weights[1])

    @cached_property
    def support(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_support)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return row_fractions(self.integer_weights)


@dataclass(frozen=True)
class DecisionRule:
    """Distribution over actions at each support belief; ``rows[i][a]``
    aligned with a PosteriorDistribution's support order, stored as the
    reduced ``integer_rows``."""

    integer_rows: IntegerTable

    def __post_init__(self):
        object.__setattr__(self, "integer_rows", reduced_table(self.integer_rows))

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_rows)


@dataclass(frozen=True)
class SubsetCheck:
    """Outcome of a subset-sum test: ``ok``, or the first violating subset
    in size-then-lexicographic order together with its (negative) slack.

    For ``core_check`` that subset is a union of menus, found among the
    unions alone; it is the same subset an exhaustive scan of every action
    subset returns."""

    ok: bool
    subset: frozenset[int] | None = None
    slack: Fraction | None = None


def make_posteriors(support, weights) -> PosteriorDistribution:
    """Build and validate, reading ints, "p/q" strings and Fractions like
    make_game."""
    tau = PosteriorDistribution(parse_table(support), parse_row(weights))
    validate_posteriors(tau)
    return tau


def validate_posteriors(tau: PosteriorDistribution) -> None:
    """Raise unless tau's support and weights align, each support point is
    a distribution of one dimension, the weights are positive and sum to
    one, and the support points are pairwise distinct.

    The checks read the integer forms, whose scales must be positive ints
    (BadScale otherwise): a point is a distribution when its numerators are
    nonnegative and add up to the scale, and two points over one common
    scale are equal exactly when their numerators are."""
    scale, rows = tau.integer_support
    w_scale, w_ints = tau.integer_weights
    check_scale(scale, "support")
    check_scale(w_scale, "weights")
    if len(rows) != len(w_ints) or not rows:
        raise DimensionMismatch("support and weights must align and be nonempty")
    dim = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise DimensionMismatch("support beliefs have mixed dimensions")
        if any(x < 0 for x in row) or sum(row) != scale:
            raise NotADistribution(f"support point {tau.support[i]} is not a probability vector")
    if any(w <= 0 for w in w_ints) or sum(w_ints) != w_scale:
        raise NotADistribution("weights must be positive and sum to 1")
    if len(set(rows)) != len(rows):
        raise NotADistribution("support points must be pairwise distinct")


def is_bayes_plausible(tau: PosteriorDistribution, prior: IntegerRow) -> bool:
    """True iff the weighted posteriors average back to the prior, an
    integer row over any positive scale (a game's ``integer_prior``).

    With the weights as integers over ``w_scale`` and the support as
    integers over ``mu_scale``, the mean at each state is the integer dot
    product of the two over ``w_scale * mu_scale``.
    """
    w_scale, w_ints = tau.integer_weights
    mu_scale, rows = tau.integer_support
    prior_scale, target = prior
    if not rows or len(target) != len(rows[0]):
        raise DimensionMismatch("prior and posteriors have different dimensions")
    denominator = w_scale * mu_scale
    return all(
        sum(map(mul, w_ints, column)) * prior_scale == p * denominator
        for p, column in zip(target, zip(*rows))
    )


def posterior_menus(tau: PosteriorDistribution, game: BaseGame) -> Menus:
    """The exact best-response set ("menu") at each support belief of tau,
    priced on the rows of ``tau.integer_support``."""
    return tuple(integer_best_responses(game, row) for row in tau.integer_support[1])


def measure_of(tau: PosteriorDistribution, menus: Menus) -> MenuMeasure:
    """Aggregate tau's weight by menu, given the menu of each posterior: the
    integer weights add up per menu, over tau's weight scale."""
    scale, weights = tau.integer_weights
    sums: dict[frozenset[int], int] = {}
    for menu, w in zip(menus, weights):
        sums[menu] = sums.get(menu, 0) + w
    return scale, sums


def menu_measure(tau: PosteriorDistribution, game: BaseGame) -> MenuMeasure:
    """Aggregate tau's weight by exact best-response set ("menu")."""
    return measure_of(tau, posterior_menus(tau, game))


def _subsets_in_order(n_actions: int, caller: str):
    if 2 ** n_actions > MAX_SUBSETS_FOR_SUBSET_CHECK:
        raise TooManyActionsForSubsetCheck(
            f"{caller} enumerates 2^{n_actions} subsets; "
            f"refusing beyond {MAX_SUBSETS_FOR_SUBSET_CHECK} subsets"
        )
    for size in range(1, n_actions + 1):
        for combo in combinations(range(n_actions), size):
            yield frozenset(combo)


def core_slack(
    marginal: ActionMarginal, menus: MenuMeasure, subset: frozenset[int]
) -> Fraction:
    """Marginal mass on the subset minus the mass of menus entirely inside
    it; negative exactly when the subset is overfull. Both masses add up as
    integers over their own scales; the difference is the one ``Fraction``."""
    scale, probs = marginal.integer_probs
    w_scale, masses = menus
    lhs = sum([probs[a] for a in subset])
    rhs = sum([w for menu, w in masses.items() if menu <= subset])
    return Fraction(lhs * w_scale - rhs * scale, scale * w_scale)


def core_check(marginal: ActionMarginal, menus: MenuMeasure) -> SubsetCheck:
    """Menu masses must fit inside the action mass of every subset.

    For each nonempty subset B of actions, the total mass of menus entirely
    inside B may not exceed the marginal mass on B. Only unions of menus
    are scanned, in size-then-lexicographic order. Menus are best-response
    sets, so never empty. Given an overfull B, the union B' of the menus
    inside B holds the same menus and no more marginal mass, so B' is
    overfull and comes no later than B: the first overfull subset is a
    union of menus, and the scan finds the subset and slack an exhaustive
    one would. At most 2^(distinct menus) unions exist, and never more
    than 2^|A|.
    """
    _, masses = menus
    unions = {frozenset()}
    for menu in masses:
        unions |= {u | menu for u in unions}
        if len(unions) > MAX_SUBSETS_FOR_SUBSET_CHECK:
            raise TooManyActionsForSubsetCheck(
                f"core_check scans at least {len(unions)} unions of menus; "
                f"refusing beyond {MAX_SUBSETS_FOR_SUBSET_CHECK} subsets"
            )
    unions.discard(frozenset())
    for subset in sorted(unions, key=lambda u: (len(u), sorted(u))):
        slack = core_slack(marginal, menus, subset)
        if slack < 0:
            return SubsetCheck(ok=False, subset=subset, slack=slack)
    return SubsetCheck(ok=True)


def _overfull_subset(marginal: ActionMarginal, menus: MenuMeasure) -> ImplementationInfeasible:
    """The ImplementationInfeasible naming the first overfull subset, once
    the Gale or the menu flow has fallen short; by the min-cut argument one
    always exists."""
    core = core_check(marginal, menus)
    if core.ok:
        raise InternalDisagreement("a flow fell short but no action subset is overfull")
    return ImplementationInfeasible(core.subset, core.slack)


def demand_check(
    marginal: ActionMarginal, tau: PosteriorDistribution, game: BaseGame
) -> SubsetCheck:
    """Posteriors offering an action in B must carry at least B's mass.

    The complement view of core_check; the two verdicts always agree.
    """
    if len(marginal.probs) != game.n_actions:
        raise DimensionMismatch("marginal length does not match the game")
    menus = posterior_menus(tau, game)
    for subset in _subsets_in_order(game.n_actions, "demand_check"):
        supply = sum(
            (w for menu, w in zip(menus, tau.weights) if menu & subset),
            ZERO,
        )
        need = sum((marginal.probs[a] for a in subset), ZERO)
        if supply < need:
            return SubsetCheck(ok=False, subset=subset, slack=supply - need)
    return SubsetCheck(ok=True)


def build_gale_network(
    tau: PosteriorDistribution, marginal: ActionMarginal, game: BaseGame
) -> FlowNetwork:
    """Posterior beliefs supply their tau weight; actions demand their
    marginal mass; an edge joins posterior i to action a exactly where a is
    optimal at the belief."""
    return gale_network(tau, marginal, posterior_menus(tau, game))


def gale_network(
    tau: PosteriorDistribution, marginal: ActionMarginal, menus: Menus
) -> FlowNetwork:
    """``build_gale_network`` given the menu of each posterior."""
    _, (supplies, demands) = common_scale([tau.integer_weights, marginal.integer_probs])
    return FlowNetwork(
        supplies, demands, tuple([(i, a) for i, menu in enumerate(menus) for a in sorted(menu)])
    )


def decision_rule_from_flow(flow: tuple[tuple[int, ...], ...] | None) -> DecisionRule:
    """Normalize each posterior's outgoing flow into action probabilities.

    A met Gale flow routes all of each posterior's supply, its tau weight,
    so each row over its own sum is the posterior's decision rule: the rows
    go over the lcm of their sums, and the rule reduces the table once."""
    if flow is None:
        raise InfeasibleFlow("no flow to normalize; the demands were not met")
    return DecisionRule(common_scale([(sum(row), row) for row in flow]))


def menu_rule_from_core(menus: MenuMeasure, marginal: ActionMarginal) -> MenuRule:
    """Split each menu's mass across its actions so the splits add up to the
    marginal, by max-flow on the action/menu network (actions supply their
    marginal mass, menus demand their measure, an edge wherever a is in B).
    Each menu's row is its column of the flow over its demand."""
    w_scale, masses = menus
    menu_order = sorted(masses, key=lambda m: (len(m), sorted(m)))
    _, (supplies, demands) = common_scale(
        [marginal.integer_probs, (w_scale, tuple([masses[menu] for menu in menu_order]))]
    )
    edges = tuple([(a, k) for k, menu in enumerate(menu_order) for a in sorted(menu)])
    feasible, flow = max_flow_feasible(FlowNetwork(supplies, demands, edges))
    if not feasible:
        raise _overfull_subset(marginal, menus)
    return {
        menu: (demand, tuple([row[k] for row in flow]))
        for k, (menu, demand) in enumerate(zip(menu_order, demands))
    }


def outcome_from_tau(tau: PosteriorDistribution, rule: DecisionRule) -> Outcome:
    """Joint distribution ``prior(t) * sigma(a|t)`` induced by (tau, rule),
    that is ``sum_i w_i * mu_i(t) * rule_i(a)`` for action a and state t.

    The numerators accumulate over ``D``, the product of the scales of the
    three integer forms (the weights, the support and the rule), so every
    term is an integer over ``D``; zero factors are skipped, and the
    outcome reduces the table once. An empty tau gives the empty outcome.
    """
    w_scale, w_ints = tau.integer_weights
    mu_scale, mu_rows = tau.integer_support
    rule_scale, rule_rows = rule.integer_rows
    n_states = len(mu_rows[0]) if mu_rows else 0
    n_actions = len(rule_rows[0]) if rule_rows else 0
    num = [[0] * n_states for _ in range(n_actions)]
    for w, mu_ints, row_ints in zip(w_ints, mu_rows, rule_rows):
        column = [(t, w * m) for t, m in enumerate(mu_ints) if m]
        for a, r in enumerate(row_ints):
            if r:
                cells = num[a]
                for t, m in column:
                    cells[t] += r * m
    return Outcome((w_scale * mu_scale * rule_scale, tuple(map(tuple, num))))


def tau_from_outcome(
    outcome: Outcome, prior: IntegerRow
) -> tuple[PosteriorDistribution, DecisionRule]:
    """Read the experiment back out of an outcome whose state marginal is
    the prior, an integer row.

    Each positively recommended action contributes its conditional belief
    with its marginal mass. Coincident beliefs are merged; the decision rule
    records how the merged mass splits across the originating actions, so
    rebuilding the outcome from (tau, rule) is an exact identity.

    All of it is read off the outcome's integer table: an action's row over
    its own sum is its belief (reduced, so equal beliefs have equal forms),
    the sums over the table's scale are the weights, and each split over its
    merged weight is a rule entry, every rule row over the lcm of the
    weights.
    """
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"outcome's state marginal {state_marginal_of(outcome)} is not the prior"
        )
    scale, table = outcome.integer_probs
    n_actions = len(table)
    support: list[IntegerRow] = []
    weights: list[int] = []
    splits: list[dict[int, int]] = []
    index: dict[IntegerRow, int] = {}
    for a, row in enumerate(table):
        mass = sum(row)
        if mass == 0:
            continue
        belief = reduced_row((mass, row) if mass > 0 else (-mass, tuple(-x for x in row)))
        if belief in index:
            i = index[belief]
            weights[i] += mass
            splits[i][a] = splits[i].get(a, 0) + mass
        else:
            index[belief] = len(support)
            support.append(belief)
            weights.append(mass)
            splits.append({a: mass})
    over = lcm(*weights)
    rows = tuple(
        tuple(split.get(a, 0) * (over // w) for a in range(n_actions))
        for split, w in zip(splits, weights)
    )
    tau = PosteriorDistribution(common_scale(support), (scale, tuple(weights)))
    return tau, DecisionRule((over, rows))


def implementing_rule(
    game: BaseGame, marginal: ActionMarginal, tau: PosteriorDistribution, menus: Menus
) -> DecisionRule:
    """Decision rule that steers tau into the target marginal.

    ``menus`` is ``posterior_menus(tau, game)``, computed once by the caller
    so that the menu rule can reuse it. The Gale max-flow decides and its
    flow ratios are the rule; the rule routes mass only to optimal actions,
    so the induced outcome is obedient. Only on a shortfall does the subset
    scan run.
    """
    if len(marginal.integer_probs[1]) != game.n_actions:
        raise DimensionMismatch("marginal length does not match the game")
    if not is_bayes_plausible(tau, game.integer_prior):
        raise NotBayesPlausible("posterior distribution does not average to the prior")
    feasible, flow = max_flow_feasible(gale_network(tau, marginal, menus))
    if not feasible:
        raise _overfull_subset(marginal, measure_of(tau, menus))
    return decision_rule_from_flow(flow)


def implement_marginal(
    game: BaseGame, marginal: ActionMarginal, tau: PosteriorDistribution
) -> Outcome:
    """Steer tau into the target marginal and return the full outcome."""
    rule = implementing_rule(game, marginal, tau, posterior_menus(tau, game))
    return outcome_from_tau(tau, rule)
