"""From posterior distributions to implementing experiments.

A posterior distribution tau says how often an experiment leaves the agent
at each belief. Whether tau can be steered into a target action marginal is
a matching question: each belief can only route its mass to actions optimal
there. One exact max-flow on the belief/action network (Gale's supply and
demand network) decides it, and the flow is constructive: its ratios are the
decision rule, which then unfolds into a stochastic choice rule and a full
outcome. When the flow falls short, the core condition on menu masses names
the canonical overfull action subset. The demand condition on posterior
masses is the third, equivalent test; it stays off the decision path as a
reference the tests compare against.

The arithmetic runs on integers over common denominators, as in the game
layer: Bayes plausibility is an integer dot product of the scaled weights
with the scaled support, the outcome and the choice rule of a decision rule
share one integer accumulation over a common denominator, and the Gale flow
is solved on scaled capacities. A ``Fraction`` is built once for each value
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .errors import (
    CoreViolation,
    DimensionMismatch,
    ImplementationInfeasible,
    InfeasibleFlow,
    InternalDisagreement,
    NotADistribution,
    NotBayesPlausible,
    StateMarginalMismatch,
    TooManyActionsForSubsetCheck,
)
from .flows import FlowMap, FlowNetwork, max_flow_feasible
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    StochasticChoiceRule,
    best_response_set,
    check_state_marginal,
    state_marginal_of,
)
from .polytope import Belief
from .rationals import exact_sum, fraction_table, fraction_vector, integer_row

ZERO = Fraction(0)
ONE = Fraction(1)

# Exhaustive subset checks walk 2^|A| sets; beyond this they are refused.
MAX_ACTIONS_FOR_SUBSET_CHECK = 12

Menus = tuple[frozenset[int], ...]  # the menu of each posterior, in support order
MenuMeasure = dict[frozenset[int], Fraction]
MenuRule = dict[frozenset[int], tuple[Fraction, ...]]


@dataclass(frozen=True)
class PosteriorDistribution:
    """Finitely supported distribution over beliefs; weights are positive
    and sum to one, support points are pairwise distinct."""

    support: tuple[Belief, ...]
    weights: tuple[Fraction, ...]

    @property
    def size(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class DecisionRule:
    """Distribution over actions at each support belief; ``rows[i][a]``
    aligned with a PosteriorDistribution's support order."""

    rows: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SubsetCheck:
    """Outcome of a subset-sum test: ``ok``, or the first violating subset
    in size-then-lexicographic order together with its (negative) slack."""

    ok: bool
    subset: frozenset[int] | None = None
    slack: Fraction | None = None


def make_posteriors(support, weights) -> PosteriorDistribution:
    """Validate and build, coercing ints and "p/q" strings like make_game."""
    support = fraction_table(support)
    weights = fraction_vector(weights)
    if len(support) != len(weights) or not support:
        raise DimensionMismatch("support and weights must align and be nonempty")
    dim = len(support[0])
    for belief in support:
        if len(belief) != dim:
            raise DimensionMismatch("support beliefs have mixed dimensions")
        if any(q.numerator < 0 for q in belief) or exact_sum(belief) != ONE:
            raise NotADistribution(f"support point {belief} is not a probability vector")
    if any(w.numerator <= 0 for w in weights) or exact_sum(weights) != ONE:
        raise NotADistribution("weights must be positive and sum to 1")
    if len(set(support)) != len(support):
        raise NotADistribution("support points must be pairwise distinct")
    return PosteriorDistribution(support=support, weights=weights)


def is_bayes_plausible(tau: PosteriorDistribution, prior) -> bool:
    """True iff the weighted posteriors average back to the prior exactly.

    With the weights scaled to integers over ``w_scale`` and every support
    point scaled to integers over one common ``mu_scale``, the mean at each
    state is the integer dot product of the two over ``w_scale * mu_scale``.
    """
    dim = len(tau.support[0])
    if len(prior) != dim:
        raise DimensionMismatch("prior and posteriors have different dimensions")
    w_scale, w_ints = integer_row(tau.weights)
    rows = [integer_row(mu) for mu in tau.support]
    mu_scale = lcm(*(scale for scale, _ in rows))
    columns = zip(*(tuple(q * (mu_scale // scale) for q in ints) for scale, ints in rows))
    denominator = w_scale * mu_scale
    return all(
        sum(map(mul, w_ints, column)) * p.denominator == p.numerator * denominator
        for p, column in zip(prior, columns)
    )


def posterior_menus(tau: PosteriorDistribution, game: BaseGame) -> Menus:
    """The exact best-response set ("menu") at each support belief of tau."""
    return tuple(best_response_set(game, mu) for mu in tau.support)


def measure_of(tau: PosteriorDistribution, menus: Menus) -> MenuMeasure:
    """Aggregate tau's weight by menu, given the menu of each posterior."""
    measure: MenuMeasure = {}
    for menu, w in zip(menus, tau.weights):
        measure[menu] = measure.get(menu, ZERO) + w
    return measure


def menu_measure(tau: PosteriorDistribution, game: BaseGame) -> MenuMeasure:
    """Aggregate tau's weight by exact best-response set ("menu")."""
    return measure_of(tau, posterior_menus(tau, game))


def _subsets_in_order(n_actions: int, caller: str):
    if n_actions > MAX_ACTIONS_FOR_SUBSET_CHECK:
        raise TooManyActionsForSubsetCheck(
            f"{caller} enumerates 2^{n_actions} subsets; "
            f"refusing beyond {MAX_ACTIONS_FOR_SUBSET_CHECK} actions"
        )
    for size in range(1, n_actions + 1):
        for combo in combinations(range(n_actions), size):
            yield frozenset(combo)


def core_slack(
    marginal: ActionMarginal, menus: MenuMeasure, subset: frozenset[int]
) -> Fraction:
    """Marginal mass on the subset minus the mass of menus entirely inside
    it; negative exactly when the subset is overfull."""
    lhs = exact_sum(marginal.probs[a] for a in subset)
    rhs = exact_sum(w for menu, w in menus.items() if menu <= subset)
    return lhs - rhs


def core_check(marginal: ActionMarginal, menus: MenuMeasure) -> SubsetCheck:
    """Menu masses must fit inside the action mass of every subset.

    For each nonempty subset B of actions, the total mass of menus entirely
    inside B may not exceed the marginal mass on B.
    """
    n_actions = len(marginal.probs)
    for subset in _subsets_in_order(n_actions, "core_check"):
        slack = core_slack(marginal, menus, subset)
        if slack < 0:
            return SubsetCheck(ok=False, subset=subset, slack=slack)
    return SubsetCheck(ok=True)


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
    marginal mass; an edge exists exactly where the action is optimal at the
    belief. Unbounded capacities are written as 1, the total mass in play."""
    return gale_network(tau, marginal, posterior_menus(tau, game))


def gale_network(
    tau: PosteriorDistribution, marginal: ActionMarginal, menus: Menus
) -> FlowNetwork:
    """``build_gale_network`` given the menu of each posterior."""
    supplies = tuple(
        (("posterior", i), w) for i, w in enumerate(tau.weights)
    )
    demands = tuple(
        (("action", a), q) for a, q in enumerate(marginal.probs)
    )
    edges = []
    for i, menu in enumerate(menus):
        for a in sorted(menu):
            edges.append((("posterior", i), ("action", a), ONE))
    return FlowNetwork(supplies=supplies, demands=demands, edges=tuple(edges))


def decision_rule_from_flow(
    flow: FlowMap, tau: PosteriorDistribution, n_actions: int
) -> DecisionRule:
    """Normalize each posterior's outgoing flow into action probabilities."""
    if flow is None:
        raise InfeasibleFlow("no flow to normalize; the demands were not met")
    rows = []
    for i, w in enumerate(tau.weights):
        row = [ZERO] * n_actions
        for a in range(n_actions):
            f = flow.get((("posterior", i), ("action", a)))
            if f:
                row[a] = f / w
        rows.append(tuple(row))
    return DecisionRule(rows=tuple(rows))


def menu_rule_from_core(menus: MenuMeasure, marginal: ActionMarginal) -> MenuRule:
    """Split each menu's mass across its actions so the splits add up to the
    marginal, by max-flow on the action/menu network (actions supply their
    marginal mass, menus demand their measure, unit edges where a is in B)."""
    supplies = tuple(
        (("action", a), q) for a, q in enumerate(marginal.probs)
    )
    menu_order = sorted(menus, key=lambda m: (len(m), sorted(m)))
    demands = tuple((("menu", menu), menus[menu]) for menu in menu_order)
    edges = []
    for menu in menu_order:
        for a in sorted(menu):
            edges.append((("action", a), ("menu", menu), ONE))
    feasible, flow = max_flow_feasible(
        FlowNetwork(supplies=supplies, demands=demands, edges=tuple(edges))
    )
    if not feasible:
        witness = core_check(marginal, menus)
        raise CoreViolation(witness.subset, witness.slack)
    n_actions = len(marginal.probs)
    rule: MenuRule = {}
    for menu in menu_order:
        mass = menus[menu]
        row = [ZERO] * n_actions
        for a in sorted(menu):
            f = flow.get((("action", a), ("menu", menu)), ZERO)
            if f:
                row[a] = f / mass
        rule[menu] = tuple(row)
    return rule


def _joint_numerators(
    tau: PosteriorDistribution, rule: DecisionRule, n_states: int
) -> tuple[int, list[list[int]]]:
    """``(D, num)`` with ``num[a][t] / D`` the joint mass
    ``sum_i w_i * mu_i(t) * rule_i(a)`` of action a and state t.

    ``D = scale(weights) * lcm_i(scale(mu_i) * scale(rule_i))``, so every
    term is an integer over ``D``; zero factors are skipped.
    """
    n_actions = len(rule.rows[0]) if rule.rows else 0
    w_scale, w_ints = integer_row(tau.weights)
    terms = []
    for w, mu, row in zip(w_ints, tau.support, rule.rows):
        mu_scale, mu_ints = integer_row(mu)
        row_scale, row_ints = integer_row(row)
        terms.append((w, mu_ints, row_ints, mu_scale * row_scale))
    common = lcm(*(scale for *_, scale in terms))
    num = [[0] * n_states for _ in range(n_actions)]
    for w, mu_ints, row_ints, scale in terms:
        factor = w * (common // scale)
        column = [(t, factor * m) for t, m in enumerate(mu_ints[:n_states]) if m]
        for a, r in enumerate(row_ints):
            if r:
                cells = num[a]
                for t, m in column:
                    cells[t] += r * m
    return w_scale * common, num


def choice_rule_from_tau(
    tau: PosteriorDistribution, rule: DecisionRule, prior
) -> StochasticChoiceRule:
    """Mix the decision rule over posteriors, reweighted by how much each
    posterior moves each state relative to the prior: each cell is the joint
    mass of ``outcome_from_tau`` divided by ``prior(t)``, one ``Fraction``."""
    denominator, num = _joint_numerators(tau, rule, len(prior))
    rows = tuple(
        tuple(
            Fraction(cells[t] * p.denominator, denominator * p.numerator) if cells[t] else ZERO
            for cells in num
        )
        for t, p in enumerate(prior)
    )
    return StochasticChoiceRule(rows=rows)


def outcome_from_tau(
    tau: PosteriorDistribution, rule: DecisionRule, prior
) -> Outcome:
    """Joint distribution ``prior(t) * sigma(a|t)`` induced by (tau, rule),
    that is ``sum_i w_i * mu_i(t) * rule_i(a)``: one ``Fraction`` per cell
    over the common denominator of ``_joint_numerators``."""
    denominator, num = _joint_numerators(tau, rule, len(prior))
    probs = tuple(tuple(Fraction(n, denominator) for n in cells) for cells in num)
    return Outcome(probs=probs)


def tau_from_outcome(
    outcome: Outcome, prior
) -> tuple[PosteriorDistribution, DecisionRule]:
    """Read the experiment back out of an outcome.

    Each positively recommended action contributes its conditional belief
    with its marginal mass. Coincident beliefs are merged; the decision rule
    records how the merged mass splits across the originating actions, so
    rebuilding the outcome from (tau, rule) is an exact identity.
    """
    if not check_state_marginal(outcome, tuple(prior)):
        raise StateMarginalMismatch(
            f"outcome's state marginal {state_marginal_of(outcome)} is not the prior"
        )
    n_actions = outcome.n_actions
    support: list[Belief] = []
    weights: list[Fraction] = []
    splits: list[dict[int, Fraction]] = []
    index: dict[Belief, int] = {}
    for a, row in enumerate(outcome.probs):
        mass = sum(row, ZERO)
        if mass == 0:
            continue
        belief = tuple(q / mass for q in row)
        if belief in index:
            i = index[belief]
            weights[i] += mass
            splits[i][a] = splits[i].get(a, ZERO) + mass
        else:
            index[belief] = len(support)
            support.append(belief)
            weights.append(mass)
            splits.append({a: mass})
    rows = tuple(
        tuple(splits[i].get(a, ZERO) / weights[i] for a in range(n_actions))
        for i in range(len(support))
    )
    tau = PosteriorDistribution(support=tuple(support), weights=tuple(weights))
    return tau, DecisionRule(rows=rows)


def implementing_rule(
    game: BaseGame, marginal: ActionMarginal, tau: PosteriorDistribution, menus: Menus
) -> DecisionRule:
    """Decision rule that steers tau into the target marginal.

    ``menus`` is ``posterior_menus(tau, game)``, computed once by the caller
    so that the menu rule can reuse it. The Gale max-flow decides and its
    flow ratios are the rule; the rule routes mass only to optimal actions,
    so the induced outcome is obedient. Only on a shortfall does the subset
    scan run, and by the min-cut argument it always finds an overfull action
    subset to report.
    """
    if len(marginal.probs) != game.n_actions:
        raise DimensionMismatch("marginal length does not match the game")
    if not is_bayes_plausible(tau, game.prior):
        raise NotBayesPlausible("posterior distribution does not average to the prior")
    feasible, flow = max_flow_feasible(gale_network(tau, marginal, menus))
    if not feasible:
        core = core_check(marginal, measure_of(tau, menus))
        if core.ok:
            raise InternalDisagreement(
                "the Gale flow fell short but no action subset is overfull"
            )
        raise ImplementationInfeasible(core.subset, core.slack)
    return decision_rule_from_flow(flow, tau, game.n_actions)


def implement_marginal(
    game: BaseGame, marginal: ActionMarginal, tau: PosteriorDistribution
) -> Outcome:
    """Steer tau into the target marginal and return the full outcome."""
    rule = implementing_rule(game, marginal, tau, posterior_menus(tau, game))
    return outcome_from_tau(tau, rule, game.prior)
