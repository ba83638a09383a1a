"""Experiment construction: menu measures, subset tests, flows, round trips."""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.errors import (
    BadScale,
    DimensionMismatch,
    ImplementationInfeasible,
    InfeasibleFlow,
    InternalDisagreement,
    NotADistribution,
    NotBayesPlausible,
    StateMarginalMismatch,
    TooManyActionsForSubsetCheck,
    ZeroPriorState,
)
from mbce import implementation
from mbce.flows import FlowNetwork, max_flow_feasible
from mbce.game import (
    Outcome,
    StochasticChoiceRule,
    best_response_set,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    choice_rule_from_outcome,
    make_game,
    make_marginal,
    make_outcome,
    state_marginal_of,
)
from mbce.implementation import (
    DecisionRule,
    PosteriorDistribution,
    SubsetCheck,
    build_gale_network,
    core_check,
    core_slack,
    decision_rule_from_flow,
    demand_check,
    implement_marginal,
    is_bayes_plausible,
    make_posteriors,
    menu_measure,
    menu_rule_from_core,
    outcome_from_tau,
    posterior_menus,
    tau_from_outcome,
    validate_posteriors,
)
from mbce.rationals import common_scale, parse_row, parse_table, row_fractions, table_fractions
from references import check_state_marginal as reference_check_state_marginal
from references import core_slack as reference_core_slack

F = Fraction

E1 = (F(1), F(0))
E2 = (F(0), F(1))
UNIFORM2 = (F(1, 2), F(1, 2))

FULL_INFO = make_posteriors([E1, E2], [F(1, 2), F(1, 2)])
NO_INFO_UNIFORM = make_posteriors([UNIFORM2], [F(1)])


def menu(*actions):
    return frozenset(actions)


def measure_from(masses):
    """The ``MenuMeasure`` of a dict of ``Fraction`` menu masses."""
    scale, ints = parse_row(tuple(masses.values()))
    return scale, dict(zip(masses, ints))


def measure_fractions(measure):
    """The ``Fraction`` mass of each menu of a ``MenuMeasure``."""
    scale, masses = measure
    return {m: F(w, scale) for m, w in masses.items()}


def rule_fractions(rule):
    """The ``Fraction`` row of each menu of a ``MenuRule``."""
    return {m: row_fractions(row) for m, row in rule.items()}


def fraction_network(supplies, demands, edges):
    """(network, scale): ``Fraction`` supplies and demands as a
    ``FlowNetwork`` of ints over their common scale."""
    scale, (supply_ints, demand_ints) = common_scale([parse_row(supplies), parse_row(demands)])
    return FlowNetwork(supply_ints, demand_ints, edges), scale


class TestPosteriorDistribution:
    def test_rejects_duplicate_support(self):
        with pytest.raises(NotADistribution):
            make_posteriors([UNIFORM2, UNIFORM2], [F(1, 2), F(1, 2)])

    def test_rejects_zero_weight(self):
        with pytest.raises(NotADistribution):
            make_posteriors([E1, E2], [F(1), F(0)])

    @pytest.mark.parametrize("scale", [-1, 0])
    def test_rejects_a_scale_that_is_not_positive(self, scale):
        support = PosteriorDistribution((scale, ((scale, 0), (0, scale))), (2, (1, 1)))
        weights = PosteriorDistribution((1, ((1, 0), (0, 1))), (scale, (scale, 0)))
        for tau, what in ((support, "support"), (weights, "weights")):
            with pytest.raises(BadScale, match=f"^{what} has scale {scale}, not a positive int$"):
                validate_posteriors(tau)

    def test_bayes_plausibility(self):
        assert is_bayes_plausible(NO_INFO_UNIFORM, parse_row(UNIFORM2))
        assert is_bayes_plausible(FULL_INFO, parse_row(UNIFORM2))
        skew = make_posteriors([E1, E2], [F(3, 4), F(1, 4)])
        assert not is_bayes_plausible(skew, parse_row(UNIFORM2))

    def test_bayes_plausibility_refuses_an_empty_support(self):
        """An empty support has no dimension to compare with the prior's."""
        empty = PosteriorDistribution((1, ()), (1, ()))
        with pytest.raises(DimensionMismatch):
            is_bayes_plausible(empty, parse_row(UNIFORM2))


class TestMenuMeasure:
    def test_full_information_splits_singletons(self, match_half):
        assert measure_fractions(menu_measure(FULL_INFO, match_half)) == {
            menu(0): F(1, 2),
            menu(1): F(1, 2),
        }

    def test_tie_belief_gets_pair_menu(self, match_half):
        assert measure_fractions(menu_measure(NO_INFO_UNIFORM, match_half)) == {menu(0, 1): F(1)}

    def test_single_action_game(self):
        game = make_game(["t1", "t2"], ["a1"], [[1, 0]], ["1/2", "1/2"])
        assert measure_fractions(menu_measure(NO_INFO_UNIFORM, game)) == {menu(0): F(1)}


class TestSubsetChecks:
    def test_full_info_balanced_passes(self, match_half):
        menus = menu_measure(FULL_INFO, match_half)
        assert core_check(make_marginal(["1/2", "1/2"]), menus).ok
        assert demand_check(make_marginal(["1/2", "1/2"]), FULL_INFO, match_half).ok

    def test_full_info_skewed_fails_with_subset(self, match_half):
        menus = menu_measure(FULL_INFO, match_half)
        nu = make_marginal(["1/4", "3/4"])
        core = core_check(nu, menus)
        assert not core.ok
        assert core.subset == menu(0)
        assert core.slack == F(-1, 4)
        demand = demand_check(nu, FULL_INFO, match_half)
        assert not demand.ok
        assert demand.subset == menu(1)
        assert demand.slack == F(-1, 4)

    def test_no_info_passes_any_marginal(self, match_half):
        menus = menu_measure(NO_INFO_UNIFORM, match_half)
        for nu in (["1/3", "2/3"], [1, 0], ["9/10", "1/10"]):
            assert core_check(make_marginal(nu), menus).ok
            assert demand_check(make_marginal(nu), NO_INFO_UNIFORM, match_half).ok

    def test_subset_guard(self):
        """core_check scans at most 4096 unions of menus, the empty one
        counted; demand_check walks all 2^|A| subsets, so at most 12 actions."""
        for n_actions, accepted in ((12, True), (13, False)):
            nu = make_marginal([F(1, n_actions)] * n_actions)
            singletons = measure_from({menu(a): F(1, n_actions) for a in range(n_actions)})
            if accepted:
                assert core_check(nu, singletons).ok
            else:
                with pytest.raises(TooManyActionsForSubsetCheck, match="8192 unions"):
                    core_check(nu, singletons)
        thirteen = make_game(["t1"], [f"a{a}" for a in range(13)], [[0]] * 13, [1])
        no_info = make_posteriors([(F(1),)], [F(1)])
        with pytest.raises(TooManyActionsForSubsetCheck):
            demand_check(make_marginal([F(1, 13)] * 13), no_info, thirteen)


def three_action_fixture():
    """3x3 guessing game with posteriors whose menus are {a1,a2}, {a2}, and
    the full action set; prior is the tau-average (1/3, 7/12, 1/12)."""
    game = make_game(
        ["t1", "t2", "t3"],
        ["a1", "a2", "a3"],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ["1/3", "7/12", "1/12"],
    )
    tau = make_posteriors(
        [
            (F(1, 2), F(1, 2), F(0)),
            (F(0), F(1), F(0)),
            (F(1, 3), F(1, 3), F(1, 3)),
        ],
        [F(1, 2), F(1, 4), F(1, 4)],
    )
    return game, tau


class TestGaleNetwork:
    def test_menu_edges_match_optimality(self):
        game, tau = three_action_fixture()
        assert is_bayes_plausible(tau, game.integer_prior)
        net = build_gale_network(tau, make_marginal(["1/3", "1/3", "1/3"]), game)
        assert net.edges == ((0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2))
        # tau's weights are quarters and the marginal thirds: one scale, 12
        assert row_fractions((12, net.supplies)) == tau.weights
        assert row_fractions((12, net.demands)) == (F(1, 3), F(1, 3), F(1, 3))

    def test_full_info_two_disjoint_edges(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        assert net.edges == ((0, 0), (1, 1))

    def test_no_info_single_supplier(self, match_half):
        net = build_gale_network(NO_INFO_UNIFORM, make_marginal(["1/2", "1/2"]), match_half)
        assert net.edges == ((0, 0), (0, 1))


class TestMaxFlow:
    def test_full_info_balanced_flow(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        feasible, flow = max_flow_feasible(net)
        assert feasible
        assert table_fractions((2, flow)) == ((F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_full_info_skewed_infeasible(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/4", "3/4"]), match_half)
        assert max_flow_feasible(net) == (False, None)

    def test_positive_demand_with_no_edges(self):
        net = FlowNetwork(supplies=(1,), demands=(1,), edges=())
        assert max_flow_feasible(net) == (False, None)

    def test_augmenting_paths_follow_edge_order(self):
        """BFS takes each node's edges in the order given, so the flow is the
        one those shortest paths build, the third through a reverse edge;
        visiting the neighbors in another order meets the same demands with
        another flow."""
        net, scale = fraction_network(
            supplies=(F(1, 2), F(1, 2)),
            demands=(F(1, 4), F(1, 2), F(1, 4)),
            edges=((0, 0), (0, 1), (0, 2), (1, 0), (1, 1)),
        )
        feasible, flow = max_flow_feasible(net)
        assert feasible
        assert table_fractions((scale, flow)) == (
            (F(0), F(1, 4), F(1, 4)),
            (F(1, 4), F(1, 4), F(0)),
        )

    def test_market_clearing_on_feasible_flows(self):
        game, tau = three_action_fixture()
        nu = make_marginal(["1/3", "7/12", "1/12"])
        net = build_gale_network(tau, nu, game)
        feasible, flow = max_flow_feasible(net)
        assert feasible
        scale, _ = common_scale([tau.integer_weights, nu.integer_probs])
        flow = table_fractions((scale, flow))
        assert tuple(sum(row) for row in flow) == tau.weights
        assert tuple(map(sum, zip(*flow))) == nu.probs
        for i, menu in enumerate(posterior_menus(tau, game)):
            assert all(a in menu for a, f in enumerate(flow[i]) if f)


class TestDecisionRules:
    def test_full_info_degenerate_rule(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        _, flow = max_flow_feasible(net)
        rule = decision_rule_from_flow(flow)
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_no_info_rule_splits_by_demand(self, match_half):
        nu = make_marginal(["1/3", "2/3"])
        net = build_gale_network(NO_INFO_UNIFORM, nu, match_half)
        _, flow = max_flow_feasible(net)
        rule = decision_rule_from_flow(flow)
        assert rule.rows == ((F(1, 3), F(2, 3)),)

    def test_infeasible_flow_rejected(self):
        with pytest.raises(InfeasibleFlow):
            decision_rule_from_flow(None)


class TestMenuRule:
    def test_no_info_menu_rule(self):
        rule = menu_rule_from_core(measure_from({menu(0, 1): F(1)}), make_marginal(["1/3", "2/3"]))
        assert rule_fractions(rule) == {menu(0, 1): (F(1, 3), F(2, 3))}

    def test_full_info_identity(self):
        menus = measure_from({menu(0): F(1, 2), menu(1): F(1, 2)})
        rule = rule_fractions(menu_rule_from_core(menus, make_marginal(["1/2", "1/2"])))
        assert rule[menu(0)] == (F(1), F(0))
        assert rule[menu(1)] == (F(0), F(1))

    def test_mass_identity_holds(self):
        game, tau = three_action_fixture()
        nu = make_marginal(["1/2", "5/12", "1/12"])
        menus = menu_measure(tau, game)
        rule = rule_fractions(menu_rule_from_core(menus, nu))
        masses = measure_fractions(menus)
        for a in range(3):
            recovered = sum(
                (masses[m] * rule[m][a] for m in rule if a in m), F(0)
            )
            assert recovered == nu.probs[a]

    def test_core_violation_raises_with_subset(self):
        menus = measure_from({menu(0): F(1, 2), menu(1): F(1, 2)})
        with pytest.raises(ImplementationInfeasible) as exc:
            menu_rule_from_core(menus, make_marginal(["1/4", "3/4"]))
        assert exc.value.subset == menu(0)

    def test_a_shortfall_with_no_overfull_subset_is_a_disagreement(self, match_half, monkeypatch):
        """Both flows fall short here; a subset scan that then finds nothing
        overfull contradicts Hall's theorem, on the menu path as on the Gale
        path."""
        monkeypatch.setattr(implementation, "core_check", lambda *args: SubsetCheck(ok=True))
        marginal = make_marginal(["1/4", "3/4"])
        with pytest.raises(InternalDisagreement, match="no action subset is overfull"):
            menu_rule_from_core(menu_measure(FULL_INFO, match_half), marginal)
        with pytest.raises(InternalDisagreement, match="no action subset is overfull"):
            implement_marginal(match_half, marginal, FULL_INFO)


class TestOutcomes:
    def test_full_info_identity_outcome(self, match_half):
        rule = decision_rule_from_flow(
            max_flow_feasible(
                build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
            )[1]
        )
        pi = outcome_from_tau(FULL_INFO, rule)
        assert pi.probs == ((F(1, 2), F(0)), (F(0), F(1, 2)))
        sigma = choice_rule_from_outcome(pi, match_half.integer_prior)
        assert sigma.rows == ((F(1), F(0)), (F(0), F(1)))
        assert sigma == reference_choice_rule_from_tau(FULL_INFO, rule, match_half.prior)

    def test_implement_no_info_marginal(self, match_half):
        pi = implement_marginal(match_half, make_marginal(["1/3", "2/3"]), NO_INFO_UNIFORM)
        assert pi.probs == ((F(1, 6), F(1, 6)), (F(1, 3), F(1, 3)))
        assert check_obedience(pi, match_half).obedient
        assert check_state_marginal(pi, match_half.integer_prior)
        assert check_action_marginal(pi, make_marginal(["1/3", "2/3"]))

    def test_implement_infeasible_reports_overfull_subset(self, match_half):
        with pytest.raises(ImplementationInfeasible) as exc:
            implement_marginal(match_half, make_marginal(["1/4", "3/4"]), FULL_INFO)
        assert exc.value.subset == menu(0)

    def test_implement_requires_bayes_plausible_tau(self, match_half):
        skew = make_posteriors([E1, E2], [F(3, 4), F(1, 4)])
        with pytest.raises(NotBayesPlausible):
            implement_marginal(match_half, make_marginal(["1/2", "1/2"]), skew)

    def test_single_action_game_product(self):
        game = make_game(["t1", "t2"], ["a1"], [[2, 1]], ["1/2", "1/2"])
        pi = implement_marginal(game, make_marginal([1]), NO_INFO_UNIFORM)
        assert pi.probs == ((F(1, 2), F(1, 2)),)


class TestTauFromOutcome:
    def test_full_info_outcome(self):
        tau, rule = tau_from_outcome(make_outcome([["1/2", 0], [0, "1/2"]]), parse_row(UNIFORM2))
        assert tau.support == (E1, E2)
        assert tau.weights == (F(1, 2), F(1, 2))
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_product_outcome_merges_to_point_mass(self):
        pi = make_outcome([["1/6", "1/6"], ["1/3", "1/3"]])
        tau, rule = tau_from_outcome(pi, parse_row(UNIFORM2))
        assert tau.support == (UNIFORM2,)
        assert tau.weights == (F(1),)
        assert rule.rows == ((F(1, 3), F(2, 3)),)

    def test_partial_pooling_witness(self, skewed_outcome):
        tau, rule = tau_from_outcome(skewed_outcome, parse_row((F(3, 4), F(1, 4))))
        assert tau.support == (E1, UNIFORM2)
        assert tau.weights == (F(1, 2), F(1, 2))
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_rejects_wrong_prior(self, skewed_outcome):
        with pytest.raises(StateMarginalMismatch):
            tau_from_outcome(skewed_outcome, parse_row(UNIFORM2))

    def test_round_trip_identity(self, skewed_outcome):
        tau, rule = tau_from_outcome(skewed_outcome, parse_row((F(3, 4), F(1, 4))))
        assert outcome_from_tau(tau, rule).probs == skewed_outcome.probs

    def test_empty_support_gives_the_empty_outcome(self):
        """With no posterior and no rule row there is nothing to accumulate:
        the empty outcome, not an index into the missing support."""
        empty = PosteriorDistribution((1, ()), (1, ()))
        outcome = outcome_from_tau(empty, DecisionRule((1, ())))
        assert outcome == Outcome((1, ()))
        assert outcome.n_actions == outcome.n_states == 0


# Property tests draw small exact games and experiments.  An experiment is a
# nonnegative signal matrix W[s][t]; conditioning the prior on the signal row
# gives posteriors that average back to the prior by construction.

utilities_2 = st.lists(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    min_size=2,
    max_size=3,
)
prior_parts_2 = st.tuples(st.integers(1, 5), st.integers(1, 5))
signal_matrix = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=1,
    max_size=3,
)
marginal_parts = st.lists(st.integers(0, 4), min_size=2, max_size=3)


def game_from(utilities, prior_parts):
    total = sum(prior_parts)
    prior = [F(p, total) for p in prior_parts]
    n_actions = len(utilities)
    return make_game(
        [f"t{i}" for i in range(2)],
        [f"a{j}" for j in range(n_actions)],
        utilities,
        prior,
    )


def tau_from_signals(prior, rows):
    """Bayes-plausible posteriors from a signal likelihood matrix."""
    col_sums = [sum(row[t] for row in rows) for t in range(len(prior))]
    if any(c == 0 for c in col_sums):
        return None
    merged: dict[tuple, Fraction] = {}
    for row in rows:
        weight = sum(prior[t] * F(row[t], col_sums[t]) for t in range(len(prior)))
        if weight == 0:
            continue
        mu = tuple(prior[t] * F(row[t], col_sums[t]) / weight for t in range(len(prior)))
        merged[mu] = merged.get(mu, F(0)) + weight
    support = sorted(merged)
    return make_posteriors(support, [merged[mu] for mu in support])


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(utilities_2, prior_parts_2, signal_matrix, marginal_parts, st.data())
    def test_three_way_equivalence(self, utilities, prior_parts, rows, nu_parts, data):
        game = game_from(utilities, prior_parts)
        tau = tau_from_signals(game.prior, rows)
        if tau is None:
            return
        nu_parts = nu_parts[: game.n_actions]
        while len(nu_parts) < game.n_actions:
            nu_parts = nu_parts + [1]
        if sum(nu_parts) == 0:
            nu_parts[data.draw(st.integers(0, game.n_actions - 1))] = 1
        nu = make_marginal([F(p, sum(nu_parts)) for p in nu_parts])

        menus = menu_measure(tau, game)
        core = core_check(nu, menus)
        demand = demand_check(nu, tau, game)
        feasible, flow = max_flow_feasible(build_gale_network(tau, nu, game))
        assert core.ok == demand.ok == feasible

        if feasible:
            pi = implement_marginal(game, nu, tau)
            assert check_state_marginal(pi, game.integer_prior)
            assert check_action_marginal(pi, nu)
            assert check_obedience(pi, game).obedient
            rule = rule_fractions(menu_rule_from_core(menus, nu))
            masses = measure_fractions(menus)
            for a in range(game.n_actions):
                assert sum(
                    (masses[m] * rule[m][a] for m in rule if a in m), F(0)
                ) == nu.probs[a]
        else:
            with pytest.raises(ImplementationInfeasible):
                implement_marginal(game, nu, tau)

    @settings(max_examples=120, deadline=None)
    @given(utilities_2, prior_parts_2, signal_matrix)
    def test_obedient_round_trip(self, utilities, prior_parts, rows):
        """Send each posterior to a best response; the induced outcome must
        reproduce the experiment up to merging of equal posteriors."""
        game = game_from(utilities, prior_parts)
        tau = tau_from_signals(game.prior, rows)
        if tau is None:
            return
        picks = [min(best_response_set(game, mu)) for mu in tau.support]
        rows_rule = tuple(
            tuple(F(1) if a == picks[i] else F(0) for a in range(game.n_actions))
            for i in range(tau.size)
        )
        pi = outcome_from_tau(tau, DecisionRule(parse_table(rows_rule)))
        assert check_obedience(pi, game).obedient
        tau_back, rule_back = tau_from_outcome(pi, game.integer_prior)
        assert outcome_from_tau(tau_back, rule_back).probs == pi.probs
        assert sum(tau_back.weights) == F(1)


# -- integer arithmetic against the Fraction code it replaced ---------------
#
# The implement path computes on integers over common denominators and builds
# a Fraction once per returned value. The functions below are the earlier
# Fraction versions, with their bodies kept as they were (only names,
# annotations and docstrings dropped or changed), as the references: the
# integer code must return exactly what they return.

REF_ZERO = Fraction(0)
_REF_SOURCE = ("__source__",)
_REF_SINK = ("__sink__",)


def reference_max_flow_feasible(network):
    residual = {_REF_SOURCE: {}, _REF_SINK: {}}

    def ensure(node):
        if node not in residual:
            residual[node] = {}
        return residual[node]

    def add_edge(u, v, cap):
        ensure(u)[v] = ensure(u).get(v, REF_ZERO) + cap
        ensure(v).setdefault(u, REF_ZERO)

    for node, supply in network.supplies:
        if supply > 0:
            add_edge(_REF_SOURCE, node, supply)
        else:
            ensure(node)
    total_demand = REF_ZERO
    for node, demand in network.demands:
        total_demand += demand
        if demand > 0:
            add_edge(node, _REF_SINK, demand)
        else:
            ensure(node)
    for u, v, cap in network.edges:
        if cap > 0:
            add_edge(u, v, cap)

    pushed = REF_ZERO
    while True:
        # BFS for the shortest augmenting path
        parent = {_REF_SOURCE: _REF_SOURCE}
        queue = deque([_REF_SOURCE])
        while queue and _REF_SINK not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if _REF_SINK not in parent:
            break
        bottleneck = None
        v = _REF_SINK
        while v != _REF_SOURCE:
            u = parent[v]
            cap = residual[u][v]
            bottleneck = cap if bottleneck is None else min(bottleneck, cap)
            v = u
        v = _REF_SINK
        while v != _REF_SOURCE:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
            v = u
        pushed += bottleneck

    if pushed != total_demand:
        return False, None
    flow = {}
    for u, v, cap in network.edges:
        used = residual[v].get(u, REF_ZERO) if cap > 0 else REF_ZERO
        flow[(u, v)] = used
    return True, flow


def reference_choice_rule_from_tau(tau, rule, prior):
    n_actions = len(rule.rows[0]) if rule.rows else 0
    rows = []
    for t, p in enumerate(prior):
        row = [REF_ZERO] * n_actions
        for i, (mu, w) in enumerate(zip(tau.support, tau.weights)):
            if mu[t] == 0:
                continue
            factor = w * mu[t] / p
            for a in range(n_actions):
                if rule.rows[i][a]:
                    row[a] += factor * rule.rows[i][a]
        rows.append(tuple(row))
    return StochasticChoiceRule(parse_table(rows))


def reference_outcome_from_tau(tau, rule, prior):
    sigma = reference_choice_rule_from_tau(tau, rule, prior)
    n_actions = len(rule.rows[0]) if rule.rows else 0
    probs = tuple(
        tuple(prior[t] * sigma.rows[t][a] for t in range(len(prior)))
        for a in range(n_actions)
    )
    return Outcome(parse_table(probs))


def reference_choice_rule_from_outcome(outcome, prior):
    if not reference_check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)} differs from prior {tuple(prior)}"
        )
    rows = tuple(
        tuple(outcome.probs[a][t] / prior[t] for a in range(outcome.n_actions))
        for t in range(outcome.n_states)
    )
    return StochasticChoiceRule(parse_table(rows))


# Small denominators, and unlike, mostly coprime ones near 10^6 (999983 and
# 1000003 are prime, 2^20 and 10^6 share only powers of two).
DENOMINATORS = st.one_of(
    st.integers(12, 60),
    st.sampled_from([999_983, 1_000_003, 999_979, 1_000_000, 2**20]),
    st.integers(10**6 - 30, 10**6 + 30),
)


@st.composite
def distributions(draw, n, positive=False):
    """A probability vector of length ``n`` <= 12 with unlike denominators:
    n - 1 drawn entries of at most 1/n each (possibly 0 unless ``positive``)
    and their complement, in a drawn order. An entry is a drawn number of
    eighths of 1/n, moved within its eighth, so the drawn entries carry
    their share of the mass: Hypothesis draws a wide range mostly near its
    ends, and a numerator drawn from 0 to d/n would leave nearly all the
    mass to the complement."""
    low = 1 if positive else 0
    entries = []
    for _ in range(n - 1):
        d = draw(DENOMINATORS)
        top = d // n
        eighths = draw(st.integers(0, 7))
        entries.append(F(eighths * top // 8 + draw(st.integers(low, max(low, top // 8))), d))
    entries.append(1 - sum(entries, F(0)))
    return tuple(draw(st.permutations(entries)))


@st.composite
def experiments(draw):
    """(tau, rule): 1-12 distinct posteriors over 1-4 states and a decision
    rule over 1-4 actions, zero entries included."""
    n_states = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 4))
    beliefs = draw(st.lists(distributions(n_states), min_size=1, max_size=12))
    support = list(dict.fromkeys(beliefs))
    weights = draw(distributions(len(support), positive=True))
    rows = [draw(distributions(n_actions)) for _ in support]
    return make_posteriors(support, weights), DecisionRule(parse_table(rows))


@st.composite
def networks(draw, total=None):
    """(network, scale): supply/demand networks shaped like the Gale
    network, whose supplies and demands are drawn as ``Fraction``s and
    held as ints over their common ``scale``. Unlike denominators, and zero
    supplies and demands. A third of them draw each
    edge or not, and many fall short of the demands; a third are complete
    and meet every demand. The last third are dense: two supplies and two
    demands at least, each edge left out one time in six. Most of those meet
    every demand, many by a flow that depends on the order BFS visits
    neighbours in, which a complete network never does. Supplies and
    demands each sum to ``total``, or to a drawn total: 1, or a rational
    above or below it."""
    shape = draw(st.sampled_from(("sparse", "complete", "dense")))
    smallest = 2 if shape == "dense" else 1
    n_supplies, n_demands = draw(st.integers(smallest, 6)), draw(st.integers(smallest, 6))
    if total is None:
        total = draw(st.sampled_from([F(1), F(3, 7), F(5, 2)]))
    supplies = tuple(total * w for w in draw(distributions(n_supplies)))
    demands = tuple(total * q for q in draw(distributions(n_demands)))

    def kept():
        if shape == "sparse":
            return draw(st.booleans())
        # Hypothesis favours the ends of a range, so the omission sits at
        # an interior value.
        return shape == "complete" or draw(st.integers(0, 5)) != 3

    edges = tuple((i, a) for i in range(n_supplies) for a in range(n_demands) if kept())
    return fraction_network(supplies, demands, edges)


KeyedNetwork = namedtuple("KeyedNetwork", "supplies demands edges")


def keyed(network, scale, capacity=None):
    """The network as ``reference_max_flow_feasible`` reads it: supply i
    keyed ("posterior", i), demand j keyed ("action", j), each the
    ``Fraction`` its int stands for over ``scale``, and every edge of
    ``capacity``, by default the total supply, as the solver has it."""
    if capacity is None:
        capacity = F(sum(network.supplies), scale)
    return KeyedNetwork(
        supplies=tuple((("posterior", i), F(w, scale)) for i, w in enumerate(network.supplies)),
        demands=tuple((("action", j), F(q, scale)) for j, q in enumerate(network.demands)),
        edges=tuple((("posterior", i), ("action", j), capacity) for i, j in network.edges),
    )


def keyed_result(network, scale, result):
    """A solver result with its flow read on the keyed edges as the
    ``Fraction``s its ints stand for over ``scale``, as the reference
    returns it."""
    feasible, flow = result
    if flow is None:
        return feasible, None
    return feasible, {
        (("posterior", i), ("action", j)): F(flow[i][j], scale) for i, j in network.edges
    }


def mean_of(tau):
    dim = len(tau.support[0])
    return tuple(
        sum((w * mu[t] for w, mu in zip(tau.weights, tau.support)), F(0)) for t in range(dim)
    )


def result_or_error(compute, *args):
    try:
        return compute(*args)
    except Exception as err:  # the exception type is what is compared
        return type(err)


class TestIntegerArithmeticMatchesFractions:
    @settings(max_examples=100, deadline=None)
    @given(experiments(), st.data())
    def test_outcome_and_choice_rule(self, experiment, data):
        """The outcome, which reads no prior, is the reference's at the Bayes
        mean of tau (zero states included) and at an unrelated full-support
        prior; and, through that outcome, the same choice rule where the
        mean has full support, and ZeroPriorState where it has a zero
        state."""
        tau, rule = experiment
        mean = mean_of(tau)
        other = data.draw(distributions(len(mean), positive=True))
        assert is_bayes_plausible(tau, parse_row(mean))
        assert is_bayes_plausible(tau, parse_row(other)) == (other == mean)
        outcome = outcome_from_tau(tau, rule)
        for prior in (mean, other):
            assert outcome == reference_outcome_from_tau(tau, rule, prior)
        assert all(type(q) is Fraction for row in outcome.probs for q in row)
        sigma = result_or_error(choice_rule_from_outcome, outcome, parse_row(mean))
        if all(mean):
            assert sigma == reference_choice_rule_from_tau(tau, rule, mean)
        else:
            assert sigma is ZeroPriorState

    @settings(max_examples=100, deadline=None)
    @given(experiments(), st.data())
    def test_choice_rule_from_outcome(self, experiment, data):
        """Also where the prior is not the outcome's state marginal, or has a
        zero state: the same rule, or the same exception, except that where
        the reference divides by a zero prior entry the rule refuses it."""
        tau, rule = experiment
        outcome = reference_outcome_from_tau(tau, rule, mean_of(tau))
        other = data.draw(distributions(outcome.n_states))
        for prior in (state_marginal_of(outcome), other):
            expected = result_or_error(reference_choice_rule_from_outcome, outcome, prior)
            if expected is ZeroDivisionError:
                expected = ZeroPriorState
            assert result_or_error(choice_rule_from_outcome, outcome, parse_row(prior)) == expected

    @settings(max_examples=200, deadline=None)
    @given(networks())
    def test_max_flow(self, drawn):
        """The same verdict and the same flow on every declared edge, read
        over the network's scale, with the total supply as each edge's
        capacity; 0 off the edges."""
        network, scale = drawn
        feasible, flow = max_flow_feasible(network)
        expected = reference_max_flow_feasible(keyed(network, scale))
        assert keyed_result(network, scale, (feasible, flow)) == expected
        if feasible:
            assert len(flow) == len(network.supplies)
            assert all(len(row) == len(network.demands) for row in flow)
            assert all(type(f) is int for row in flow for f in row)
            off_edges = {
                (i, j) for i, row in enumerate(flow) for j, _ in enumerate(row)
            } - set(network.edges)
            assert all(flow[i][j] == 0 for i, j in off_edges)

    @settings(max_examples=200, deadline=None)
    @given(networks(total=F(1)))
    def test_unit_capacities_are_the_total_supply(self, drawn):
        """Where the supplies sum to 1, as both of the package's networks'
        do, edges of capacity 1 give the reference the solver's verdict and
        flow."""
        network, scale = drawn
        assert sum(network.supplies) == scale
        expected = reference_max_flow_feasible(keyed(network, scale, capacity=F(1)))
        assert keyed_result(network, scale, max_flow_feasible(network)) == expected

    @settings(max_examples=200, deadline=None)
    @given(networks(), st.integers(1, 10**6))
    def test_scaling_the_network_scales_the_flow(self, drawn, k):
        """The caller picks the scale: every supply and demand times k gives
        the same verdict and the flow times k."""
        network, _ = drawn
        feasible, flow = max_flow_feasible(network)
        scaled = FlowNetwork(
            tuple([k * w for w in network.supplies]),
            tuple([k * q for q in network.demands]),
            network.edges,
        )
        expected = None if flow is None else tuple(tuple(k * f for f in row) for row in flow)
        assert max_flow_feasible(scaled) == (feasible, expected)

    def test_max_flow_properties_reach_both_verdicts(self):
        """The network strategy draws feasible and infeasible networks."""
        verdicts = set()

        @settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @given(networks())
        def collect(drawn):
            verdicts.add(max_flow_feasible(drawn[0])[0])

        collect()
        assert verdicts == {True, False}


# -- the union scan against the exhaustive scan it replaced -----------------
#
# core_check scans only the unions of menus. The uncapped scan of every
# nonempty action subset is the reference: the two must return the same
# subset and the same slack.


def action_subsets(n_actions):
    """Every nonempty subset of the actions, in size-then-lexicographic
    order."""
    for size in range(1, n_actions + 1):
        for combo in combinations(range(n_actions), size):
            yield frozenset(combo)


def reference_core_check(marginal, menus):
    masses = measure_fractions(menus)
    for subset in action_subsets(len(marginal.probs)):
        slack = reference_core_slack(marginal, masses, subset)
        if slack < 0:
            return SubsetCheck(ok=False, subset=subset, slack=slack)
    return SubsetCheck(ok=True)


@st.composite
def menu_instances(draw):
    """(marginal, menu measure) over 1-8 actions: zero marginal entries,
    posteriors sharing a menu, nested menus, and actions no menu offers;
    half the time a marginal the menus split into exactly."""
    n_actions = draw(st.integers(1, 8))
    offered = range(draw(st.integers(1, n_actions)))
    menus = st.frozensets(st.sampled_from(offered), min_size=1)
    pool = draw(st.lists(menus, min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append(pool[0] | pool[-1])
    posteriors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    weights = draw(distributions(len(posteriors), positive=True))
    measure = {}
    for m, w in zip(posteriors, weights):
        measure[m] = measure.get(m, F(0)) + w
    if draw(st.booleans()):
        probs = [F(0)] * n_actions
        for m, w in measure.items():
            probs[draw(st.sampled_from(sorted(m)))] += w
    else:
        probs = draw(distributions(n_actions))
    return make_marginal(probs), measure_from(measure)


def thirteen_action_fixture():
    """2 states, 13 actions: a1 and a2 pay in t1, a3 in t2, the rest
    never. Full information on a uniform prior gives menus {a1, a2} and
    {a3}, half the mass each; a13 is offered by no menu."""
    utility = [[1, 0], [1, 0], [0, 1]] + [[0, 0]] * 10
    game = make_game(["t1", "t2"], [f"a{a + 1}" for a in range(13)], utility, ["1/2", "1/2"])
    return game, make_posteriors([E1, E2], [F(1, 2), F(1, 2)])


class TestCoreCheckScansUnionsOfMenus:
    @settings(max_examples=200, deadline=None)
    @given(menu_instances())
    def test_same_subset_and_slack_as_the_exhaustive_scan(self, instance):
        marginal, measure = instance
        assert core_check(marginal, measure) == reference_core_check(marginal, measure)
        masses = measure_fractions(measure)
        assert all(
            core_slack(marginal, measure, subset) == reference_core_slack(marginal, masses, subset)
            for subset in action_subsets(len(marginal.probs))
        )

    def test_thirteen_actions_decided(self):
        """13 actions are decided: the infeasible marginal names the subset
        and slack the scan of all 8,191 subsets finds, and the feasible twin
        passes all of them."""
        game, tau = thirteen_action_fixture()
        measure = menu_measure(tau, game)
        infeasible = make_marginal([F(1, 8), F(1, 8), F(1, 2)] + [0] * 9 + [F(1, 4)])
        feasible = make_marginal([F(1, 4), F(1, 4), F(1, 2)] + [0] * 10)
        core = core_check(infeasible, measure)
        assert core == reference_core_check(infeasible, measure)
        assert core == SubsetCheck(ok=False, subset=menu(0, 1), slack=F(-1, 4))
        with pytest.raises(ImplementationInfeasible) as err:
            implement_marginal(game, infeasible, tau)
        assert (err.value.subset, err.value.deficit) == (core.subset, core.slack)
        assert core_check(feasible, measure) == reference_core_check(feasible, measure)
        assert core_check(feasible, measure) == SubsetCheck(ok=True)
        assert check_action_marginal(implement_marginal(game, feasible, tau), feasible)
