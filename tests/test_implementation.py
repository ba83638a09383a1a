"""Experiment construction: menu measures, subset tests, flows, round trips."""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.errors import (
    CoreViolation,
    ImplementationInfeasible,
    NotADistribution,
    NotBayesPlausible,
    StateMarginalMismatch,
    TooManyActionsForSubsetCheck,
)
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
    build_gale_network,
    choice_rule_from_tau,
    core_check,
    decision_rule_from_flow,
    demand_check,
    implement_marginal,
    is_bayes_plausible,
    make_posteriors,
    menu_measure,
    menu_rule_from_core,
    outcome_from_tau,
    tau_from_outcome,
)

F = Fraction

E1 = (F(1), F(0))
E2 = (F(0), F(1))
UNIFORM2 = (F(1, 2), F(1, 2))

FULL_INFO = make_posteriors([E1, E2], [F(1, 2), F(1, 2)])
NO_INFO_UNIFORM = make_posteriors([UNIFORM2], [F(1)])


def menu(*actions):
    return frozenset(actions)


class TestPosteriorDistribution:
    def test_rejects_duplicate_support(self):
        with pytest.raises(NotADistribution):
            make_posteriors([UNIFORM2, UNIFORM2], [F(1, 2), F(1, 2)])

    def test_rejects_zero_weight(self):
        with pytest.raises(NotADistribution):
            make_posteriors([E1, E2], [F(1), F(0)])

    def test_bayes_plausibility(self):
        assert is_bayes_plausible(NO_INFO_UNIFORM, UNIFORM2)
        assert is_bayes_plausible(FULL_INFO, UNIFORM2)
        skew = make_posteriors([E1, E2], [F(3, 4), F(1, 4)])
        assert not is_bayes_plausible(skew, UNIFORM2)


class TestMenuMeasure:
    def test_full_information_splits_singletons(self, match_half):
        assert menu_measure(FULL_INFO, match_half) == {
            menu(0): F(1, 2),
            menu(1): F(1, 2),
        }

    def test_tie_belief_gets_pair_menu(self, match_half):
        assert menu_measure(NO_INFO_UNIFORM, match_half) == {menu(0, 1): F(1)}

    def test_single_action_game(self):
        game = make_game(["t1", "t2"], ["a1"], [[1, 0]], ["1/2", "1/2"])
        assert menu_measure(NO_INFO_UNIFORM, game) == {menu(0): F(1)}


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
        wide = make_marginal([F(1, 13)] * 13)
        with pytest.raises(TooManyActionsForSubsetCheck):
            core_check(wide, {})


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
        assert is_bayes_plausible(tau, game.prior)
        net = build_gale_network(tau, make_marginal(["1/3", "1/3", "1/3"]), game)
        assert len(net.edges) == 6
        edge_pairs = {(u[1], v[1]) for u, v, _ in net.edges}
        assert edge_pairs == {(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)}

    def test_full_info_two_disjoint_edges(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        assert [(u[1], v[1]) for u, v, _ in net.edges] == [(0, 0), (1, 1)]

    def test_no_info_single_supplier(self, match_half):
        net = build_gale_network(NO_INFO_UNIFORM, make_marginal(["1/2", "1/2"]), match_half)
        assert [(u[1], v[1]) for u, v, _ in net.edges] == [(0, 0), (0, 1)]


class TestMaxFlow:
    def test_full_info_balanced_flow(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        feasible, flow = max_flow_feasible(net)
        assert feasible
        assert flow[(("posterior", 0), ("action", 0))] == F(1, 2)
        assert flow[(("posterior", 1), ("action", 1))] == F(1, 2)

    def test_full_info_skewed_infeasible(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/4", "3/4"]), match_half)
        assert max_flow_feasible(net) == (False, None)

    def test_positive_demand_with_no_edges(self):
        net = FlowNetwork(
            supplies=((("posterior", 0), F(1)),),
            demands=((("action", 0), F(1)),),
            edges=(),
        )
        assert max_flow_feasible(net) == (False, None)

    def test_market_clearing_on_feasible_flows(self):
        game, tau = three_action_fixture()
        nu = make_marginal(["1/3", "7/12", "1/12"])
        net = build_gale_network(tau, nu, game)
        feasible, flow = max_flow_feasible(net)
        assert feasible
        for i, w in enumerate(tau.weights):
            out = sum(f for (u, _), f in flow.items() if u == ("posterior", i))
            assert out == w
        for a, q in enumerate(nu.probs):
            into = sum(f for (_, v), f in flow.items() if v == ("action", a))
            assert into == q


class TestDecisionRules:
    def test_full_info_degenerate_rule(self, match_half):
        net = build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
        _, flow = max_flow_feasible(net)
        rule = decision_rule_from_flow(flow, FULL_INFO, 2)
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_no_info_rule_splits_by_demand(self, match_half):
        nu = make_marginal(["1/3", "2/3"])
        net = build_gale_network(NO_INFO_UNIFORM, nu, match_half)
        _, flow = max_flow_feasible(net)
        rule = decision_rule_from_flow(flow, NO_INFO_UNIFORM, 2)
        assert rule.rows == ((F(1, 3), F(2, 3)),)

    def test_infeasible_flow_rejected(self):
        with pytest.raises(Exception):
            decision_rule_from_flow(None, NO_INFO_UNIFORM, 2)


class TestMenuRule:
    def test_no_info_menu_rule(self):
        rule = menu_rule_from_core({menu(0, 1): F(1)}, make_marginal(["1/3", "2/3"]))
        assert rule == {menu(0, 1): (F(1, 3), F(2, 3))}

    def test_full_info_identity(self):
        menus = {menu(0): F(1, 2), menu(1): F(1, 2)}
        rule = menu_rule_from_core(menus, make_marginal(["1/2", "1/2"]))
        assert rule[menu(0)] == (F(1), F(0))
        assert rule[menu(1)] == (F(0), F(1))

    def test_mass_identity_holds(self):
        game, tau = three_action_fixture()
        nu = make_marginal(["1/2", "5/12", "1/12"])
        menus = menu_measure(tau, game)
        rule = menu_rule_from_core(menus, nu)
        for a in range(3):
            recovered = sum(
                (menus[m] * rule[m][a] for m in rule if a in m), F(0)
            )
            assert recovered == nu.probs[a]

    def test_core_violation_raises_with_subset(self):
        menus = {menu(0): F(1, 2), menu(1): F(1, 2)}
        with pytest.raises(CoreViolation) as exc:
            menu_rule_from_core(menus, make_marginal(["1/4", "3/4"]))
        assert exc.value.subset == menu(0)


class TestOutcomes:
    def test_full_info_identity_outcome(self, match_half):
        rule = decision_rule_from_flow(
            max_flow_feasible(
                build_gale_network(FULL_INFO, make_marginal(["1/2", "1/2"]), match_half)
            )[1],
            FULL_INFO,
            2,
        )
        sigma = choice_rule_from_tau(FULL_INFO, rule, match_half.prior)
        assert sigma.rows == ((F(1), F(0)), (F(0), F(1)))
        pi = outcome_from_tau(FULL_INFO, rule, match_half.prior)
        assert pi.probs == ((F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_implement_no_info_marginal(self, match_half):
        pi = implement_marginal(match_half, make_marginal(["1/3", "2/3"]), NO_INFO_UNIFORM)
        assert pi.probs == ((F(1, 6), F(1, 6)), (F(1, 3), F(1, 3)))
        assert check_obedience(pi, match_half).obedient
        assert check_state_marginal(pi, match_half.prior)
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
        tau, rule = tau_from_outcome(make_outcome([["1/2", 0], [0, "1/2"]]), UNIFORM2)
        assert tau.support == (E1, E2)
        assert tau.weights == (F(1, 2), F(1, 2))
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_product_outcome_merges_to_point_mass(self):
        pi = make_outcome([["1/6", "1/6"], ["1/3", "1/3"]])
        tau, rule = tau_from_outcome(pi, UNIFORM2)
        assert tau.support == (UNIFORM2,)
        assert tau.weights == (F(1),)
        assert rule.rows == ((F(1, 3), F(2, 3)),)

    def test_partial_pooling_witness(self, skewed_outcome):
        tau, rule = tau_from_outcome(skewed_outcome, (F(3, 4), F(1, 4)))
        assert tau.support == (E1, UNIFORM2)
        assert tau.weights == (F(1, 2), F(1, 2))
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_rejects_wrong_prior(self, skewed_outcome):
        with pytest.raises(StateMarginalMismatch):
            tau_from_outcome(skewed_outcome, UNIFORM2)

    def test_round_trip_identity(self, skewed_outcome):
        prior = (F(3, 4), F(1, 4))
        tau, rule = tau_from_outcome(skewed_outcome, prior)
        assert outcome_from_tau(tau, rule, prior).probs == skewed_outcome.probs


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
            assert check_state_marginal(pi, game.prior)
            assert check_action_marginal(pi, nu)
            assert check_obedience(pi, game).obedient
            rule = menu_rule_from_core(menus, nu)
            for a in range(game.n_actions):
                assert sum(
                    (menus[m] * rule[m][a] for m in rule if a in m), F(0)
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
        pi = outcome_from_tau(tau, DecisionRule(rows_rule), game.prior)
        assert check_obedience(pi, game).obedient
        tau_back, rule_back = tau_from_outcome(pi, game.prior)
        assert outcome_from_tau(tau_back, rule_back, game.prior).probs == pi.probs
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
    return StochasticChoiceRule(rows=tuple(rows))


def reference_outcome_from_tau(tau, rule, prior):
    sigma = reference_choice_rule_from_tau(tau, rule, prior)
    n_actions = len(rule.rows[0]) if rule.rows else 0
    probs = tuple(
        tuple(prior[t] * sigma.rows[t][a] for t in range(len(prior)))
        for a in range(n_actions)
    )
    return Outcome(probs=probs)


def reference_choice_rule_from_outcome(outcome, prior):
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)} differs from prior {tuple(prior)}"
        )
    rows = tuple(
        tuple(outcome.probs[a][t] / prior[t] for a in range(outcome.n_actions))
        for t in range(outcome.n_states)
    )
    return StochasticChoiceRule(rows=rows)


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
    and their complement, in a drawn order."""
    entries = []
    for _ in range(n - 1):
        d = draw(DENOMINATORS)
        entries.append(F(draw(st.integers(1 if positive else 0, d // n)), d))
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
    return make_posteriors(support, weights), DecisionRule(tuple(rows))


@st.composite
def networks(draw):
    """Supply/demand networks shaped like the Gale network: unlike
    denominators, zero supplies and demands, and edges of capacity 1, 0 or a
    drawn rational, or no edge; many fall short of the demands."""
    n_supplies, n_demands = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    supplies = draw(distributions(n_supplies))
    demands = draw(distributions(n_demands))
    capacities = st.one_of(
        st.none(), st.just(F(1)), st.just(F(0)), DENOMINATORS.map(lambda d: F(d // 3, d))
    )
    edges = []
    for i in range(n_supplies):
        for a in range(n_demands):
            cap = draw(capacities)
            if cap is not None:
                edges.append((("posterior", i), ("action", a), cap))
    return FlowNetwork(
        supplies=tuple((("posterior", i), w) for i, w in enumerate(supplies)),
        demands=tuple((("action", a), q) for a, q in enumerate(demands)),
        edges=tuple(edges),
    )


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
        """At the Bayes mean of tau (zero states included) and at an
        unrelated full-support prior, the same outcome and choice rule."""
        tau, rule = experiment
        mean = mean_of(tau)
        other = data.draw(distributions(len(mean), positive=True))
        assert is_bayes_plausible(tau, mean)
        assert is_bayes_plausible(tau, other) == (other == mean)
        for prior in (mean, other):
            outcome = outcome_from_tau(tau, rule, prior)
            assert outcome == reference_outcome_from_tau(tau, rule, prior)
            assert all(type(q) is Fraction for row in outcome.probs for q in row)
            sigma = choice_rule_from_tau(tau, rule, prior)
            assert sigma == reference_choice_rule_from_tau(tau, rule, prior)

    @settings(max_examples=100, deadline=None)
    @given(experiments(), st.data())
    def test_choice_rule_from_outcome(self, experiment, data):
        """Also where the prior is not the outcome's state marginal, or has a
        zero state: the same rule, or the same exception."""
        tau, rule = experiment
        outcome = reference_outcome_from_tau(tau, rule, mean_of(tau))
        other = data.draw(distributions(outcome.n_states))
        for prior in (state_marginal_of(outcome), other):
            expected = result_or_error(reference_choice_rule_from_outcome, outcome, prior)
            assert result_or_error(choice_rule_from_outcome, outcome, prior) == expected

    @settings(max_examples=200, deadline=None)
    @given(networks())
    def test_max_flow(self, network):
        """The same verdict and the same flow on every declared edge."""
        feasible, flow = max_flow_feasible(network)
        assert (feasible, flow) == reference_max_flow_feasible(network)
        if feasible:
            assert all(type(f) is Fraction for f in flow.values())

    def test_max_flow_properties_reach_both_verdicts(self):
        """The network strategy draws feasible and infeasible networks."""
        verdicts = set()

        @settings(max_examples=100, deadline=None, database=None)
        @given(networks())
        def collect(network):
            verdicts.add(max_flow_feasible(network)[0])

        collect()
        assert verdicts == {True, False}
