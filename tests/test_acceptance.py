"""The acceptance gate: eight seeded, exact, desk-scale properties.

Every criterion is a single test so one -v line answers it; each also prints
a "criterion N: PASS" summary with the counts it saw. All arithmetic is
exact rational; there are no tolerances anywhere, including at boundaries.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from mbce.applications import (
    action_profiles,
    auxiliary_single_agent,
    check_public_bce,
    check_ring,
    check_ring_obedience,
    construct_ring_outcome,
    player_game,
    ring_player_marginal,
)
from mbce.consistency import (
    action_pair_residual,
    belief_decomposition,
    check_bce_consistent,
    oracle_feasibility,
)
from mbce.game import (
    best_response_set,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    make_marginal,
    matching_game,
)
from mbce.generators import (
    XorShift64,
    corrupt_ring_profile,
    random_consistent_ring,
    random_direction,
    random_first_order,
    random_game,
    random_marginal,
    random_posteriors,
)
from mbce.implementation import (
    build_gale_network,
    core_check,
    demand_check,
    implement_marginal,
    menu_measure,
    outcome_from_tau,
    tau_from_outcome,
)
from mbce.flows import max_flow_feasible
from mbce.polytope import (
    dot,
    enumerate_vertices,
    is_empty,
    maximize_direction,
    opt_belief_polytope,
)

F = Fraction

# Seed 7 matters: its 17th instance is the four-state pair that the named
# direction families accept but the oracle rejects, so this sweep exercises
# the separating-direction certificate, not just the easy conditions.
SWEEP_SEED = 7
SWEEP_SIZE = 500


@pytest.fixture(scope="module")
def sweep():
    rng = XorShift64(SWEEP_SEED)
    records = []
    started = time.perf_counter()
    for _ in range(SWEEP_SIZE):
        game = random_game(rng, max_states=4, max_actions=4)
        marginal = random_marginal(rng, game.n_actions)
        verdict = check_bce_consistent(game, marginal)
        feasible, _ = oracle_feasibility(game, marginal)
        records.append((game, marginal, verdict, feasible))
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_1_checker_matches_oracle_on_500_instances(sweep):
    records, elapsed = sweep
    disagreements = [
        i for i, (_, _, verdict, feasible) in enumerate(records)
        if verdict.consistent != feasible
    ]
    assert disagreements == []
    # The checker's accept is the oracle's own; the belief-space vertex
    # program is the independent route that must agree with it.
    belief_disagreements = [
        i for i, (game, marginal, _, feasible) in enumerate(records)
        if (belief_decomposition(game, marginal) is not None) != feasible
    ]
    assert belief_disagreements == []
    assert elapsed <= 60.0
    consistent = sum(1 for _, _, v, _ in records if v.consistent)
    print(
        f"criterion 1: PASS - {len(records)} instances, 0 disagreements, "
        f"{consistent} consistent, {elapsed:.1f}s"
    )


def test_criterion_2_matching_boundary_is_exact():
    game = matching_game(F(3, 4))
    sweep_points = [F(0), F(1, 4), F(1, 2), F(1, 2) + F(1, 1000), F(3, 4), F(1)]
    expected = [True, True, True, False, False, False]
    got = []
    for q in sweep_points:
        marginal = make_marginal([1 - q, q])
        verdict = check_bce_consistent(game, marginal)
        feasible, _ = oracle_feasibility(game, marginal)
        assert verdict.consistent == feasible
        got.append(verdict.consistent)
    assert got == expected
    print("criterion 2: PASS - boundary point 1/2 consistent, 1/2+1/1000 not")


def test_criterion_3_reversed_pair_conditions_are_redundant(sweep):
    records, _ = sweep
    consistent = [(g, m) for g, m, v, _ in records if v.consistent]
    checked = 0
    for game, marginal in consistent:
        for a in range(game.n_actions):
            for b in range(game.n_actions):
                if a != b:
                    assert action_pair_residual(game, marginal, b, a) >= 0
                    checked += 1
    print(
        f"criterion 3: PASS - {checked} reversed-pair residuals on "
        f"{len(consistent)} consistent instances, 0 violations"
    )


def _menu_respecting_marginal(rng, menus, n_actions):
    """Split each menu's mass across its members; implementable by design."""
    probs = [F(0)] * n_actions
    for menu in sorted(menus, key=lambda m: (len(m), sorted(m))):
        members = sorted(menu)
        parts = [rng.randint(1, 4) for _ in members]
        total = sum(parts)
        for a, part in zip(members, parts):
            probs[a] += menus[menu] * F(part, total)
    return make_marginal(probs)


def test_criterion_4_three_way_implementation_equivalence():
    rng = XorShift64(401)
    feasible_count = 0
    for index in range(200):
        game = random_game(rng, max_states=4, max_actions=4)
        tau = random_posteriors(rng, game.prior)
        menus = menu_measure(tau, game)
        if index % 2 == 0:
            marginal = random_marginal(rng, game.n_actions)
        else:
            marginal = _menu_respecting_marginal(rng, menus, game.n_actions)
        core = core_check(marginal, menus)
        demand = demand_check(marginal, tau, game)
        flow_ok, _ = max_flow_feasible(build_gale_network(tau, marginal, game))
        assert core.ok == demand.ok == flow_ok
        if core.ok:
            feasible_count += 1
            outcome = implement_marginal(game, marginal, tau)
            assert check_obedience(outcome, game).obedient
            assert check_state_marginal(outcome, game.prior)
            assert check_action_marginal(outcome, marginal)
    assert feasible_count >= 100  # the odd draws are feasible by construction
    print(
        f"criterion 4: PASS - 200 triples, three verdicts equal on all, "
        f"{feasible_count} feasible and implemented exactly"
    )


def test_criterion_5_outcome_tau_round_trip(sweep):
    records, _ = sweep
    witnesses = [
        (game, verdict.witness)
        for game, _, verdict, _ in records
        if verdict.consistent
    ]
    assert len(witnesses) >= 100
    for game, outcome in witnesses[:100]:
        tau, rule = tau_from_outcome(outcome, game.prior)
        rebuilt = outcome_from_tau(tau, rule, game.prior)
        assert rebuilt.probs == outcome.probs
    print("criterion 5: PASS - 100 witness outcomes rebuilt entrywise equal")


def test_criterion_6_ring_construction_and_corruption():
    rng = XorShift64(601)
    built = 0
    while built < 100:
        ring, profile = random_consistent_ring(rng)
        verdict = check_ring(ring, profile)
        assert verdict.consistent
        joint = construct_ring_outcome(verdict.stage_witnesses)
        assert check_ring_obedience(joint, ring)
        for i, marginal in enumerate(profile.marginals):
            assert ring_player_marginal(joint, i) == marginal.probs
        built += 1

    corrupted = 0
    attempts = 0
    while corrupted < 100:
        attempts += 1
        assert attempts <= 2000  # corruptible rings are the common case
        ring, profile = random_consistent_ring(rng)
        bad = corrupt_ring_profile(rng, ring, profile)
        if bad is None:  # every stage accepts every marginal; try another ring
            continue
        bad_profile, stage = bad
        verdict = check_ring(ring, bad_profile)
        assert not verdict.consistent
        assert verdict.failing_stage == stage
        corrupted += 1
    print(
        f"criterion 6: PASS - 100 rings rebuilt and obedient, 100 corrupted "
        f"rings failed at the corrupted stage ({attempts} draws)"
    )


def test_criterion_7_public_reduction_and_vertex_decomposition():
    rng = XorShift64(701)
    vertices_checked = 0
    for _ in range(100):
        fo = random_first_order(rng)
        aux = auxiliary_single_agent(fo)
        marginal = random_marginal(rng, aux.n_actions)
        public = check_public_bce(fo, marginal)
        direct = check_bce_consistent(aux, marginal)
        assert public.consistent == direct.consistent
        games = [player_game(fo, i) for i in range(len(fo.players))]
        for p, profile in enumerate(action_profiles(fo)):
            poly = opt_belief_polytope(aux, p)
            for vertex in enumerate_vertices(poly):
                for i, a_i in enumerate(profile):
                    assert a_i in best_response_set(games[i], vertex)
                vertices_checked += 1
    print(
        f"criterion 7: PASS - 100 reductions agree, {vertices_checked} "
        f"auxiliary vertices satisfy the product best-response decomposition"
    )


def test_criterion_8_lp_maximum_equals_vertex_maximum():
    rng = XorShift64(801)
    compared = 0
    while compared < 1000:
        game = random_game(rng, max_states=4, max_actions=4)
        action = rng.randint(0, game.n_actions - 1)
        poly = opt_belief_polytope(game, action)
        if is_empty(poly):
            continue
        direction = random_direction(rng, game.n_states)
        value, argmax = maximize_direction(poly, direction)
        assert value == max(dot(direction, v) for v in enumerate_vertices(poly))
        assert poly.contains(argmax)
        compared += 1
    print(f"criterion 8: PASS - {compared} LP maxima equal the vertex scan")
