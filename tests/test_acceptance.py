"""The acceptance gate: nine seeded, exact, desk-scale properties.

Every criterion is a single test so one -v line answers it; each also prints
a "criterion N: PASS" summary with the counts it saw. Criterion 9 is also
stated as two Hypothesis properties over drawn generator seeds. All
arithmetic is exact rational; there are no tolerances anywhere, including
at boundaries.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbce.applications import (
    MarginalProfile,
    action_profiles,
    auxiliary_single_agent,
    check_public_bce,
    check_ring,
    check_ring_obedience,
    construct_ring_outcome,
    make_profile,
    ring_pair_marginal,
    ring_player_marginal,
    ring_stage_game,
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
from mbce.generators import XorShift64, random_game, random_marginal
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
from mbce.linprog import EQUAL, GREATER_EQUAL, lp_feasible
from mbce.polytope import (
    enumerate_vertices,
    is_empty,
    maximize_direction,
    opt_belief_polytope,
)
from mbce.rationals import parse_row, row_fractions
from instances import (
    consistent_marginal,
    corrupt_ring_profile,
    inconsistent_marginal,
    random_consistent_ring,
    random_direction,
    random_first_order,
    random_posteriors,
    random_ring,
)
from references import dot, make_constraint

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
    scale, masses = menus
    probs = [F(0)] * n_actions
    for menu in sorted(masses, key=lambda m: (len(m), sorted(m))):
        members = sorted(menu)
        parts = [rng.randint(1, 4) for _ in members]
        total = sum(parts)
        for a, part in zip(members, parts):
            probs[a] += F(masses[menu], scale) * F(part, total)
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
            assert check_state_marginal(outcome, game.integer_prior)
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
        tau, rule = tau_from_outcome(outcome, game.integer_prior)
        rebuilt = outcome_from_tau(tau, rule)
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
            assert row_fractions(ring_player_marginal(joint, i)) == marginal.probs
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


# Drawn instances: a generator seed.
SEEDS = st.integers(1, 2**64 - 1)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.booleans())
def test_criterion_6_chained_joint_is_obedient_on_drawn_seeds(seed, silent_first):
    """The ring joint chained from ``check_ring``'s witnesses at a drawn
    ``random_consistent_ring`` seed: each pair marginal is its embedded
    stage witness, so the joint is obedient and reproduces every player's
    marginal. With ``silent_first`` player 1 plays one best response to the
    prior, as ``consistent_marginal`` does when its draws fail, so every
    other action of theirs has zero mass upstream of player 2."""
    rng = XorShift64(seed)
    if silent_first:
        # random_consistent_ring's stage-by-stage choice, with player 1's
        # marginal fixed.
        ring = random_ring(rng)
        first = ring.stages[0]
        anchor = min(best_response_set(first, first.prior))
        chosen = [make_marginal([int(a == anchor) for a in range(first.n_actions)])]
        for i in range(1, ring.n_players):
            stage = ring_stage_game(ring, MarginalProfile(tuple(chosen)), i)
            chosen.append(consistent_marginal(rng, stage))
        profile = MarginalProfile(tuple(chosen))
        assert 0 in profile.marginals[0].probs
    else:
        ring, profile = random_consistent_ring(rng)
    verdict = check_ring(ring, profile)
    assert verdict.consistent
    joint = construct_ring_outcome(verdict.stage_witnesses)
    for i, witness in enumerate(verdict.stage_witnesses):
        assert ring_pair_marginal(joint, i) == witness
    assert check_ring_obedience(joint, ring)
    for i, marginal in enumerate(profile.marginals):
        assert row_fractions(ring_player_marginal(joint, i)) == marginal.probs


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
        for p, profile in enumerate(action_profiles(fo)):
            poly = opt_belief_polytope(aux, p)
            for vertex in map(row_fractions, enumerate_vertices(poly)):
                for i, a_i in enumerate(profile):
                    assert a_i in best_response_set(fo.players[i], vertex)
                vertices_checked += 1
    print(
        f"criterion 7: PASS - 100 reductions agree, {vertices_checked} "
        f"auxiliary vertices satisfy the product best-response decomposition"
    )


def joint_bce_feasible(prior, profiles, marginal_rows, obedience_rows):
    """Whether some joint distribution over (state, profile) cells has the
    prior, the given marginals and every obedience inequality: one exact LP.

    ``marginal_rows`` holds ``(cell -> bool, mass)`` pairs, ``obedience_rows``
    functions ``cell -> gain`` whose weighted sum must be nonnegative."""
    cells = [(t, p) for t in range(len(prior)) for p in profiles]
    rows = [
        make_constraint([int(t == s) for t, _ in cells], EQUAL, q) for s, q in enumerate(prior)
    ]
    rows += [
        make_constraint([int(on(cell)) for cell in cells], EQUAL, q) for on, q in marginal_rows
    ]
    rows += [make_constraint(list(map(gain, cells)), GREATER_EQUAL, 0) for gain in obedience_rows]
    return lp_feasible(len(cells), rows, nonneg=True)[0]


def ring_joint_feasible(ring, profile):
    """The ring BCE stated directly: player i, told a_i, prefers it to any
    b given what it reacts to (the state for player 1, a_{i-1} after)."""
    widths = [len(labels) for labels in ring.actions]
    marginal_rows = [
        (lambda cell, i=i, a=a: cell[1][i] == a, q)
        for i, marginal in enumerate(profile.marginals)
        for a, q in enumerate(marginal.probs)
    ]
    obedience_rows = []
    for i, u in enumerate(stage.utility for stage in ring.stages):
        for a, b in product(range(widths[i]), repeat=2):
            if a != b:
                def gain(cell, i=i, a=a, b=b, u=u):
                    t, p = cell
                    s = t if i == 0 else p[i - 1]
                    return u[a][s] - u[b][s] if p[i] == a else 0

                obedience_rows.append(gain)
    profiles = list(product(*map(range, widths)))
    return joint_bce_feasible(ring.stages[0].prior, profiles, marginal_rows, obedience_rows)


def public_joint_feasible(fo, marginal):
    """The public-signal BCE stated directly: the recommended profile is
    public, and each player prefers their own part of it to any b."""
    profiles = action_profiles(fo)
    marginal_rows = [
        (lambda cell, p=p: cell[1] == p, q) for p, q in zip(profiles, marginal.probs)
    ]
    obedience_rows = []
    for i, player in enumerate(fo.players):
        for p in profiles:
            for b in range(player.n_actions):
                if b != p[i]:
                    def gain(cell, i=i, p=p, b=b, u=player.utility):
                        t, q = cell
                        return u[p[i]][t] - u[b][t] if q == p else 0

                    obedience_rows.append(gain)
    return joint_bce_feasible(fo.players[0].prior, profiles, marginal_rows, obedience_rows)


def test_criterion_9_joint_lps_agree_with_both_reductions():
    """Stated as one LP over (state, profile), each multi-player question
    gets the verdict of its single-agent reduction, on consistent,
    corrupted and random marginals: the joint LP is feasible only if the
    reduction accepts, and the other way round."""
    rng = XorShift64(901)
    verdicts = {"ring": [], "public": []}
    for kind in ("consistent", "corrupted", "random"):
        while sum(k == kind for k, _ in verdicts["ring"]) < 30:
            ring, profile = random_consistent_ring(rng)
            if kind == "corrupted":
                bad = corrupt_ring_profile(rng, ring, profile)
                if bad is None:
                    continue
                profile = bad[0]
            elif kind == "random":
                vectors = [random_marginal(rng, len(labels)) for labels in ring.actions]
                profile = make_profile(ring, vectors)
            consistent = check_ring(ring, profile).consistent
            assert ring_joint_feasible(ring, profile) == consistent
            verdicts["ring"].append((kind, consistent))
        while sum(k == kind for k, _ in verdicts["public"]) < 30:
            fo = random_first_order(rng)
            aux = auxiliary_single_agent(fo)
            if kind == "consistent":
                marginal = consistent_marginal(rng, aux)
            elif kind == "corrupted":
                marginal = inconsistent_marginal(rng, aux)
                if marginal is None:
                    continue
            else:
                marginal = random_marginal(rng, aux.n_actions)
            consistent = check_public_bce(fo, marginal).consistent
            assert public_joint_feasible(fo, marginal) == consistent
            verdicts["public"].append((kind, consistent))
    for setting, seen in verdicts.items():
        assert {v for k, v in seen if k == "consistent"} == {True}
        assert {v for k, v in seen if k == "corrupted"} == {False}
    print(
        "criterion 9: PASS - "
        + ", ".join(
            f"{len(seen)} {setting} instances ({sum(v for _, v in seen)} consistent)"
            for setting, seen in verdicts.items()
        )
        + ", each joint LP agrees with its reduction"
    )


# Criterion 9 over drawn instances: which marginal to take for the instance
# a drawn seed gives.
MARGINAL_KINDS = st.sampled_from(["consistent", "corrupted", "random"])


@settings(max_examples=100, deadline=None)
@given(SEEDS, MARGINAL_KINDS)
def test_criterion_9_ring_joint_lp_agrees_on_drawn_seeds(seed, kind):
    """``random_consistent_ring`` at a drawn seed, with its own profile, a
    corrupted one or random marginals: the joint LP over (state, profile)
    is feasible exactly when ``check_ring`` accepts."""
    rng = XorShift64(seed)
    ring, profile = random_consistent_ring(rng)
    if kind == "corrupted":
        bad = corrupt_ring_profile(rng, ring, profile)
        assume(bad is not None)
        profile = bad[0]
    elif kind == "random":
        profile = make_profile(
            ring, [random_marginal(rng, len(labels)) for labels in ring.actions]
        )
    consistent = check_ring(ring, profile).consistent
    assert ring_joint_feasible(ring, profile) == consistent
    assert kind == "random" or consistent == (kind == "consistent")


@settings(max_examples=100, deadline=None)
@given(SEEDS, MARGINAL_KINDS)
def test_criterion_9_public_joint_lp_agrees_on_drawn_seeds(seed, kind):
    """``random_first_order`` at a drawn seed, with a profile marginal the
    auxiliary game reaches, one it cannot reach or a random one: the joint
    LP over (state, profile) is feasible exactly when ``check_public_bce``
    accepts."""
    rng = XorShift64(seed)
    fo = random_first_order(rng)
    aux = auxiliary_single_agent(fo)
    if kind == "consistent":
        marginal = consistent_marginal(rng, aux)
    elif kind == "corrupted":
        marginal = inconsistent_marginal(rng, aux)
        assume(marginal is not None)
    else:
        marginal = random_marginal(rng, aux.n_actions)
    consistent = check_public_bce(fo, marginal).consistent
    assert public_joint_feasible(fo, marginal) == consistent
    assert kind == "random" or consistent == (kind == "consistent")


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
        value, argmax = maximize_direction(poly, parse_row(direction))
        assert value == max(dot(direction, row_fractions(v)) for v in enumerate_vertices(poly))
        assert poly.contains(row_fractions(argmax))
        compared += 1
    print(f"criterion 8: PASS - {compared} LP maxima equal the vertex scan")
