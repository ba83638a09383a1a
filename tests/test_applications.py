"""Public-signal reduction for first-order games and ring-network checks."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mbce import applications
from mbce.applications import (
    MAX_PROFILES,
    MarginalProfile,
    RingOutcome,
    action_profiles,
    auxiliary_single_agent,
    check_public_bce,
    check_ring,
    check_ring_obedience,
    construct_ring_outcome,
    make_first_order,
    make_profile,
    make_ring,
    player_game,
    ring_pair_marginal,
    ring_player_marginal,
    ring_profiles,
    ring_stage_game,
)
from mbce.consistency import (
    STATE_CONDITION,
    UNSUPPORTABLE_ACTION,
    check_bce_consistent,
    oracle_feasibility,
)
from mbce.errors import (
    DimensionMismatch,
    NotADistribution,
    ProductTooLarge,
    StageMarginalMismatch,
)
from mbce.game import (
    Outcome,
    best_response_set,
    make_game,
    make_marginal,
    make_outcome,
)
from mbce.polytope import enumerate_vertices, opt_belief_polytope

F = Fraction

MATCH_ROWS = [[1, 0], [0, 1]]


def two_matching_players(prior):
    return make_first_order(
        ["t1", "t2"],
        prior,
        [(["x1", "x2"], MATCH_ROWS), (["y1", "y2"], MATCH_ROWS)],
    )


def make_match_ring(p):
    """Player 1 guesses the state; player 2 guesses player 1's action."""
    p = F(p) if not isinstance(p, F) else p
    return make_ring(
        ["t1", "t2"],
        [p, 1 - p],
        [(["a1", "a2"], MATCH_ROWS), (["b1", "b2"], MATCH_ROWS)],
    )


class TestAuxiliaryGame:
    def test_two_matching_players(self):
        fo = two_matching_players(["1/2", "1/2"])
        aux = auxiliary_single_agent(fo)
        assert aux.actions == ("x1,y1", "x1,y2", "x2,y1", "x2,y2")
        assert aux.utility == (
            (F(2), F(0)),
            (F(1), F(1)),
            (F(1), F(1)),
            (F(0), F(2)),
        )
        assert aux.states == fo.states
        assert aux.prior == fo.prior

    def test_single_player_is_identity(self):
        fo = make_first_order(
            ["t1", "t2"], ["2/3", "1/3"], [(["a1", "a2"], [[3, -1], [0, 2]])]
        )
        aux = auxiliary_single_agent(fo)
        solo = player_game(fo, 0)
        assert aux.actions == solo.actions
        assert aux.utility == solo.utility
        assert aux.prior == solo.prior

    def test_constant_utilities_make_every_profile_optimal(self):
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [(["a1", "a2"], [[1, 1], [1, 1]]), (["b1", "b2"], [[0, 0], [0, 0]])],
        )
        aux = auxiliary_single_agent(fo)
        uniform = (F(1, 2), F(1, 2))
        for a in range(aux.n_actions):
            poly = opt_belief_polytope(aux, a)
            assert poly.contains(uniform)
            assert poly.contains((F(1), F(0)))

    def test_profile_cap(self, monkeypatch):
        # 13 two-action players make 2^13 = 8192 profiles, twice MAX_PROFILES:
        # refused from the count alone, before any profile is built.
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [([f"p{i}a", f"p{i}b"], MATCH_ROWS) for i in range(13)],
        )
        monkeypatch.setattr(
            applications, "action_profiles", lambda fo: pytest.fail("profiles built")
        )
        assert MAX_PROFILES == 4096
        with pytest.raises(ProductTooLarge, match="8192 action profiles"):
            auxiliary_single_agent(fo)

    def test_profiles_enumerate_last_player_fastest(self):
        fo = two_matching_players(["1/2", "1/2"])
        assert action_profiles(fo) == ((0, 0), (0, 1), (1, 0), (1, 1))


def profile_br_product(fo, aux, belief):
    """Profiles whose coordinates are all per-player best responses."""
    per_player = [best_response_set(player_game(fo, i), belief) for i in range(fo.n_players)]
    return frozenset(
        idx
        for idx, prof in enumerate(action_profiles(fo))
        if all(a in per_player[i] for i, a in enumerate(prof))
    )


class TestPublicCheck:
    def test_matched_profiles_uniform_prior_consistent(self):
        fo = two_matching_players(["1/2", "1/2"])
        verdict = check_public_bce(fo, make_marginal(["1/2", 0, 0, "1/2"]))
        assert verdict.consistent
        aux = auxiliary_single_agent(fo)
        for idx, row in enumerate(verdict.witness.probs):
            mass = sum(row, F(0))
            if mass == 0:
                continue
            belief = tuple(q / mass for q in row)
            assert idx in profile_br_product(fo, aux, belief)

    def test_mismatched_profiles_uniform_prior_use_public_coin(self):
        # The uniform prior sits inside both mismatch-profile belief sets, so
        # an uninformative public signal already implements this profile law.
        fo = two_matching_players(["1/2", "1/2"])
        verdict = check_public_bce(fo, make_marginal([0, "1/2", "1/2", 0]))
        assert verdict.consistent

    def test_mismatched_profiles_skewed_prior_inconsistent(self):
        # Mismatch profiles are optimal only at the centre belief, which can
        # carry at most half the mass of each state; a 3/4 prior breaks that.
        fo = two_matching_players(["3/4", "1/4"])
        verdict = check_public_bce(fo, make_marginal([0, "1/2", "1/2", 0]))
        assert not verdict.consistent
        assert verdict.violation.kind == STATE_CONDITION
        aux = auxiliary_single_agent(fo)
        feasible, _ = oracle_feasibility(aux, make_marginal([0, "1/2", "1/2", 0]))
        assert not feasible

    def test_single_player_matches_plain_checker(self):
        fo = make_first_order(
            ["t1", "t2"], ["3/4", "1/4"], [(["a1", "a2"], MATCH_ROWS)]
        )
        nu = make_marginal(["1/2", "1/2"])
        public = check_public_bce(fo, nu)
        plain = check_bce_consistent(player_game(fo, 0), nu)
        assert public.consistent == plain.consistent == True  # noqa: E712

    def test_vertex_beliefs_decompose_profilewise(self):
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [(["x1", "x2"], MATCH_ROWS), (["y1", "y2"], [[2, -1], [-1, 3]])],
        )
        aux = auxiliary_single_agent(fo)
        for idx in range(aux.n_actions):
            for vertex in enumerate_vertices(opt_belief_polytope(aux, idx)):
                assert best_response_set(aux, vertex) == profile_br_product(
                    fo, aux, vertex
                )


class TestRingCheck:
    def test_consistent_two_player_ring(self):
        ring = make_match_ring("3/4")
        profile = make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]])
        verdict = check_ring(ring, profile)
        assert verdict.consistent
        assert verdict.failing_stage is None
        assert len(verdict.stage_witnesses) == 2
        # Stage 1's witness is pinned down uniquely at this boundary marginal.
        assert verdict.stage_witnesses[0].probs == (
            (F(1, 2), F(0)),
            (F(1, 4), F(1, 4)),
        )

    def test_inconsistent_at_first_stage(self):
        ring = make_match_ring("3/4")
        profile = make_profile(ring, [["1/4", "3/4"], ["1/2", "1/2"]])
        verdict = check_ring(ring, profile)
        assert not verdict.consistent
        assert verdict.failing_stage == 0
        assert verdict.violation is not None
        assert verdict.stage_witnesses is None

    def test_inconsistent_at_second_stage(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], ["1/2", "1/2"]])
        verdict = check_ring(ring, profile)
        assert not verdict.consistent
        assert verdict.failing_stage == 1
        # Downstream of a point mass, guessing the unused upstream action is
        # optimal at no belief of the restricted one-state stage game.
        assert verdict.violation.kind == UNSUPPORTABLE_ACTION
        assert verdict.violation.action == 1

    def test_constant_utilities_accept_anything(self):
        ring = make_ring(
            ["t1", "t2"],
            ["1/3", "2/3"],
            [(["a1", "a2"], [[5, 5], [5, 5]]), (["b1", "b2"], [[0, 0], [0, 0]])],
        )
        for vec in (["1/7", "6/7"], [1, 0], ["1/2", "1/2"]):
            profile = make_profile(ring, [vec, list(reversed(vec))])
            assert check_ring(ring, profile).consistent

    def test_stage_game_restriction(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], [1, 0]])
        stage = ring_stage_game(ring, profile, 1)
        assert stage.states == ("a1",)
        assert stage.prior == (F(1),)
        assert stage.utility == ((F(1),), (F(0),))

    def test_witnesses_embed_over_full_upstream_space(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], [1, 0]])
        verdict = check_ring(ring, profile)
        assert verdict.consistent
        second = verdict.stage_witnesses[1]
        assert second.probs == ((F(1), F(0)), (F(0), F(0)))

    def test_profile_length_checked(self):
        ring = make_match_ring("1/2")
        short = MarginalProfile((make_marginal(["1/2", "1/2"]),))
        with pytest.raises(DimensionMismatch):
            check_ring(ring, short)


class TestRingOutcome:
    def test_two_player_product_table(self):
        ring = make_match_ring("3/4")
        profile = make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]])
        verdict = check_ring(ring, profile)
        joint = construct_ring_outcome(verdict.stage_witnesses)
        assert joint.shape == (2, 2)
        assert len(joint.probs) == 4 and joint.n_states == 2
        assert ring_pair_marginal(joint, 0).probs == verdict.stage_witnesses[0].probs
        assert ring_pair_marginal(joint, 1).probs == verdict.stage_witnesses[1].probs
        for i in range(2):
            assert ring_player_marginal(joint, i) == profile.marginals[i].probs
        assert check_ring_obedience(joint, ring)

    def test_single_stage_is_identity(self):
        witness = make_outcome([["1/2", 0], ["1/4", "1/4"]])
        joint = construct_ring_outcome([witness])
        assert joint.shape == (2,)
        assert joint.probs == witness.probs
        assert ring_pair_marginal(joint, 0).probs == witness.probs

    def test_independent_stages_give_product_law(self):
        mu = (F(2, 3), F(1, 3))
        nu1 = (F(1, 4), F(3, 4))
        nu2 = (F(3, 5), F(2, 5))
        first = Outcome(tuple(tuple(q * t for t in mu) for q in nu1))
        second = Outcome(tuple(tuple(q * s for s in nu1) for q in nu2))
        joint = construct_ring_outcome([first, second])
        for idx, prof in enumerate(ring_profiles(joint.shape)):
            for t in range(2):
                assert joint.probs[idx][t] == nu1[prof[0]] * nu2[prof[1]] * mu[t]

    def test_zero_mass_upstream_action_gets_uniform_conditional(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], [1, 0]])
        verdict = check_ring(ring, profile)
        joint = construct_ring_outcome(verdict.stage_witnesses)
        for i in range(2):
            assert ring_player_marginal(joint, i) == profile.marginals[i].probs
        assert check_ring_obedience(joint, ring)
        assert sum(sum(row, F(0)) for row in joint.probs) == F(1)

    def test_mismatched_stage_marginals_rejected(self):
        first = make_outcome([["1/2", 0], ["1/4", "1/4"]])
        second = make_outcome([["3/4", 0], [0, "1/4"]])
        with pytest.raises(StageMarginalMismatch):
            construct_ring_outcome([first, second])


class TestRingObedience:
    def test_mismatch_point_mass_disobeys(self):
        ring = make_match_ring("1/2")
        joint_rows = [[F(0)] * 2 for _ in range(4)]
        joint_rows[1][0] = F(1)  # profile (a1, b2) in state t1
        outcome = RingOutcome((2, 2), 2, tuple(tuple(r) for r in joint_rows))
        assert not check_ring_obedience(outcome, ring)

    def test_constant_utilities_always_obedient(self):
        ring = make_ring(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [(["a1", "a2"], [[0, 0], [0, 0]]), (["b1", "b2"], [[2, 2], [2, 2]])],
        )
        rows = [
            (F(1, 8), F(1, 8)),
            (F(1, 8), F(1, 8)),
            (F(1, 8), F(1, 8)),
            (F(1, 8), F(1, 8)),
        ]
        assert check_ring_obedience(RingOutcome((2, 2), 2, tuple(rows)), ring)

    def test_shape_mismatch_rejected(self):
        ring = make_match_ring("1/2")
        bad = RingOutcome((2,), 2, ((F(1, 2), F(1, 2)),))
        with pytest.raises(DimensionMismatch):
            check_ring_obedience(bad, ring)


class TestFactories:
    def test_first_order_validates_each_player(self):
        with pytest.raises(NotADistribution):
            make_first_order(["t1", "t2"], ["1/2", "1/3"], [(["a1"], [[0, 0]])])
        with pytest.raises(DimensionMismatch):
            make_first_order(["t1", "t2"], ["1/2", "1/2"], [(["a1"], [[0]])])
        with pytest.raises(DimensionMismatch):
            make_first_order(["t1", "t2"], ["1/2", "1/2"], [])

    def test_ring_validates_stage_shapes(self):
        with pytest.raises(DimensionMismatch):
            make_ring(
                ["t1", "t2"],
                ["1/2", "1/2"],
                [(["a1", "a2"], MATCH_ROWS), (["b1"], [[1, 0, 0]])],
            )
        with pytest.raises(DimensionMismatch):
            make_ring(["t1", "t2"], ["1/2", "1/2"], [])

    def test_profile_validates_lengths_and_mass(self):
        ring = make_match_ring("1/2")
        with pytest.raises(DimensionMismatch):
            make_profile(ring, [["1/2", "1/2"]])
        with pytest.raises(NotADistribution):
            make_profile(ring, [["1/2", "1/2"], ["1/2", "1/3"]])
