"""Consistency verdicts: residual conditions vs the transport-LP oracle.

Expected numbers were derived from the polytope geometry before running the
code (on paper for the small instances, by independent exact vertex
arithmetic for the four-state one), then frozen.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce import polytope
from mbce.consistency import (
    ACTION_PAIR_CONDITION,
    STATE_CONDITION,
    STRASSEN_DIRECTION,
    UNSUPPORTABLE_ACTION,
    action_pair_residual,
    belief_decomposition,
    check_bce_consistent,
    oracle_feasibility,
    separating_direction,
    state_condition_residual,
    strassen_residual,
)
from mbce.errors import NotADistribution, UnsupportableAction
from mbce.game import (
    BaseGame,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    make_game,
    make_marginal,
    matching_game,
)
from mbce.polytope import opt_belief_polytope

F = Fraction

HALF_HALF = make_marginal(["1/2", "1/2"])
QUARTER_REST = make_marginal(["1/4", "3/4"])


def pair_bound_instance():
    """Two actions, three states; every state condition holds but shifting
    mass onto the second action overpromises payoff spread (worked example:
    aggregated max spread 4/5 falls short of the prior spread 5/6)."""
    game = make_game(
        ["t1", "t2", "t3"],
        ["a1", "a2"],
        [[-1, "3/2", -2], [3, -2, 0]],
        ["1/3", "1/3", "1/3"],
    )
    return game, make_marginal(["4/5", "1/5"])


class TestStateCondition:
    def test_boundary_case_is_exactly_zero(self, match_three_quarters):
        assert state_condition_residual(match_three_quarters, HALF_HALF, 1) == 0

    def test_overloaded_second_action(self, match_three_quarters):
        assert state_condition_residual(match_three_quarters, QUARTER_REST, 1) == F(-1, 8)

    def test_point_mass_on_prior_optimal_action(self, match_three_quarters):
        point = make_marginal([1, 0])
        for t in range(2):
            assert state_condition_residual(match_three_quarters, point, t) >= 0

    def test_unsupportable_action_raises(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[0, 0], [1, 1]], ["1/2", "1/2"])
        with pytest.raises(UnsupportableAction):
            state_condition_residual(game, HALF_HALF, 0)


class TestActionPairCondition:
    def test_binding_pair_is_exactly_zero(self, match_three_quarters):
        assert action_pair_residual(match_three_quarters, HALF_HALF, 0, 1) == 0

    def test_slack_pair(self, match_three_quarters):
        # direction (-1, 1): aggregated max is 1/2, prior value is -1/2
        assert action_pair_residual(match_three_quarters, HALF_HALF, 1, 0) == F(1)

    def test_equal_pair_is_zero(self, match_three_quarters):
        assert action_pair_residual(match_three_quarters, HALF_HALF, 1, 1) == 0


class TestStrassenResidual:
    def test_zero_direction(self, match_three_quarters):
        assert strassen_residual(match_three_quarters, HALF_HALF, (F(0), F(0))) == 0

    def test_all_ones_direction(self, match_three_quarters):
        assert strassen_residual(match_three_quarters, HALF_HALF, (F(1), F(1))) == 0

    def test_negative_unit_matches_state_residual(self, match_three_quarters):
        assert strassen_residual(
            match_three_quarters, QUARTER_REST, (F(0), F(-1))
        ) == F(-1, 8)


class TestCheckConsistent:
    def test_balanced_marginal_consistent_with_unique_witness(self, match_three_quarters):
        verdict = check_bce_consistent(match_three_quarters, HALF_HALF)
        assert verdict.consistent
        assert verdict.violation is None
        # the feasible set is a single point here, so the witness is forced
        assert verdict.witness.probs == (
            (F(1, 2), F(0)),
            (F(1, 4), F(1, 4)),
        )

    def test_overloaded_marginal_certificate(self, match_three_quarters):
        verdict = check_bce_consistent(match_three_quarters, QUARTER_REST)
        assert not verdict.consistent
        cert = verdict.violation
        assert cert.kind == STATE_CONDITION
        assert cert.state == 1
        assert cert.residual == F(-1, 8)
        assert cert.direction == (F(0), F(-1))
        assert strassen_residual(match_three_quarters, QUARTER_REST, cert.direction) == cert.residual

    def test_point_mass_consistent_iff_prior_in_polytope(self):
        for p in (F(1, 4), F(1, 2), F(3, 4)):
            game = matching_game(p)
            for a in range(2):
                point = make_marginal([1 if i == a else 0 for i in range(2)])
                verdict = check_bce_consistent(game, point)
                inside = opt_belief_polytope(game, a).contains(game.prior)
                assert verdict.consistent == inside

    def test_unsupportable_action_certificate(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[0, 0], [1, 1]], ["1/2", "1/2"])
        verdict = check_bce_consistent(game, HALF_HALF)
        assert not verdict.consistent
        assert verdict.violation.kind == UNSUPPORTABLE_ACTION
        assert verdict.violation.action == 0

    def test_state_condition_reported_before_pair(self):
        # point mass on the wrong action: both a state and a pair condition
        # fail; the state one must win the race
        game = matching_game(F(1, 4))
        verdict = check_bce_consistent(game, make_marginal([1, 0]))
        cert = verdict.violation
        assert cert.kind == STATE_CONDITION
        assert cert.state == 0
        assert cert.residual == F(-1, 4)

    def test_pair_condition_can_bind_alone(self):
        game, marginal = pair_bound_instance()
        for t in range(game.n_states):
            assert state_condition_residual(game, marginal, t) >= 0
        verdict = check_bce_consistent(game, marginal)
        assert not verdict.consistent
        cert = verdict.violation
        assert cert.kind == ACTION_PAIR_CONDITION
        assert cert.pair == (1, 0)
        assert cert.residual == F(-1, 30)
        assert strassen_residual(game, marginal, cert.direction) == F(-1, 30)
        feasible, _ = oracle_feasibility(game, marginal)
        assert not feasible

    def test_a_game_built_directly_is_still_validated(self):
        """A game that no parser has seen is validated on the way in."""
        game = BaseGame(
            states=("t1", "t2"),
            actions=("a1", "a2"),
            utility=((F(1), F(0)), (F(0), F(1))),
            prior=(F(1, 2), F(1, 3)),
        )
        for _ in range(2):
            with pytest.raises(NotADistribution):
                check_bce_consistent(game, HALF_HALF)


class TestBeyondNamedFamilies:
    def test_named_conditions_all_pass_on_blind_spot(self, direction_blind_spot):
        game, marginal = direction_blind_spot
        assert min(
            state_condition_residual(game, marginal, t) for t in range(game.n_states)
        ) == F(1271, 51205)
        assert min(
            action_pair_residual(game, marginal, a, b)
            for a in range(game.n_actions)
            for b in range(game.n_actions)
            if a != b
        ) == F(647, 3080)

    def test_blind_spot_still_rejected_with_direction_certificate(self, direction_blind_spot):
        game, marginal = direction_blind_spot
        verdict = check_bce_consistent(game, marginal)
        assert not verdict.consistent
        cert = verdict.violation
        assert cert.kind == STRASSEN_DIRECTION
        assert cert.direction == (F(1), F(1), F(-2, 21), F(-1))
        assert cert.residual == F(-548521, 17124030)
        assert strassen_residual(game, marginal, cert.direction) == cert.residual
        assert oracle_feasibility(game, marginal) == (False, None)
        assert belief_decomposition(game, marginal) is None

    def test_decomposition_reproduces_forced_witness(self, match_three_quarters):
        outcome = belief_decomposition(match_three_quarters, HALF_HALF)
        # the feasible set is a single point, so the decomposition is forced
        assert outcome.probs == ((F(1, 2), F(0)), (F(1, 4), F(1, 4)))
        assert check_obedience(outcome, match_three_quarters).obedient
        assert check_state_marginal(outcome, match_three_quarters.prior)
        assert check_action_marginal(outcome, HALF_HALF)

    def test_decomposition_skips_unsupported_actions(self, match_three_quarters):
        outcome = belief_decomposition(match_three_quarters, make_marginal([1, 0]))
        assert outcome.probs[1] == (F(0), F(0))
        assert check_state_marginal(outcome, match_three_quarters.prior)

    def test_no_separating_direction_when_consistent(self, match_three_quarters):
        assert separating_direction(match_three_quarters, HALF_HALF) is None

    def test_separating_direction_covers_named_failures_too(self):
        game, marginal = pair_bound_instance()
        c = separating_direction(game, marginal)
        assert strassen_residual(game, marginal, c) < 0


class TestOracle:
    def test_feasible_witness_passes_every_check(self, match_three_quarters):
        feasible, witness = oracle_feasibility(match_three_quarters, HALF_HALF)
        assert feasible
        assert check_obedience(witness, match_three_quarters).obedient
        assert check_state_marginal(witness, match_three_quarters.prior)
        assert check_action_marginal(witness, HALF_HALF)

    def test_infeasible_case(self, match_three_quarters):
        assert oracle_feasibility(match_three_quarters, QUARTER_REST) == (False, None)

    def test_point_mass_product_witness(self, match_three_quarters):
        feasible, witness = oracle_feasibility(match_three_quarters, make_marginal([1, 0]))
        assert feasible
        assert witness.probs == ((F(3, 4), F(1, 4)), (F(0), F(0)))


@settings(max_examples=60, deadline=None)
@given(
    utility_num=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    prior_num=st.lists(st.integers(1, 4), min_size=2, max_size=2),
    marginal_num=st.lists(st.integers(0, 4), min_size=2, max_size=2).filter(
        lambda xs: sum(xs) > 0
    ),
)
def test_characterization_agrees_with_oracle(utility_num, prior_num, marginal_num):
    game = make_game(
        ["t1", "t2"],
        ["a1", "a2"],
        [utility_num[:2], utility_num[2:]],
        [F(p, sum(prior_num)) for p in prior_num],
    )
    marginal = make_marginal([F(m, sum(marginal_num)) for m in marginal_num])
    verdict = check_bce_consistent(game, marginal)
    feasible, witness = oracle_feasibility(game, marginal)
    assert verdict.consistent == feasible
    assert (belief_decomposition(game, marginal) is not None) == feasible
    if verdict.consistent:
        assert check_obedience(witness, game).obedient
        assert check_state_marginal(witness, game.prior)
        assert check_action_marginal(witness, marginal)
    else:
        cert = verdict.violation
        if cert.kind != UNSUPPORTABLE_ACTION:
            assert cert.residual < 0
            assert strassen_residual(game, marginal, cert.direction) == cert.residual


@pytest.mark.parametrize(
    "marginal, consistent", [(["1/4", "1/2", "1/4"], True), ([0, 1, 0], False)]
)
def test_full_information_screen_makes_no_polytope_lp(monkeypatch, marginal, consistent):
    """Each action of the three-state guessing game is the best response at
    its own state's point mass, so the emptiness screen settles every
    supported action without a phase-one LP."""
    calls = []
    real = polytope.lp_feasible
    monkeypatch.setattr(polytope, "lp_feasible", lambda *a, **k: calls.append(a) or real(*a, **k))
    game = make_game(
        ["t1", "t2", "t3"], ["a1", "a2", "a3"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ["1/2", "1/4", "1/4"],
    )
    verdict = check_bce_consistent(game, make_marginal(marginal))
    assert verdict.consistent is consistent
    assert calls == []
