"""Core type validation, obedience, marginals, best responses.

Expected values below were computed by hand from the 2x2 guessing game
before the checks were implemented, then frozen.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbce import game as game_module
from mbce.consistency import check_bce_consistent
from mbce.errors import (
    DimensionMismatch,
    EmptySpace,
    NotADistribution,
    StateMarginalMismatch,
    ZeroPriorState,
)
from mbce.game import (
    BaseGame,
    action_marginal_of,
    belief_system_from_outcome,
    best_response_set,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    obedience_slack,
    choice_rule_from_outcome,
    expected_utility,
    make_game,
    make_marginal,
    make_outcome,
    matching_game,
    state_marginal_of,
    validate_game,
)
from mbce.io import parse_game

F = Fraction

DIAG = make_outcome([["1/2", 0], [0, "1/2"]])


def product_outcome(marginal, prior):
    return make_outcome([[m * p for p in prior] for m in marginal])


# Distinct primes near 10^6: rationals over them have pairwise coprime
# denominators, so any integer scale but the lcm of them all shows.
LARGE_PRIMES = (999_983, 999_979, 999_961, 999_959, 999_953, 999_931, 999_917, 999_907)


def coprime_rationals(bound=5):
    """Rationals in [-bound, bound] over 1 or one of the large primes."""
    return st.sampled_from((1, *LARGE_PRIMES)).flatmap(
        lambda q: st.integers(-bound * q, bound * q).map(lambda p: F(p, q))
    )


def square_tables(values):
    return st.lists(st.lists(values, min_size=3, max_size=3), min_size=3, max_size=3)


@st.composite
def games_with_ties(draw):
    """A game with negative and large-denominator utilities, some rows
    duplicated so that ties are forced, and a belief with zero entries."""
    n_states = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(coprime_rationals(), min_size=n_states, max_size=n_states),
            min_size=1,
            max_size=4,
        )
    )
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = draw(st.permutations(rows))
    # Entries over different primes, zeros among them, and the rest of the
    # mass on one more entry, so that no two denominators need agree.
    shares = draw(
        st.lists(
            st.one_of(st.just(F(0)), coprime_rationals(bound=1).map(lambda q: abs(q) / n_states)),
            min_size=n_states - 1,
            max_size=n_states - 1,
        )
    )
    belief = tuple(draw(st.permutations([*shares, 1 - sum(shares)])))
    game = make_game(
        [f"t{t}" for t in range(n_states)],
        [f"a{a}" for a in range(len(rows))],
        rows,
        [F(1, n_states)] * n_states,
    )
    return game, belief


class TestValidateGame:
    def test_well_formed_fixture_passes(self, match_half):
        validate_game(match_half)

    def test_zero_prior_state_rejected(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[1, 0], [0, 1]], [1, 0])
        with pytest.raises(ZeroPriorState):
            validate_game(game)

    def test_prior_must_sum_to_one(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[1, 0], [0, 1]], ["1/2", "1/3"])
        with pytest.raises(NotADistribution):
            validate_game(game)

    def test_empty_action_set_rejected(self):
        game = BaseGame(states=("t1",), actions=(), utility=(), prior=(F(1),))
        with pytest.raises(EmptySpace):
            validate_game(game)

    def test_ragged_utility_rejected(self):
        game = BaseGame(
            states=("t1", "t2"),
            actions=("a1",),
            utility=((F(1),),),
            prior=(F(1, 2), F(1, 2)),
        )
        with pytest.raises(DimensionMismatch):
            validate_game(game)

    def test_an_invalid_game_raises_on_every_call(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[1, 0], [0, 1]], ["1/2", "1/3"])
        for _ in range(3):
            with pytest.raises(NotADistribution):
                validate_game(game)

    def test_a_valid_game_is_checked_once(self, monkeypatch):
        """Parsing a game and then deciding it runs the checks once; the
        remembered verdict leaves equality and hashing as they were."""
        calls = []
        original = game_module._check_game
        monkeypatch.setattr(game_module, "_check_game", lambda g: calls.append(g) or original(g))
        doc = {"states": ["t1", "t2"], "actions": ["a1", "a2"],
               "utility": [[1, 0], [0, 1]], "prior": ["3/4", "1/4"]}
        game = parse_game(doc, "instance.json")
        assert check_bce_consistent(game, make_marginal(["1/2", "1/2"])).consistent
        validate_game(game)
        assert calls == [game]
        fresh = matching_game(F(3, 4))
        assert game == fresh and hash(game) == hash(fresh)


class TestObedience:
    def test_full_information_matched_actions(self, match_half):
        assert check_obedience(DIAG, match_half).obedient

    def test_always_mismatching_is_disobedient(self, match_half):
        report = check_obedience(make_outcome([[0, 1], [0, 0]]), match_half)
        assert not report.obedient
        assert len(report.violations) == 1
        v = report.violations[0]
        assert (v.recommended, v.deviation) == (0, 1)
        assert v.slack == F(-1)

    def test_partial_pooling_is_obedient(self, match_three_quarters, skewed_outcome):
        assert check_obedience(skewed_outcome, match_three_quarters).obedient

    def test_shape_mismatch_raises(self, match_half):
        with pytest.raises(DimensionMismatch):
            check_obedience(make_outcome([[1]]), match_half)

    @given(
        utility=st.one_of(
            square_tables(st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            square_tables(coprime_rationals()),
        ),
        cells=st.lists(st.integers(0, 4), min_size=9, max_size=9).filter(any),
    )
    def test_violations_are_the_negative_pairwise_slacks(self, utility, cells):
        """The report lists exactly the (recommended, deviation) pairs whose
        deviation inequality, summed state by state, is negative, in order."""
        game = make_game(["t1", "t2", "t3"], ["a1", "a2", "a3"], utility, ["1/3"] * 3)
        total = sum(cells)
        outcome = make_outcome([[F(c, total) for c in cells[3 * a : 3 * a + 3]] for a in range(3)])
        expected = [
            (a, alt, obedience_slack(outcome, game, a, alt))
            for a in range(3)
            for alt in range(3)
            if alt != a and obedience_slack(outcome, game, a, alt) < 0
        ]
        report = check_obedience(outcome, game)
        assert [(v.recommended, v.deviation, v.slack) for v in report.violations] == expected
        assert report.obedient == (not expected)


class TestMarginals:
    def test_product_outcome_has_both_marginals(self):
        prior = (F(3, 4), F(1, 4))
        pi = product_outcome((F(1, 3), F(2, 3)), prior)
        assert check_state_marginal(pi, prior)
        assert check_action_marginal(pi, make_marginal(["1/3", "2/3"]))

    def test_diag_fails_skewed_prior(self):
        assert not check_state_marginal(DIAG, (F(3, 4), F(1, 4)))

    def test_diag_fails_point_mass_marginal(self):
        assert not check_action_marginal(DIAG, make_marginal([1, 0]))

    def test_skewed_outcome_marginals(self, skewed_outcome):
        assert state_marginal_of(skewed_outcome) == (F(3, 4), F(1, 4))
        assert action_marginal_of(skewed_outcome) == (F(1, 2), F(1, 2))
        assert check_state_marginal(skewed_outcome, (F(3, 4), F(1, 4)))
        assert check_action_marginal(skewed_outcome, make_marginal(["1/2", "1/2"]))


class TestBestResponse:
    def test_degenerate_belief(self, match_half):
        assert best_response_set(match_half, (F(1), F(0))) == {0}

    def test_symmetric_tie_kept(self, match_half):
        assert best_response_set(match_half, (F(1, 2), F(1, 2))) == {0, 1}

    def test_interior_belief(self, match_half):
        # expected utilities 2/3 vs 1/3
        assert best_response_set(match_half, (F(2, 3), F(1, 3))) == {0}

    @given(games_with_ties())
    def test_matches_the_exact_expected_utility_argmax(self, game_and_belief):
        """The integer pricing keeps exactly the actions whose Fraction
        expected utility is maximal, ties included."""
        game, belief = game_and_belief
        values = [expected_utility(game, belief, a) for a in range(game.n_actions)]
        top = max(values)
        assert best_response_set(game, belief) == {a for a, v in enumerate(values) if v == top}

    def test_integer_table_is_no_field(self):
        game = make_game(["t1", "t2"], ["a1", "a2"], [["1/2", "-1/3"], [0, "5/6"]], ["1/2", "1/2"])
        twin = make_game(["t1", "t2"], ["a1", "a2"], [["1/2", "-1/3"], [0, "5/6"]], ["1/2", "1/2"])
        assert game.integer_utility == (6, ((3, -2), (0, 5)))
        assert game == twin and hash(game) == hash(twin)

    @given(
        shift=st.fractions(min_value=-5, max_value=5, max_denominator=6),
        scale=st.fractions(min_value="1/6", max_value=5, max_denominator=6),
        belief_num=st.lists(st.integers(0, 6), min_size=2, max_size=2).filter(
            lambda xs: sum(xs) > 0
        ),
    )
    def test_argmax_invariant_under_affine_rescaling(self, shift, scale, belief_num):
        base = matching_game(F(1, 3))
        total = sum(belief_num)
        belief = tuple(F(n, total) for n in belief_num)
        transformed = BaseGame(
            states=base.states,
            actions=base.actions,
            utility=tuple(
                tuple(scale * u + shift for u in row) for row in base.utility
            ),
            prior=base.prior,
        )
        assert best_response_set(base, belief) == best_response_set(transformed, belief)


class TestConditionals:
    def test_full_information_beliefs(self):
        system = belief_system_from_outcome(DIAG)
        assert system.beliefs == {0: (F(1), F(0)), 1: (F(0), F(1))}

    def test_product_outcome_keeps_prior(self):
        prior = (F(3, 4), F(1, 4))
        pi = product_outcome((F(1, 2), F(1, 2)), prior)
        system = belief_system_from_outcome(pi)
        assert system.beliefs == {0: prior, 1: prior}

    def test_zero_mass_actions_omitted(self):
        pi = make_outcome([[0, 0], ["1/2", "1/2"]])
        assert 0 not in belief_system_from_outcome(pi).beliefs

    def test_skewed_outcome_beliefs(self, skewed_outcome):
        system = belief_system_from_outcome(skewed_outcome)
        assert system.beliefs[0] == (F(1), F(0))
        assert system.beliefs[1] == (F(1, 2), F(1, 2))

    def test_identity_choice_rule(self):
        rule = choice_rule_from_outcome(DIAG, (F(1, 2), F(1, 2)))
        assert rule.rows == ((F(1), F(0)), (F(0), F(1)))

    def test_product_choice_rule_repeats_marginal(self):
        prior = (F(3, 4), F(1, 4))
        pi = product_outcome((F(1, 3), F(2, 3)), prior)
        rule = choice_rule_from_outcome(pi, prior)
        assert rule.rows == ((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3)))

    def test_skewed_outcome_choice_rule(self, skewed_outcome):
        rule = choice_rule_from_outcome(skewed_outcome, (F(3, 4), F(1, 4)))
        assert rule.rows[0] == (F(2, 3), F(1, 3))
        assert rule.rows[1] == (F(0), F(1))

    def test_choice_rule_requires_matching_prior(self, skewed_outcome):
        with pytest.raises(StateMarginalMismatch):
            choice_rule_from_outcome(skewed_outcome, (F(1, 2), F(1, 2)))

    @given(cells=st.lists(st.integers(1, 9), min_size=4, max_size=4))
    def test_outcome_reconstructs_from_either_factorization(self, cells):
        total = sum(cells)
        pi = make_outcome(
            [
                [F(cells[0], total), F(cells[1], total)],
                [F(cells[2], total), F(cells[3], total)],
            ]
        )
        nu = action_marginal_of(pi)
        system = belief_system_from_outcome(pi)
        rebuilt = tuple(
            tuple(nu[a] * system.beliefs[a][t] for t in range(2)) for a in range(2)
        )
        assert rebuilt == pi.probs

        prior = state_marginal_of(pi)
        rule = choice_rule_from_outcome(pi, prior)
        rebuilt2 = tuple(
            tuple(prior[t] * rule.rows[t][a] for t in range(2)) for a in range(2)
        )
        assert rebuilt2 == pi.probs
