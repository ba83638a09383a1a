"""Consistency verdicts: residual conditions vs the transport-LP oracle.

Expected numbers were derived from the polytope geometry before running the
code (on paper for the small instances, by independent exact vertex
arithmetic for the four-state one), then frozen.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mbce import linprog, polytope
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
    violation_certificate,
)
from mbce.errors import DimensionMismatch, EmptyPolytope, NotADistribution, UnsupportableAction
from mbce.game import (
    BaseGame,
    best_response_set,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    make_game,
    make_marginal,
    matching_game,
)
from mbce.polytope import is_empty, opt_belief_polytope, support_value
from mbce.rationals import parse_row, row_fractions
from references import oracle_feasibility as reference_oracle_feasibility
from references import strassen_residual as reference_strassen_residual
from references import support_value as reference_support_value

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


# Choices that name no action or state of matching_game(3/4): out of range,
# negative, or a bool, which Python would otherwise read as 0 or 1.
BAD_CHOICES = {
    "state 5": lambda g, m: state_condition_residual(g, m, 5),
    "state -1": lambda g, m: state_condition_residual(g, m, -1),
    "state True": lambda g, m: state_condition_residual(g, m, True),
    "pair (5, 0)": lambda g, m: action_pair_residual(g, m, 5, 0),
    "pair (-1, 0)": lambda g, m: action_pair_residual(g, m, -1, 0),
    "pair (0, False)": lambda g, m: action_pair_residual(g, m, 0, False),
    "pair of three": lambda g, m: violation_certificate(g, m, ACTION_PAIR_CONDITION, (0, 1, 0)),
    "action 9": lambda g, m: violation_certificate(g, m, UNSUPPORTABLE_ACTION, 9),
    "action True": lambda g, m: violation_certificate(g, m, UNSUPPORTABLE_ACTION, True),
}


@pytest.mark.parametrize("call", BAD_CHOICES.values(), ids=BAD_CHOICES)
def test_a_choice_outside_the_game_is_refused(match_three_quarters, call):
    with pytest.raises(DimensionMismatch, match="not an index below|two actions"):
        call(match_three_quarters, QUARTER_REST)


class TestStrassenResidual:
    def test_zero_direction(self, match_three_quarters):
        assert strassen_residual(match_three_quarters, HALF_HALF, parse_row((F(0), F(0)))) == 0

    def test_all_ones_direction(self, match_three_quarters):
        assert strassen_residual(match_three_quarters, HALF_HALF, parse_row((F(1), F(1)))) == 0

    def test_negative_unit_matches_state_residual(self, match_three_quarters):
        assert strassen_residual(
            match_three_quarters, QUARTER_REST, parse_row((F(0), F(-1)))
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
        assert row_fractions(cert.direction) == (F(0), F(-1))
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
        game = BaseGame(("t1", "t2"), ("a1", "a2"), (1, ((1, 0), (0, 1))), (6, (3, 2)))
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
        assert row_fractions(cert.direction) == (F(1), F(1), F(-2, 21), F(-1))
        assert cert.residual == F(-548521, 17124030)
        assert strassen_residual(game, marginal, cert.direction) == cert.residual
        assert oracle_feasibility(game, marginal) == (False, None)
        assert belief_decomposition(game, marginal) is None

    def test_decomposition_reproduces_forced_witness(self, match_three_quarters):
        outcome = belief_decomposition(match_three_quarters, HALF_HALF)
        # the feasible set is a single point, so the decomposition is forced
        assert outcome.probs == ((F(1, 2), F(0)), (F(1, 4), F(1, 4)))
        assert check_obedience(outcome, match_three_quarters).obedient
        assert check_state_marginal(outcome, match_three_quarters.integer_prior)
        assert check_action_marginal(outcome, HALF_HALF)

    def test_decomposition_skips_unsupported_actions(self, match_three_quarters):
        outcome = belief_decomposition(match_three_quarters, make_marginal([1, 0]))
        assert outcome.probs[1] == (F(0), F(0))
        assert check_state_marginal(outcome, match_three_quarters.integer_prior)

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
        assert check_state_marginal(witness, match_three_quarters.integer_prior)
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
        assert check_state_marginal(witness, game.integer_prior)
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


def _distribution(numerators):
    return tuple(F(n, sum(numerators)) for n in numerators)


@st.composite
def games_and_marginals(draw):
    """A 2-3 state, 2-3 action game with small integer utilities and a full
    prior, two marginals on it (zero entries included) and a direction."""
    n_states, n_actions = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    row = st.lists(st.integers(-3, 3), min_size=n_states, max_size=n_states)
    utility = draw(st.lists(row, min_size=n_actions, max_size=n_actions))
    prior = draw(st.lists(st.integers(1, 4), min_size=n_states, max_size=n_states))
    weights = st.lists(st.integers(0, 3), min_size=n_actions, max_size=n_actions).filter(any)
    game = make_game(
        [f"t{t}" for t in range(n_states)],
        [f"a{a}" for a in range(n_actions)],
        utility,
        _distribution(prior),
    )
    marginals = [make_marginal(_distribution(draw(weights))) for _ in range(2)]
    direction = parse_row(draw(st.lists(st.integers(-2, 2), min_size=n_states, max_size=n_states)))
    return game, marginals, direction


def _answers(game, marginal, direction):
    """Every polytope-backed answer about (game, marginal): the verdict, the
    certificate of each kind at each choice, the separating direction and
    the vertex decomposition, each as its value or its exception's type."""

    def answer(compute, *args):
        try:
            return compute(game, marginal, *args)
        except UnsupportableAction as err:
            return type(err), err.args

    n_a = game.n_actions
    choices = [(UNSUPPORTABLE_ACTION, a) for a in range(n_a)]
    choices += [(STATE_CONDITION, t) for t in range(game.n_states)]
    choices += [(ACTION_PAIR_CONDITION, (a, b)) for a in range(n_a) for b in range(n_a) if a != b]
    choices.append((STRASSEN_DIRECTION, direction))
    return (
        answer(check_bce_consistent),
        [answer(violation_certificate, kind, choice) for kind, choice in choices],
        answer(separating_direction),
        answer(belief_decomposition),
    )


@settings(max_examples=40, deadline=None)
@given(games_and_marginals())
def test_answers_on_a_game_with_built_polytopes_match_a_fresh_game(instance):
    """Polytopes that earlier calls built and kept on the game, for another
    marginal and then for this one, change no answer: a fresh equal game,
    which builds its own, gives the same ones."""
    game, (earlier, marginal), direction = instance
    _answers(game, earlier, direction)
    first = _answers(game, marginal, direction)
    assert game.belief_polytopes
    fresh = BaseGame(game.states, game.actions, game.integer_utility, game.integer_prior)
    assert "belief_polytopes" not in vars(fresh)
    assert _answers(game, marginal, direction) == first == _answers(fresh, marginal, direction)
    assert fresh.belief_polytopes.items() <= game.belief_polytopes.items()


def _split_of_one(draw, n, masses):
    """``n`` rationals, drawn from ``masses`` but the last, which is the
    rest: nonnegative, summing to 1, over unlike denominators."""
    head = draw(st.lists(masses, min_size=n - 1, max_size=n - 1).filter(lambda xs: sum(xs) < 1))
    return draw(st.permutations([*head, 1 - sum(head)]))


@st.composite
def mixed_denominator_instances(draw):
    """A 2-4 state, 2-4 action game with rational utilities and a full
    prior, and a marginal with zero-mass actions. Prior and marginal
    entries have unlike denominators. Half the marginals are consistent by
    construction: two posteriors that split the prior, each sending its
    mass to its smallest best response."""
    n_states, n_actions = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    row = st.lists(entry, min_size=n_states, max_size=n_states)
    utility = draw(st.lists(row, min_size=n_actions, max_size=n_actions))
    denominator = st.integers(2, 7)
    positive = denominator.flatmap(lambda d: st.builds(F, st.integers(1, d - 1), st.just(d)))
    prior = _split_of_one(draw, n_states, positive)
    game = make_game(
        [f"t{t}" for t in range(n_states)], [f"a{a}" for a in range(n_actions)], utility, prior
    )
    probs = [F(0)] * n_actions
    low = [draw(st.sampled_from([F(1, 3), F(1, 2), F(3, 5)])) * q for q in prior]
    w = sum(low)
    if draw(st.booleans()):
        probs[min(best_response_set(game, [x / w for x in low]))] += w
        high = [(q - x) / (1 - w) for q, x in zip(prior, low)]
        probs[min(best_response_set(game, high))] += 1 - w
    else:
        probs = _split_of_one(draw, n_actions, st.one_of(st.just(F(0)), positive))
    return game, make_marginal(probs)


@settings(max_examples=80, deadline=None)
@given(mixed_denominator_instances())
def test_oracle_pivots_as_the_rational_rows(instance):
    """The oracle LP, built on the game's integer rows, makes the same
    (row, column) pivots and returns the same verdict and witness as the
    LP whose every row ``make_constraint`` builds from ``Fraction``s. Each
    prior and marginal row takes an artificial, so any other multiple of
    one would reweigh it in phase one."""
    answers = []
    original = linprog._Tableau.pivot
    for solve in (oracle_feasibility, reference_oracle_feasibility):
        seen = []

        def recording(self, r, c):
            seen.append((r, c))
            return original(self, r, c)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linprog._Tableau, "pivot", recording)
            answers.append((solve(*instance), seen))
    assert answers[0] == answers[1]


@st.composite
def residual_instances(draw):
    """A 2-4 state, 2-4 action game with rational utilities and a full
    prior, a marginal with zero entries, a direction of rationals (the zero
    direction, and now and then one of the wrong length, included) and a
    factor k for writing the direction's integer row unreduced."""
    n_states, n_actions = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    row = st.lists(entry, min_size=n_states, max_size=n_states)
    utility = draw(st.lists(row, min_size=n_actions, max_size=n_actions))
    prior = draw(st.lists(st.integers(1, 4), min_size=n_states, max_size=n_states))
    game = make_game(
        [f"t{t}" for t in range(n_states)],
        [f"a{a}" for a in range(n_actions)],
        utility,
        _distribution(prior),
    )
    weights = st.lists(st.integers(0, 3), min_size=n_actions, max_size=n_actions).filter(any)
    marginal = make_marginal(_distribution(draw(weights)))
    length = n_states + draw(st.sampled_from([0] * 8 + [-1, 1]))
    if draw(st.integers(0, 7)) == 0:
        direction = (F(0),) * length
    else:
        direction = tuple(draw(st.lists(entry, min_size=length, max_size=length)))
    return game, marginal, direction, draw(st.integers(1, 5))


def _outcome(compute, *args):
    """The value of ``compute(*args)``, or the type and arguments of the
    error it raises."""
    try:
        return compute(*args)
    except (DimensionMismatch, EmptyPolytope, UnsupportableAction) as err:
        return type(err), err.args


@settings(max_examples=200, deadline=None, derandomize=True)
@given(residual_instances())
def test_integer_residuals_match_the_fraction_reference(instance):
    """A direction's integer row, written with its scale and integers both
    times k, gives every support value and the residual of the ``Fraction``
    direction, and raises the same UnsupportableAction, EmptyPolytope or
    DimensionMismatch."""
    game, marginal, direction, k = instance
    scale, ints = parse_row(direction)
    row = (k * scale, tuple(k * x for x in ints))
    for a in range(game.n_actions):
        poly = opt_belief_polytope(game, a)
        assert _outcome(support_value, poly, row) == _outcome(reference_support_value, poly, direction)
    assert _outcome(strassen_residual, game, marginal, row) == _outcome(
        reference_strassen_residual, game, marginal, direction
    )


@st.composite
def low_dimensional_instances(draw):
    """A 2- or 3-state game with rational utilities and a full prior, and a
    marginal on actions whose belief polytope is nonempty, so that most
    rejections are left to the state and pair conditions; now and then an
    unsupportable action takes mass too."""
    n_states, n_actions = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    row = st.lists(entry, min_size=n_states, max_size=n_states)
    utility = draw(st.lists(row, min_size=n_actions, max_size=n_actions))
    prior = draw(st.lists(st.integers(1, 5), min_size=n_states, max_size=n_states))
    game = make_game(
        [f"t{t}" for t in range(n_states)],
        [f"a{a}" for a in range(n_actions)],
        utility,
        _distribution(prior),
    )
    anywhere = draw(st.integers(0, 9)) == 0
    weights = [
        draw(st.integers(0, 4)) if anywhere or not is_empty(opt_belief_polytope(game, a)) else 0
        for a in range(n_actions)
    ]
    assume(any(weights))
    return game, make_marginal(_distribution(weights))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(low_dimensional_instances())
def test_named_families_suffice_below_three_degrees_of_freedom(instance):
    """Below three degrees of freedom of a belief, a rejection never needs
    the separating-direction LP.

    A residual is positively homogeneous in the direction and unchanged by
    adding a constant to it, so it lives on the quotient by the constants,
    of dimension S - 1. Each support function is linear on each normal cone
    of its polytope, whose extreme rays are normals of active constraints:
    some -e_t, some u(alt) - u(a), and the constants. At S = 3 the quotient
    is a plane; the named directions cut it into cones between consecutive
    rays, each less than a half-plane because the -e_t positively span the
    plane, and the residual is linear on each. So a residual negative
    anywhere is negative on a named direction. At S = 2 a pair direction is
    a positive multiple of a state direction modulo the constants, and the
    state directions are tried first."""
    game, marginal = instance
    verdict = check_bce_consistent(game, marginal)
    if verdict.consistent:
        return
    kind = verdict.violation.kind
    if game.n_states == 2:
        assert kind in (UNSUPPORTABLE_ACTION, STATE_CONDITION)
    else:
        assert kind != STRASSEN_DIRECTION
