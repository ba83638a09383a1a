"""Public-signal reduction for first-order games and ring-network checks."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce import applications
from mbce.applications import (
    MAX_PROFILES,
    FirstOrderGame,
    MarginalProfile,
    RingGame,
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
    ZeroPriorState,
)
from mbce.game import (
    Outcome,
    action_marginal_of,
    best_response_set,
    make_game,
    make_marginal,
    make_outcome,
    state_marginal_of,
    validate_game,
)
from mbce.polytope import enumerate_vertices, opt_belief_polytope
from mbce.rationals import parse_table, row_fractions

F = Fraction
ZERO = Fraction(0)

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
        assert aux.prior == fo.players[0].prior

    def test_single_player_is_identity(self):
        fo = make_first_order(
            ["t1", "t2"], ["2/3", "1/3"], [(["a1", "a2"], [[3, -1], [0, 2]])]
        )
        aux = auxiliary_single_agent(fo)
        solo = fo.players[0]
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
        # refused from the count alone, before any profile is built. Building
        # one starts by putting the players' integer utility tables over one
        # scale, which never happens.
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [([f"p{i}a", f"p{i}b"], MATCH_ROWS) for i in range(13)],
        )
        assert MAX_PROFILES == 4096
        monkeypatch.setattr(applications, "lcm", lambda *ints: pytest.fail("built"))
        with pytest.raises(ProductTooLarge, match="8192 action profiles"):
            auxiliary_single_agent(fo)

    def test_profiles_enumerate_last_player_fastest(self):
        fo = two_matching_players(["1/2", "1/2"])
        assert action_profiles(fo) == ((0, 0), (0, 1), (1, 0), (1, 1))


def profile_br_product(fo, aux, belief):
    """Profiles whose coordinates are all per-player best responses."""
    per_player = [best_response_set(player, belief) for player in fo.players]
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
        plain = check_bce_consistent(fo.players[0], nu)
        assert public.consistent == plain.consistent == True  # noqa: E712

    def test_vertex_beliefs_decompose_profilewise(self):
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [(["x1", "x2"], MATCH_ROWS), (["y1", "y2"], [[2, -1], [-1, 3]])],
        )
        aux = auxiliary_single_agent(fo)
        for idx in range(aux.n_actions):
            for vertex in map(row_fractions, enumerate_vertices(opt_belief_polytope(aux, idx))):
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
        assert stage.actions is ring.stages[1].actions

    def test_first_stage_game_is_the_ring_stage(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], [1, 0]])
        assert ring_stage_game(ring, profile, 0) is ring.stages[0]

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
            assert row_fractions(ring_player_marginal(joint, i)) == profile.marginals[i].probs
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
        first = make_outcome([[q * t for t in mu] for q in nu1])
        second = make_outcome([[q * s for s in nu1] for q in nu2])
        joint = construct_ring_outcome([first, second])
        for idx, prof in enumerate(ring_profiles(joint.shape)):
            for t in range(2):
                assert joint.probs[idx][t] == nu1[prof[0]] * nu2[prof[1]] * mu[t]

    def test_zero_mass_upstream_action_adds_no_mass(self):
        ring = make_match_ring("1/2")
        profile = make_profile(ring, [[1, 0], [1, 0]])
        verdict = check_ring(ring, profile)
        joint = construct_ring_outcome(verdict.stage_witnesses)
        for i in range(2):
            assert row_fractions(ring_player_marginal(joint, i)) == profile.marginals[i].probs
        assert check_ring_obedience(joint, ring)
        assert sum(sum(row, F(0)) for row in joint.probs) == F(1)

    def test_mismatched_stage_marginals_rejected(self):
        first = make_outcome([["1/2", 0], ["1/4", "1/4"]])
        second = make_outcome([["3/4", 0], [0, "1/4"]])
        with pytest.raises(StageMarginalMismatch):
            construct_ring_outcome([first, second])

    def test_negative_witness_entry_is_refused(self):
        # The witnesses agree on the marginal (0, 1) they share; chained,
        # the first row's -1/4 would reach the joint through the conditional
        # on the upstream action of mass zero.
        first = make_outcome([["1/4", "-1/4"], ["1/2", "1/2"]])
        second = make_outcome([[0, "1/2"], [0, "1/2"]])
        with pytest.raises(NotADistribution, match="stage witness 0 has a negative entry"):
            construct_ring_outcome([first, second])
        with pytest.raises(NotADistribution, match="stage witness 1 has a negative entry"):
            construct_ring_outcome([second, make_outcome([["3/4", 0], ["-1/4", "1/2"]])])


class TestRingObedience:
    def test_mismatch_point_mass_disobeys(self):
        ring = make_match_ring("1/2")
        joint_rows = [[F(0)] * 2 for _ in range(4)]
        joint_rows[1][0] = F(1)  # profile (a1, b2) in state t1
        outcome = RingOutcome((2, 2), 2, parse_table(joint_rows))
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
        assert check_ring_obedience(RingOutcome((2, 2), 2, parse_table(rows)), ring)

    def test_shape_mismatch_rejected(self):
        ring = make_match_ring("1/2")
        bad = RingOutcome((2,), 2, (2, ((1, 1),)))
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

    THREE_PLAYERS = [
        (["x1", "x2"], [[1, 0], [0, "1/2"]]),
        (["y1"], [["-1/4", 2]]),
        (["z1", "z2", "z3"], [[0, 0], [1, 1], ["3/2", -1]]),
    ]

    def test_first_order_three_players_pinned(self):
        fo = make_first_order(["t1", "t2"], ["1/3", "2/3"], self.THREE_PLAYERS)
        states, prior = ("t1", "t2"), (F(1, 3), F(2, 3))
        assert fo == FirstOrderGame(
            players=(
                make_game(states, ("x1", "x2"), ((F(1), F(0)), (F(0), F(1, 2))), prior),
                make_game(states, ("y1",), ((F(-1, 4), F(2)),), prior),
                make_game(
                    states, ("z1", "z2", "z3"), ((F(0), F(0)), (F(1), F(1)), (F(3, 2), F(-1))), prior
                ),
            ),
        )
        assert (fo.states, fo.players[0].prior) == (states, prior)
        assert type(fo.states) is tuple
        assert all(type(q) is Fraction for q in fo.players[0].prior)

    def test_first_order_errors_are_pinned(self):
        with pytest.raises(ZeroPriorState, match=r"^state 't2' has zero prior mass$"):
            make_first_order(
                ["t1", "t2", "t3"],
                ["1/2", 0, "1/2"],
                [(["x1"], [[0, 0, 0]]), (["y1"], [[1, 1, 1]]), (["z1"], [[2, 2, 2]])],
            )
        # The first player's utility is converted before the prior, as
        # make_game does, so its bad entry is the error reported.
        with pytest.raises(ValueError, match=r"^not an integer or p/q rational: 'u'$"):
            make_first_order(["t1", "t2"], ["p", "1/2"], [(["x1"], [["u", 0]])])
        # A later player's game is still validated on its own.
        with pytest.raises(DimensionMismatch, match=r"^utility row 1 has 1 entries for 2 states$"):
            make_first_order(
                ["t1", "t2"],
                ["1/3", "2/3"],
                [*self.THREE_PLAYERS[:2], (["z1", "z2"], [[0, 0], [1]])],
            )

    def test_ring_validates_stage_shapes(self):
        with pytest.raises(DimensionMismatch):
            make_ring(
                ["t1", "t2"],
                ["1/2", "1/2"],
                [(["a1", "a2"], MATCH_ROWS), (["b1"], [[1, 0, 0]])],
            )
        with pytest.raises(DimensionMismatch):
            make_ring(["t1", "t2"], ["1/2", "1/2"], [])

    def test_ring_stages_are_its_games(self):
        ring = make_ring(
            ["t1", "t2"],
            ["1/3", "2/3"],
            [(["a1", "a2", "a3"], [[1, 0], [0, 1], [0, 0]]), (["b1", "b2"], [[1, 0, 2], [0, 1, 0]])],
        )
        first, second = ring.stages
        assert first == make_game(
            ["t1", "t2"], ["a1", "a2", "a3"], [[1, 0], [0, 1], [0, 0]], ["1/3", "2/3"]
        )
        # A later stage's states are the upstream actions, under the uniform
        # prior over them.
        assert second == make_game(
            ["a1", "a2", "a3"], ["b1", "b2"], [[1, 0, 2], [0, 1, 0]], ["1/3", "1/3", "1/3"]
        )
        assert ring.states == first.states
        assert ring.actions == (first.actions, second.actions)

    def test_only_fields_are_the_games(self):
        assert [f.name for f in fields(FirstOrderGame)] == ["players"]
        assert [f.name for f in fields(RingGame)] == ["stages"]

    def test_profile_validates_lengths_and_mass(self):
        ring = make_match_ring("1/2")
        with pytest.raises(DimensionMismatch):
            make_profile(ring, [["1/2", "1/2"]])
        with pytest.raises(NotADistribution):
            make_profile(ring, [["1/2", "1/2"], ["1/2", "1/3"]])


# -- Fraction references: the rational-arithmetic versions the integer ones
# replaced, kept verbatim as the spec the properties below compare against.


def reference_auxiliary_single_agent(fo):
    count = 1
    for spec in fo.players:
        count *= spec.n_actions
    if count > MAX_PROFILES:
        raise ProductTooLarge(f"{count} action profiles exceed the cap of {MAX_PROFILES}")
    labels = []
    utility = []
    for profile in action_profiles(fo):
        labels.append(",".join(fo.players[i].actions[a] for i, a in enumerate(profile)))
        utility.append(
            tuple(
                sum((fo.players[i].utility[a][t] for i, a in enumerate(profile)), ZERO)
                for t in range(fo.n_states)
            )
        )
    game = make_game(fo.states, labels, utility, fo.players[0].prior)
    validate_game(game)
    return game


def reference_construct_ring_outcome(stage_witnesses):
    if not stage_witnesses:
        raise DimensionMismatch("need at least one stage witness")
    first = stage_witnesses[0]
    shape = tuple(len(w.probs) for w in stage_witnesses)
    n_states = len(first.probs[0])
    upstream_marginal = action_marginal_of(first)
    conditionals = []
    for witness in stage_witnesses[1:]:
        shared = state_marginal_of(witness)
        if shared != upstream_marginal:
            raise StageMarginalMismatch(
                "stage witness conditions on a marginal its predecessor does not produce"
            )
        n_here = len(witness.probs)
        cond = []
        for a in range(n_here):
            row = []
            for s, mass in enumerate(shared):
                if mass == ZERO:
                    row.append(Fraction(1, n_here))
                else:
                    row.append(witness.probs[a][s] / mass)
            cond.append(tuple(row))
        conditionals.append(tuple(cond))
        upstream_marginal = action_marginal_of(witness)

    rows = []
    for prof in product(*(range(n) for n in shape)):
        row = []
        for t in range(n_states):
            mass = first.probs[prof[0]][t]
            for i, cond in enumerate(conditionals):
                mass *= cond[prof[i + 1]][prof[i]]
            row.append(mass)
        rows.append(tuple(row))
    return RingOutcome(shape, n_states, parse_table(rows))


def reference_ring_pair_marginal(outcome, i):
    if i == 0:
        rows = [[ZERO] * outcome.n_states for _ in range(outcome.shape[0])]
        for prof, row in zip(ring_profiles(outcome.shape), outcome.probs):
            for t, mass in enumerate(row):
                rows[prof[0]][t] += mass
    else:
        rows = [[ZERO] * outcome.shape[i - 1] for _ in range(outcome.shape[i])]
        for prof, row in zip(ring_profiles(outcome.shape), outcome.probs):
            total = sum(row, ZERO)
            rows[prof[i]][prof[i - 1]] += total
    return make_outcome(rows)


def reference_ring_player_marginal(outcome, i):
    totals = [ZERO] * outcome.shape[i]
    for prof, row in zip(ring_profiles(outcome.shape), outcome.probs):
        totals[prof[i]] += sum(row, ZERO)
    return tuple(totals)


# Denominators small and near 10^6: neighbours there are coprime, and the
# even ones share a factor.
denominators = st.one_of(st.integers(1, 6), st.integers(10**6 - 12, 10**6 + 12))
positive = st.builds(Fraction, st.integers(1, 10**6), denominators)
weights = st.one_of(st.just(ZERO), positive, positive)
utilities = st.builds(Fraction, st.integers(-(10**6), 10**6), denominators)


def distribution(draw, n):
    """A distribution over n points with entries near 10^6 in their
    denominators, zeros allowed."""
    ws = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
    total = sum(ws, ZERO)
    return [w / total for w in ws]


@st.composite
def stage_chains(draw):
    """1-4 stage witnesses of 1-4 actions each that agree on every shared
    marginal. Zero weights leave upstream actions of mass zero, whose
    conditionals the chain takes uniform."""
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    flat = distribution(draw, widths[0] * widths[1])
    witnesses = [make_outcome([flat[a * widths[0]:(a + 1) * widths[0]] for a in range(widths[1])])]
    for width in widths[2:]:
        upstream = action_marginal_of(witnesses[-1])
        columns = [
            [mass * q for q in distribution(draw, width)] if mass else [ZERO] * width
            for mass in upstream
        ]
        witnesses.append(make_outcome(zip(*columns)))
    return witnesses


@st.composite
def ring_outcomes(draw):
    """A distribution over (profiles x states) of 1-4 players with 1-4
    actions each, not necessarily chained from stages."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    n_states = draw(st.integers(1, 3))
    flat = distribution(draw, prod(shape) * n_states)
    rows = [flat[k * n_states:(k + 1) * n_states] for k in range(prod(shape))]
    return RingOutcome(shape, n_states, parse_table(rows))


@st.composite
def first_order_games(draw):
    """1-4 players of 1-4 actions each over 1-3 states."""
    n_states = draw(st.integers(1, 3))
    prior = [q or Fraction(1, 10**6) for q in distribution(draw, n_states)]
    total = sum(prior, ZERO)
    prior = [q / total for q in prior]
    players = []
    for i in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 4))
        rows = draw(
            st.lists(
                st.lists(utilities, min_size=n_states, max_size=n_states),
                min_size=width,
                max_size=width,
            )
        )
        players.append(([f"p{i}a{a}" for a in range(width)], rows))
    return make_first_order([f"t{t}" for t in range(n_states)], prior, players)


class TestIntegerAgainstFractionReferences:
    @settings(max_examples=150, deadline=None)
    @given(stage_chains())
    def test_construct_ring_outcome(self, witnesses):
        joint = construct_ring_outcome(witnesses)
        assert joint == reference_construct_ring_outcome(witnesses)
        for i in range(len(witnesses)):
            assert ring_pair_marginal(joint, i) == reference_ring_pair_marginal(joint, i)
            assert row_fractions(ring_player_marginal(joint, i)) == reference_ring_player_marginal(
                joint, i
            )

    @settings(max_examples=100, deadline=None)
    @given(stage_chains().filter(lambda witnesses: len(witnesses) > 1), st.data())
    def test_a_broken_chain_is_refused_by_both(self, witnesses, data):
        """Extra mass in one cell moves a row sum and a column sum, so the
        witness disagrees with a neighbour on the marginal they share."""
        stage = data.draw(st.integers(0, len(witnesses) - 1))
        rows = [list(row) for row in witnesses[stage].probs]
        a = data.draw(st.integers(0, len(rows) - 1))
        s = data.draw(st.integers(0, len(rows[0]) - 1))
        rows[a][s] += data.draw(positive)
        broken = list(witnesses)
        broken[stage] = make_outcome(rows)
        for build in (construct_ring_outcome, reference_construct_ring_outcome):
            with pytest.raises(StageMarginalMismatch):
                build(broken)

    @settings(max_examples=150, deadline=None)
    @given(ring_outcomes())
    def test_marginals_of_any_joint(self, joint):
        for i in range(len(joint.shape)):
            assert ring_pair_marginal(joint, i) == reference_ring_pair_marginal(joint, i)
            assert row_fractions(ring_player_marginal(joint, i)) == reference_ring_player_marginal(
                joint, i
            )

    @settings(max_examples=100, deadline=None)
    @given(first_order_games())
    def test_auxiliary_single_agent(self, fo):
        assert auxiliary_single_agent(fo) == reference_auxiliary_single_agent(fo)

    def test_fraction_view_is_no_field(self):
        """The joint is stored as its reduced integer table; the ``Fraction``
        rows are a view that equality, hashing and repr ignore."""
        joint = RingOutcome((2,), 2, (12, ((6, 0), (4, 2))))
        twin = RingOutcome((2,), 2, (6, ((3, 0), (2, 1))))
        assert joint.integer_probs == (6, ((3, 0), (2, 1)))
        before = (hash(joint), repr(joint))
        view = joint.probs
        assert view == ((F(1, 2), F(0)), (F(1, 3), F(1, 6))) and joint.probs is view
        assert [f.name for f in fields(RingOutcome)] == ["shape", "n_states", "integer_probs"]
        assert "probs" in vars(joint) and "probs" not in vars(twin)
        assert joint == twin
        assert (hash(joint), repr(joint)) == before == (hash(twin), repr(twin))


def full_information_ring(n_players, n_actions):
    """Each player guesses the state or the upstream action, and is told it:
    consistent, with every marginal the prior."""
    labels = [f"t{t}" for t in range(n_actions)]
    prior = [F(t + 1, n_actions * (n_actions + 1) // 2) for t in range(n_actions)]
    identity = [[int(a == s) for s in range(n_actions)] for a in range(n_actions)]
    stages = [([f"p{i}a{a}" for a in range(n_actions)], identity) for i in range(n_players)]
    ring = make_ring(labels, prior, stages)
    return ring, make_profile(ring, [prior] * n_players)


class UnreadRow:
    """A row of ``n`` entries that fails the test when an entry is read;
    an ``Outcome`` over scale 1 stores it unread."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        pytest.fail("an entry was read")

    def __getitem__(self, index):
        pytest.fail("an entry was read")


class TestRingJointCap:
    def test_joint_at_the_cap_is_built(self):
        ring, profile = full_information_ring(6, 4)
        verdict = check_ring(ring, profile)
        assert verdict.consistent
        joint = construct_ring_outcome(verdict.stage_witnesses)
        assert joint.shape == (4,) * 6 and len(joint.probs) == MAX_PROFILES == 4096
        assert check_ring_obedience(joint, ring)
        for i in range(6):
            assert row_fractions(ring_player_marginal(joint, i)) == profile.marginals[i].probs

    @pytest.mark.parametrize("widths", [(17, 241), (4, 4, 4, 4, 4, 4, 2)])
    def test_joint_above_the_cap_is_refused_before_it_is_built(self, widths):
        # 17 x 241 = 4097 profiles, one above the cap; 4^6 x 2 = 8192. The
        # witnesses' rows fail the test when an entry is read, and building
        # the first partial profile reads one, so the refusal must come from
        # the row counts alone.
        witnesses = [Outcome((1, (UnreadRow(1),) * widths[0]))]
        witnesses += [Outcome((1, (UnreadRow(m),) * n)) for m, n in zip(widths, widths[1:])]
        with pytest.raises(ProductTooLarge, match=f"{prod(widths)} action profiles"):
            construct_ring_outcome(witnesses)
