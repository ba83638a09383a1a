"""Belief polytopes: H-representation, vertex enumeration, LP agreement.

The guessing-game values (segment [1/2, 1] for the first action, etc.) were
worked out on paper first and frozen here.
"""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce import linprog, polytope
from mbce.errors import DimensionMismatch, EmptyPolytope
from mbce.game import best_response_set, make_game, matching_game
from mbce.linprog import EQUAL, LESS_EQUAL, Constraint
from mbce.polytope import (
    BeliefPolytope,
    dot,
    enumerate_vertices,
    is_empty,
    maximize_direction,
    minimize_direction,
    opt_belief_polytope,
    support_value,
    unit_direction,
    utility_difference_direction,
)

F = Fraction


def tiny_game(utility_rows):
    n_states = len(utility_rows[0])
    n_actions = len(utility_rows)
    return make_game(
        [f"t{i}" for i in range(n_states)],
        [f"a{i}" for i in range(n_actions)],
        utility_rows,
        [F(1, n_states)] * n_states,
    )


# Strategy: small integer-utility games, 2-3 states, 2-3 actions.
game_tables = st.integers(2, 3).flatmap(
    lambda n_states: st.lists(
        st.lists(st.integers(-3, 3), min_size=n_states, max_size=n_states),
        min_size=2,
        max_size=3,
    )
)


class TestHalfRepresentation:
    def test_guessing_game_first_action(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        # single halfspace (-1, 1) . x <= 0, i.e. x1 >= x2
        assert poly.halfspaces == (((F(-1), F(1)), F(0)),)
        assert poly.contains((F(1, 2), F(1, 2)))
        assert poly.contains((F(1), F(0)))
        assert not poly.contains((F(1, 3), F(2, 3)))

    def test_dominated_action_gives_empty_polytope(self):
        game = tiny_game([[0, 0], [1, 1]])
        poly = opt_belief_polytope(game, 0)
        assert is_empty(poly)
        assert enumerate_vertices(poly) == ()

    def test_single_action_game_gives_full_simplex(self):
        game = tiny_game([[5, -2, 3]])
        poly = opt_belief_polytope(game, 0)
        assert poly.halfspaces == ()
        assert sorted(enumerate_vertices(poly)) == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_contains_rejects_non_distributions(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        assert not poly.contains((F(2), F(-1)))
        assert not poly.contains((F(1, 2), F(1, 4)))


class TestVertices:
    def test_guessing_game_segment_endpoints(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        assert enumerate_vertices(poly) == ((F(1, 2), F(1, 2)), (F(1), F(0)))

    def test_one_state_degenerate_dimension(self):
        game = tiny_game([[1], [0]])
        assert enumerate_vertices(opt_belief_polytope(game, 0)) == ((F(1),),)
        assert enumerate_vertices(opt_belief_polytope(game, 1)) == ()

    def test_tie_region_collapses_to_point(self):
        # both actions identical: every belief optimal, vertices are simplex corners
        game = tiny_game([[2, 2], [2, 2]])
        poly = opt_belief_polytope(game, 0)
        assert enumerate_vertices(poly) == ((F(0), F(1)), (F(1), F(0)))


class TestOptimization:
    def test_direction_across_segment(self, match_half):
        value, witness = maximize_direction(opt_belief_polytope(match_half, 0), (F(1), F(-1)))
        assert (value, witness) == (F(1), (F(1), F(0)))
        value, witness = maximize_direction(opt_belief_polytope(match_half, 1), (F(1), F(-1)))
        assert (value, witness) == (F(0), (F(1, 2), F(1, 2)))

    def test_zero_direction(self, match_half):
        value, _ = maximize_direction(opt_belief_polytope(match_half, 0), (F(0), F(0)))
        assert value == 0

    def test_minimize_is_negated_maximize(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        value, witness = minimize_direction(poly, unit_direction(2, 0))
        assert value == F(1, 2)
        assert witness == (F(1, 2), F(1, 2))

    def test_empty_polytope_raises(self):
        game = tiny_game([[0, 0], [1, 1]])
        with pytest.raises(EmptyPolytope):
            maximize_direction(opt_belief_polytope(game, 0), (F(1), F(0)))


class TestCrossChecks:
    @settings(max_examples=60)
    @given(
        rows=game_tables,
        direction_num=st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        action_seed=st.integers(0, 2),
    )
    def test_lp_agrees_with_vertex_scan(self, rows, direction_num, action_seed):
        game = tiny_game(rows)
        action = action_seed % game.n_actions
        poly = opt_belief_polytope(game, action)
        vertices = enumerate_vertices(poly)
        c = tuple(F(v) for v in direction_num[: game.n_states])
        if not vertices:
            assert is_empty(poly)
            with pytest.raises(EmptyPolytope):
                maximize_direction(poly, c)
            return
        value, witness = maximize_direction(poly, c)
        assert value == max(dot(c, v) for v in vertices)
        assert witness in vertices

    @settings(max_examples=60)
    @given(
        rows=game_tables,
        belief_num=st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(
            lambda xs: sum(xs) > 0
        ),
    )
    def test_membership_matches_best_response(self, rows, belief_num):
        game = tiny_game(rows)
        nums = belief_num[: game.n_states]
        if sum(nums) == 0:
            nums[0] = 1
        total = sum(nums)
        belief = tuple(F(v, total) for v in nums)
        best = best_response_set(game, belief)
        for action in range(game.n_actions):
            inside = opt_belief_polytope(game, action).contains(belief)
            assert inside == (action in best)

    @settings(max_examples=40)
    @given(rows=game_tables, action_seed=st.integers(0, 2))
    def test_simplex_corners_in_polytope_are_vertices(self, rows, action_seed):
        game = tiny_game(rows)
        action = action_seed % game.n_actions
        poly = opt_belief_polytope(game, action)
        vertices = enumerate_vertices(poly)
        for t in range(game.n_states):
            corner = unit_direction(game.n_states, t)
            if poly.contains(corner):
                assert corner in vertices


def rational_rows(poly):
    """The LP the polytope stood for before its rows were cached: the
    simplex row, then each halfspace as its own rational row."""
    rows = [Constraint(tuple([F(1)] * poly.dim), EQUAL, F(1))]
    rows += [Constraint(normal, LESS_EQUAL, offset) for normal, offset in poly.halfspaces]
    return rows


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def polytopes(draw):
    """Halfspaces with offsets of either sign, so some rows take a slack and
    some an artificial."""
    dim = draw(st.integers(1, 4))
    halfspace = st.tuples(st.lists(small, min_size=dim, max_size=dim).map(tuple), small)
    return BeliefPolytope(dim, tuple(draw(st.lists(halfspace, max_size=4))))


class TestLpRows:
    def test_cached_rows_are_no_field(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        twin = opt_belief_polytope(match_half, 0)
        before = (hash(poly), repr(poly))
        rows = poly.lp_rows
        assert poly.lp_rows is rows
        assert [f.name for f in fields(BeliefPolytope)] == ["dim", "halfspaces"]
        assert "lp_rows" in vars(poly) and "lp_rows" not in vars(twin)
        assert poly == twin
        assert (hash(poly), repr(poly)) == before == (hash(twin), repr(twin))

    def test_point_masses_are_no_field(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        twin = opt_belief_polytope(match_half, 0)
        before = (hash(poly), repr(poly))
        masses = poly.point_masses
        assert masses == (0,) and poly.point_masses is masses
        assert [f.name for f in fields(BeliefPolytope)] == ["dim", "halfspaces"]
        assert "point_masses" in vars(poly) and "point_masses" not in vars(twin)
        assert poly == twin
        assert (hash(poly), repr(poly)) == before == (hash(twin), repr(twin))

    def test_is_empty_and_maximize_direction_solve_the_cached_rows(self, monkeypatch):
        # a0 is a best response only on beliefs between (1/3, 2/3) and
        # (2/3, 1/3): no point mass is inside, and no row excludes them all,
        # so only the LP answers either question.
        poly = opt_belief_polytope(tiny_game([[2, 2], [3, 0], [0, 3]]), 0)
        assert poly.point_masses == ()
        seen = []

        def spy(solve):
            def wrapped(n_vars, constraints, *args, **kwargs):
                seen.append(constraints)
                return solve(n_vars, constraints, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(polytope, "lp_feasible", spy(linprog.lp_feasible))
        monkeypatch.setattr(polytope, "lp_solve", spy(linprog.lp_solve))
        assert not is_empty(poly)
        assert maximize_direction(poly, (F(1), F(0))) == (F(2, 3), (F(2, 3), F(1, 3)))
        assert support_value(poly, (F(0), F(1))) == F(2, 3)
        assert len(seen) == 3 and all(rows is poly.lp_rows for rows in seen)

    @settings(max_examples=100, deadline=None)
    @given(polytopes(), st.data())
    def test_cached_rows_pivot_as_the_rational_rows(self, poly, data):
        """Each cached row states its halfspace: a positive integer multiple
        where the offset is nonnegative, the rational row itself where it is
        negative. Either way the simplex makes the same pivots and returns
        the same point and value as on the rational rows."""
        for row, (normal, offset) in zip(poly.lp_rows[1:], poly.halfspaces):
            if offset < 0:
                assert row == Constraint(normal, LESS_EQUAL, offset)
                continue
            assert all(type(q) is int for q in (*row.coeffs, row.rhs))
            pairs = zip((*row.coeffs, row.rhs), (*normal, offset))
            k = next((F(q) / x for q, x in pairs if x), 1)
            assert k > 0 and row.coeffs == tuple(k * x for x in normal) and row.rhs == k * offset
        c = tuple(data.draw(st.lists(small, min_size=poly.dim, max_size=poly.dim)))
        for solve, args in ((linprog.lp_feasible, ()), (linprog.lp_solve, (c, True))):
            answers = []
            for rows in (poly.lp_rows, rational_rows(poly)):
                seen = []
                original = linprog._Tableau.pivot

                def recording(self, r, col):
                    seen.append((r, col))
                    return original(self, r, col)

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(linprog._Tableau, "pivot", recording)
                    answers.append((solve(poly.dim, rows, *args, nonneg=True), seen))
            assert answers[0] == answers[1]


def no_lp(*args, **kwargs):
    raise AssertionError("a point mass settles this question")


@st.composite
def presolve_polytopes(draw):
    """Rows the point masses settle and rows they do not: offsets of either
    sign, zero normals, rows tight exactly at a point mass or at the row's
    smallest coefficient, rows every point mass violates, and no rows."""
    dim = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        normal = tuple(draw(st.lists(small, min_size=dim, max_size=dim)))
        kind = draw(st.sampled_from(["free", "zero", "at-mass", "at-min", "below-min"]))
        if kind == "zero":
            normal = (F(0),) * dim
        if kind == "at-mass":
            offset = normal[draw(st.integers(0, dim - 1))]
        elif kind == "at-min":
            offset = min(normal)
        elif kind == "below-min":
            offset = min(normal) - draw(st.fractions(min_value=F(1, 6), max_value=2))
        else:
            offset = draw(small)
        rows.append((normal, offset))
    return BeliefPolytope(dim, tuple(rows))


class TestPointMasses:
    @settings(max_examples=300, deadline=None)
    @given(presolve_polytopes(), st.data())
    def test_presolve_answers_as_the_lp(self, poly, data):
        corners = [unit_direction(poly.dim, t) for t in range(poly.dim)]
        assert poly.point_masses == tuple(t for t, e in enumerate(corners) if poly.contains(e))
        assert is_empty(poly) == (not linprog.lp_feasible(poly.dim, poly.lp_rows, nonneg=True)[0])
        entries = st.one_of(st.integers(-2, 2).map(F), small)
        c = tuple(data.draw(st.lists(entries, min_size=poly.dim, max_size=poly.dim)))
        try:
            value, _ = maximize_direction(poly, c)
        except EmptyPolytope:
            with pytest.raises(EmptyPolytope):
                support_value(poly, c)
        else:
            assert support_value(poly, c) == value

    def test_dominated_action_is_empty_without_an_lp(self, monkeypatch):
        monkeypatch.setattr(polytope, "lp_feasible", no_lp)
        assert is_empty(opt_belief_polytope(tiny_game([[0, 0], [1, 1]]), 0))

    def test_full_information_best_response_needs_no_lp(self, monkeypatch, match_half):
        monkeypatch.setattr(polytope, "lp_feasible", no_lp)
        monkeypatch.setattr(polytope, "lp_solve", no_lp)
        poly = opt_belief_polytope(match_half, 0)
        assert not is_empty(poly)
        assert support_value(poly, (F(1), F(-1))) == 1
        with pytest.raises(AssertionError, match="point mass"):
            support_value(poly, (F(-1), F(1)))

    def test_support_value_checks_the_dimension(self, match_half):
        with pytest.raises(DimensionMismatch):
            support_value(opt_belief_polytope(match_half, 0), (F(1),))


def reference_opt_belief_polytope(game, action):
    """The rows as ``Fraction`` payoff differences, before they were read
    off the integer utility table."""
    halfspaces = []
    for alt in range(game.n_actions):
        if alt == action:
            continue
        # u(action) - u(alt) >= 0 rewritten as (u(alt) - u(action)) . x <= 0
        halfspaces.append((utility_difference_direction(game, alt, action), F(0)))
    return BeliefPolytope(dim=game.n_states, halfspaces=tuple(halfspaces))


@st.composite
def fraction_games(draw):
    """1-4 states and 1-4 actions, utilities with denominators 2 and 3, so
    the integer table's scale is above 1, drawn from few values, so ties
    (zeros in a row, tight and degenerate rows) are common."""
    n_states = draw(st.integers(1, 4))
    entry = st.sampled_from([F(-1), F(0), F(1, 3), F(1, 2), F(2)])
    rows = draw(
        st.lists(st.lists(entry, min_size=n_states, max_size=n_states), min_size=1, max_size=4)
    )
    return tiny_game(rows)


class TestIntegerRows:
    @settings(max_examples=150, deadline=None)
    @given(fraction_games(), st.data())
    def test_integer_rows_answer_as_the_fraction_rows(self, game, data):
        """Rows read off the integer table, and any positive multiple of
        them, give the point masses, emptiness, support values and vertices
        of the ``Fraction`` rows."""
        action = data.draw(st.integers(0, game.n_actions - 1))
        poly = opt_belief_polytope(game, action)
        reference = reference_opt_belief_polytope(game, action)
        assert all(type(x) is int for normal, offset in poly.halfspaces for x in (*normal, offset))
        factors = data.draw(st.lists(st.integers(1, 5), min_size=len(poly.halfspaces),
                                     max_size=len(poly.halfspaces)))
        scaled = BeliefPolytope(poly.dim, tuple(
            (tuple(k * x for x in normal), k * offset)
            for k, (normal, offset) in zip(factors, poly.halfspaces)
        ))
        c = tuple(data.draw(st.lists(small, min_size=game.n_states, max_size=game.n_states)))
        answers = []
        for p in (poly, scaled, reference):
            try:
                value = support_value(p, c)
            except EmptyPolytope:
                value = None
            answers.append((p.point_masses, is_empty(p), value, enumerate_vertices(p)))
        assert answers[0] == answers[1] == answers[2]
