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

import references
from mbce import consistency, linprog, polytope
from mbce.errors import DimensionMismatch, EmptyPolytope
from mbce.game import BaseGame, best_response_set, make_game, make_marginal, matching_game
from mbce.linprog import EQUAL, LESS_EQUAL
from mbce.polytope import (
    BeliefPolytope,
    enumerate_vertices,
    is_empty,
    maximize_direction,
    opt_belief_polytope,
    support_value,
    utility_difference_direction,
)
from mbce.rationals import parse_row, row_fractions
from references import dot, make_constraint, unit_direction

F = Fraction


def vertex_beliefs(poly):
    """The vertices as ``Fraction`` tuples, in the order they come."""
    return tuple(map(row_fractions, enumerate_vertices(poly)))


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
        assert sorted(vertex_beliefs(poly)) == [
            (F(0), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(1), F(0), F(0)),
        ]

    def test_contains_rejects_non_distributions(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        assert not poly.contains((F(2), F(-1)))
        assert not poly.contains((F(1, 2), F(1, 4)))

    @pytest.mark.parametrize("normal", [(1,), (1, 2, 3)])
    def test_ragged_halfspace_is_refused(self, normal):
        """A normal without one entry per state is refused as it is built,
        not read past its end or silently cut short later."""
        with pytest.raises(DimensionMismatch):
            BeliefPolytope(2, ((normal, 0),))


class TestVertices:
    def test_guessing_game_segment_endpoints(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        assert vertex_beliefs(poly) == ((F(1, 2), F(1, 2)), (F(1), F(0)))

    def test_one_state_degenerate_dimension(self):
        game = tiny_game([[1], [0]])
        assert vertex_beliefs(opt_belief_polytope(game, 0)) == ((F(1),),)
        assert enumerate_vertices(opt_belief_polytope(game, 1)) == ()
        assert enumerate_vertices(BeliefPolytope(0, ())) == ()

    def test_tie_region_collapses_to_point(self):
        # both actions identical: every belief optimal, vertices are simplex corners
        game = tiny_game([[2, 2], [2, 2]])
        poly = opt_belief_polytope(game, 0)
        assert vertex_beliefs(poly) == ((F(0), F(1)), (F(1), F(0)))


class TestOptimization:
    def test_direction_across_segment(self, match_half):
        c = parse_row((F(1), F(-1)))
        value, witness = maximize_direction(opt_belief_polytope(match_half, 0), c)
        assert (value, row_fractions(witness)) == (F(1), (F(1), F(0)))
        value, witness = maximize_direction(opt_belief_polytope(match_half, 1), c)
        assert (value, row_fractions(witness)) == (F(0), (F(1, 2), F(1, 2)))

    def test_zero_direction(self, match_half):
        value, _ = maximize_direction(opt_belief_polytope(match_half, 0), parse_row((F(0), F(0))))
        assert value == 0

    def test_empty_polytope_raises(self):
        game = tiny_game([[0, 0], [1, 1]])
        with pytest.raises(EmptyPolytope):
            maximize_direction(opt_belief_polytope(game, 0), parse_row((F(1), F(0))))


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
        vertices = vertex_beliefs(poly)
        c = tuple(F(v) for v in direction_num[: game.n_states])
        if not vertices:
            assert is_empty(poly)
            with pytest.raises(EmptyPolytope):
                maximize_direction(poly, parse_row(c))
            return
        value, witness = maximize_direction(poly, parse_row(c))
        assert value == max(dot(c, v) for v in vertices)
        assert row_fractions(witness) in vertices

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
        vertices = vertex_beliefs(poly)
        for t in range(game.n_states):
            corner = unit_direction(game.n_states, t)
            if poly.contains(corner):
                assert corner in vertices


def rational_rows(poly):
    """The LP the polytope stood for before its rows were cached: the
    simplex row, then each halfspace as its own rational row."""
    rows = [make_constraint([F(1)] * poly.dim, EQUAL, F(1))]
    rows += [make_constraint(normal, LESS_EQUAL, offset) for normal, offset in poly.halfspaces]
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
        twin = BeliefPolytope(poly.dim, poly.halfspaces)
        before = (hash(poly), repr(poly))
        rows = poly.lp_rows
        assert poly.lp_rows is rows
        assert [f.name for f in fields(BeliefPolytope)] == ["dim", "halfspaces"]
        assert "lp_rows" in vars(poly) and "lp_rows" not in vars(twin)
        assert poly == twin
        assert (hash(poly), repr(poly)) == before == (hash(twin), repr(twin))

    def test_point_masses_are_no_field(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        twin = BeliefPolytope(poly.dim, poly.halfspaces)
        before = (hash(poly), repr(poly))
        masses = poly.point_masses
        assert masses == (0,) and poly.point_masses is masses
        assert [f.name for f in fields(BeliefPolytope)] == ["dim", "halfspaces"]
        assert "point_masses" in vars(poly) and "point_masses" not in vars(twin)
        assert poly == twin
        assert (hash(poly), repr(poly)) == before == (hash(twin), repr(twin))

    def test_each_polytope_is_built_once_per_game_and_action(self, match_half):
        poly = opt_belief_polytope(match_half, 0)
        assert opt_belief_polytope(match_half, 0) is poly
        assert match_half.belief_polytopes == {0: poly}
        other = opt_belief_polytope(match_half, 1)
        assert other is not poly and match_half.belief_polytopes == {0: poly, 1: other}
        fresh = matching_game(F(1, 2))
        assert opt_belief_polytope(fresh, 0) == poly
        assert opt_belief_polytope(fresh, 0) is not poly

    def test_cached_polytopes_are_no_field_of_the_game(self, match_half):
        twin = matching_game(F(1, 2))
        before = (hash(match_half), repr(match_half))
        polys = [opt_belief_polytope(match_half, a) for a in range(match_half.n_actions)]
        assert [f.name for f in fields(BaseGame)] == ["states", "actions", "integer_utility", "integer_prior"]
        assert "belief_polytopes" in vars(match_half) and "belief_polytopes" not in vars(twin)
        assert match_half.belief_polytopes == dict(enumerate(polys))
        assert match_half == twin
        assert (hash(match_half), repr(match_half)) == before == (hash(twin), repr(twin))

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
        value, witness = maximize_direction(poly, parse_row((F(1), F(0))))
        assert (value, row_fractions(witness)) == (F(2, 3), (F(2, 3), F(1, 3)))
        assert support_value(poly, parse_row((F(0), F(1)))) == F(2, 3)
        assert len(seen) == 3 and all(rows is poly.lp_rows for rows in seen)

    @settings(max_examples=100, deadline=None)
    @given(polytopes(), st.data())
    def test_cached_rows_pivot_as_the_rational_rows(self, poly, data):
        """Each cached row states its halfspace, the rational row itself,
        and the simplex makes the same pivots and returns the same point and
        value as on the rational rows."""
        for row, (normal, offset) in zip(poly.lp_rows[1:], poly.halfspaces):
            assert row.sense == LESS_EQUAL and row_fractions(row.row) == (*normal, offset)
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
        c = parse_row(data.draw(st.lists(entries, min_size=poly.dim, max_size=poly.dim)))
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
        assert support_value(poly, parse_row((F(1), F(-1)))) == 1
        with pytest.raises(AssertionError, match="point mass"):
            support_value(poly, parse_row((F(-1), F(1))))

    def test_support_value_checks_the_dimension(self, match_half):
        with pytest.raises(DimensionMismatch):
            support_value(opt_belief_polytope(match_half, 0), parse_row((F(1),)))


def reference_opt_belief_polytope(game, action):
    """The rows as ``Fraction`` payoff differences, before they were read
    off the integer utility table."""
    halfspaces = []
    for alt in range(game.n_actions):
        if alt == action:
            continue
        # u(action) - u(alt) >= 0 rewritten as (u(alt) - u(action)) . x <= 0
        halfspaces.append((row_fractions(utility_difference_direction(game, alt, action)), F(0)))
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
                value = support_value(p, parse_row(c))
            except EmptyPolytope:
                value = None
            answers.append((p.point_masses, is_empty(p), value, enumerate_vertices(p)))
        assert answers[0] == answers[1] == answers[2]


class TestIntegerSolve:
    """``_integer_solve`` on rows of coefficients and then a right-hand side."""

    def test_singular_system(self):
        assert polytope._integer_solve([(1, 2, 3), (2, 4, 5)]) is None

    def test_zero_leading_pivot_takes_a_row_swap(self):
        # y = 2, x + 2z = 3, z = 1
        rows = [(0, 1, 0, 2), (1, 0, 2, 3), (0, 0, 1, 1)]
        assert polytope._integer_solve(rows) == (1, (1, 2, 1))

    def test_negative_determinant(self):
        # x + y = 1, x - y = 0: the final pivot is -2, made positive
        assert polytope._integer_solve([(1, 1, 1), (1, -1, 0)]) == (2, (1, 1))

    def test_one_by_one(self):
        assert polytope._integer_solve([(-4, 6)]) == (4, (-6,))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n
        )
    ))
    def test_solves_as_fraction_elimination(self, rows):
        expected = references.solve_square([list(map(F, row[:-1])) for row in rows],
                                           [F(row[-1]) for row in rows])
        solution = polytope._integer_solve([tuple(row) for row in rows])
        if expected is None:
            assert solution is None
        else:
            scale, ints = solution
            assert scale > 0 and [F(x, scale) for x in ints] == expected


@st.composite
def decomposition_games(draw):
    """A 1-5-state game with 1-4 actions, utilities from few values so that
    ties are common, a full prior, and a marginal with zero entries: each
    action's belief polytope, and the game and marginal."""
    n_states, n_actions = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    entry = st.sampled_from([F(-1), F(0), F(1, 3), F(1, 2), F(2)])
    row = st.lists(entry, min_size=n_states, max_size=n_states)
    prior = draw(st.lists(st.integers(1, 4), min_size=n_states, max_size=n_states))
    weights = draw(st.lists(st.integers(0, 3), min_size=n_actions, max_size=n_actions).filter(any))
    game = make_game(
        [f"t{t}" for t in range(n_states)],
        [f"a{a}" for a in range(n_actions)],
        draw(st.lists(row, min_size=n_actions, max_size=n_actions)),
        [F(p, sum(prior)) for p in prior],
    )
    marginal = make_marginal([F(w, sum(weights)) for w in weights])
    return [opt_belief_polytope(game, a) for a in range(n_actions)], (game, marginal)


@st.composite
def fraction_polytopes(draw):
    """A polytope of dimension 1-5 with ``Fraction`` rows: none, free rows,
    duplicated rows, all-zero rows, and rows that exclude every belief."""
    dim = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["free", "duplicate", "zero", "infeasible"]))
        normal = tuple(draw(st.lists(small, min_size=dim, max_size=dim)))
        if kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "zero":
            rows.append(((F(0),) * dim, draw(small)))
        elif kind == "infeasible":
            rows.append((normal, min(normal) - draw(st.fractions(min_value=F(1, 6), max_value=2))))
        else:
            rows.append((normal, draw(small)))
    return [BeliefPolytope(dim, tuple(rows))], None


def probe_points(draw, poly, vertices):
    """Points to test membership at: the vertices, the point masses, their
    mean, a drawn distribution, and a point off the simplex."""
    n = poly.dim
    points = [*vertices, *(unit_direction(n, t) for t in range(n))]
    if vertices:
        points.append(tuple(sum(column) / len(vertices) for column in zip(*vertices)))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    points.append(tuple(F(w, sum(weights)) for w in weights))
    points.append(tuple(F(w, sum(weights)) - F(int(t == 0)) for t, w in enumerate(weights)))
    return points


def decompose(module, game, marginal):
    """``module.belief_decomposition(game, marginal)``, and the rational
    rows and senses of the LP it hands to ``lp_feasible``."""
    rows = []

    def recording(n_vars, constraints, **kwargs):
        rows.extend((row_fractions(con.row), con.sense) for con in constraints)
        return linprog.lp_feasible(n_vars, constraints, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "lp_feasible", recording)
        return module.belief_decomposition(game, marginal), rows


@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.one_of(decomposition_games(), fraction_polytopes()), st.data())
def test_integer_vertex_layer_answers_as_the_fraction_scan(instance, data):
    """Vertices, membership and the vertex decomposition on integer rows
    give the answers of the ``Fraction`` scan they replaced; the
    decomposition's LP rows, which take artificials, are the same rational
    rows."""
    polys, decomposition = instance
    for poly in polys:
        vertices = references.enumerate_vertices(poly)
        assert vertex_beliefs(poly) == vertices
        for point in probe_points(data.draw, poly, vertices):
            assert poly.contains(point) == references.contains(poly, point)
    if decomposition is not None:
        assert decompose(consistency, *decomposition) == decompose(references, *decomposition)
