"""Exact simplex: feasibility, optima, free variables, degeneracy, and the
Bland pivot sequence itself."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce import linprog
from mbce.consistency import oracle_feasibility
from mbce.game import make_marginal, matching_game
from mbce.generators import XorShift64, random_game, random_marginal
from mbce.linprog import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    lp_feasible,
    lp_solve,
    make_constraint,
)

F = Fraction


def test_unit_interval_feasible():
    cons = [
        make_constraint([1], GREATER_EQUAL, 0),
        make_constraint([1], LESS_EQUAL, 1),
    ]
    feasible, x = lp_feasible(1, cons)
    assert feasible
    assert F(0) <= x[0] <= F(1)


def test_contradictory_bounds_infeasible():
    cons = [
        make_constraint([1], GREATER_EQUAL, 1),
        make_constraint([1], LESS_EQUAL, 0),
    ]
    assert lp_feasible(1, cons) == (False, None)


def test_witness_satisfies_equalities_exactly():
    cons = [
        make_constraint([1, 1], EQUAL, 2),
        make_constraint([1, -1], EQUAL, 0),
    ]
    feasible, x = lp_feasible(2, cons)
    assert feasible
    assert x == (F(1), F(1))


def test_free_variables_can_go_negative():
    cons = [make_constraint([1], LESS_EQUAL, -3)]
    feasible, x = lp_feasible(1, cons)
    assert feasible
    assert x[0] <= -3


def test_nonneg_flag_blocks_negative_region():
    cons = [make_constraint([1], LESS_EQUAL, -3)]
    assert lp_feasible(1, cons, nonneg=True) == (False, None)


def test_small_max_lp():
    cons = [
        make_constraint([1, 1], LESS_EQUAL, 4),
        make_constraint([1, 0], LESS_EQUAL, 2),
        make_constraint([0, 1], LESS_EQUAL, 3),
    ]
    res = lp_solve(2, cons, [3, 2], maximize=True, nonneg=True)
    assert res.status == OPTIMAL
    assert res.value == F(10)
    assert res.x == (F(2), F(2))


def test_minimization_sign_convention():
    cons = [make_constraint([1, 1], EQUAL, 1)]
    res = lp_solve(2, cons, [2, 5], maximize=False, nonneg=True)
    assert res.status == OPTIMAL
    assert res.value == F(2)
    assert res.x == (F(1), F(0))


def test_unbounded_detected():
    cons = [make_constraint([1], GREATER_EQUAL, 0)]
    res = lp_solve(1, cons, [1], maximize=True, nonneg=True)
    assert res.status == UNBOUNDED


def test_infeasible_solve():
    cons = [
        make_constraint([1], GREATER_EQUAL, 2),
        make_constraint([1], LESS_EQUAL, 1),
    ]
    res = lp_solve(1, cons, [1], maximize=False, nonneg=True)
    assert res.status == INFEASIBLE


def test_redundant_equalities_are_dropped_not_fatal():
    cons = [
        make_constraint([1, 1], EQUAL, 1),
        make_constraint([2, 2], EQUAL, 2),
    ]
    feasible, x = lp_feasible(2, cons, nonneg=True)
    assert feasible
    assert x[0] + x[1] == F(1)


def beale_lp():
    # Beale (1955): cycles under naive Dantzig pivoting. The classic
    # min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4 has optimum -1/20.
    cons = [
        make_constraint([F(1, 4), -60, F(-1, 25), 9], LESS_EQUAL, 0),
        make_constraint([F(1, 2), -90, F(-1, 50), 3], LESS_EQUAL, 0),
        make_constraint([0, 0, 1, 0], LESS_EQUAL, 1),
    ]
    return lp_solve(
        4, cons, [F(-3, 4), 150, F(-1, 50), 6], maximize=False, nonneg=True
    )


def degenerate_tie_lp():
    # Multiple rows tie at ratio zero; Bland's tie-break must still succeed.
    cons = [
        make_constraint([1, -1], LESS_EQUAL, 0),
        make_constraint([1, -2], LESS_EQUAL, 0),
        make_constraint([0, 1], LESS_EQUAL, 1),
    ]
    return lp_solve(2, cons, [1, 0], maximize=True, nonneg=True)


def test_beale_cycling_instance_terminates():
    res = beale_lp()
    assert res.status == OPTIMAL
    assert res.value == F(-1, 20)


def test_degenerate_tie_ratio_test():
    res = degenerate_tie_lp()
    assert res.status == OPTIMAL
    assert res.value == F(1)


def matching_oracle():
    return oracle_feasibility(matching_game(F(3, 4)), make_marginal(["1/2", "1/2"]))


def seeded_oracle():
    rng = XorShift64(2)
    game = random_game(rng, max_states=4, max_actions=4, min_states=4, min_actions=4)
    return oracle_feasibility(game, random_marginal(rng, game.n_actions))


# The (row, column) of every pivot, phase one, artificial drive-out and phase
# two alike. Bland's rule fixes each choice from the basis, so these are spec:
# a faster tableau must reproduce them exactly.
PIVOT_SEQUENCES = [
    (beale_lp, [(0, 0), (1, 1), (0, 2), (1, 3), (2, 0), (1, 4)]),
    (degenerate_tie_lp, [(0, 0), (2, 1)]),
    (matching_oracle, [(4, 0), (1, 2), (2, 3), (3, 1)]),
    (
        seeded_oracle,
        [
            (2, 0), (13, 1), (16, 2), (3, 4), (12, 5), (16, 3), (3, 6), (17, 7),
            (6, 8), (7, 9), (4, 11), (6, 10), (9, 14), (9, 15), (15, 18), (13, 2),
            (19, 12), (16, 23), (14, 4),
        ],
    ),
]


@pytest.mark.parametrize(
    "solve, expected", PIVOT_SEQUENCES, ids=[s.__name__ for s, _ in PIVOT_SEQUENCES]
)
def test_bland_pivot_sequence_is_pinned(monkeypatch, solve, expected):
    seen = []
    original = linprog._Tableau.pivot

    def recording(self, r, c):
        seen.append((r, c))
        return original(self, r, c)

    monkeypatch.setattr(linprog._Tableau, "pivot", recording)
    solve()
    assert seen == expected


def test_mismatched_arity_rejected():
    with pytest.raises(ValueError):
        lp_feasible(2, [make_constraint([1], LESS_EQUAL, 1)])


SENSES = (LESS_EQUAL, GREATER_EQUAL, EQUAL)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_lps(draw):
    n = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(st.lists(small, min_size=n, max_size=n), st.sampled_from(SENSES), small),
            min_size=1,
            max_size=4,
        )
    )
    objective = draw(st.lists(small, min_size=n, max_size=n))
    return n, [make_constraint(*row) for row in rows], objective, draw(st.booleans())


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


@settings(max_examples=150, deadline=None)
@given(small_lps())
def test_carried_objective_matches_the_solution(lp):
    """The objective value and reduced costs are carried through the pivots,
    not rebuilt; an optimum must still price out exactly at its own point,
    satisfy every row exactly, and maximizing the negated objective must
    give the same point with the value's sign flipped."""
    n, cons, objective, nonneg = lp
    low = lp_solve(n, cons, objective, nonneg=nonneg)
    high = lp_solve(n, cons, [-c for c in objective], maximize=True, nonneg=nonneg)
    assert high.status == low.status
    assert (low.status != INFEASIBLE) == lp_feasible(n, cons, nonneg=nonneg)[0]
    if low.status != OPTIMAL:
        return
    assert low.value == dot(objective, low.x)
    assert high.x == low.x
    assert high.value == -low.value
    for con in cons:
        lhs = dot(con.coeffs, low.x)
        if con.sense == LESS_EQUAL:
            assert lhs <= con.rhs
        elif con.sense == GREATER_EQUAL:
            assert lhs >= con.rhs
        else:
            assert lhs == con.rhs
    if nonneg:
        assert all(v >= 0 for v in low.x)


# Primes near 10**6: pairwise coprime denominators make every row's lcm, and
# so the integer tableau's entries, large.
BIG_PRIMES = (999_953, 999_959, 999_961, 999_979, 999_983, 1_000_003)
coprime = st.one_of(
    small,
    st.builds(F, st.integers(-(10**6), 10**6), st.sampled_from(BIG_PRIMES)),
)


@st.composite
def coprime_lps(draw):
    n = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(st.lists(coprime, min_size=n, max_size=n), st.sampled_from(SENSES), coprime),
            min_size=1,
            max_size=4,
        )
    )
    objective = draw(st.lists(coprime, min_size=n, max_size=n))
    return n, [make_constraint(*row) for row in rows], objective, draw(st.booleans())


def satisfies(con, point):
    lhs = dot(con.coeffs, point)
    if con.sense == LESS_EQUAL:
        return lhs <= con.rhs
    if con.sense == GREATER_EQUAL:
        return lhs >= con.rhs
    return lhs == con.rhs


def dual_of(n, cons, objective, nonneg):
    """The dual of min objective.x over ``cons``, built by hand: max b.y with
    one multiplier per row, y_i >= 0 on >= rows, y_i <= 0 on <= rows and y_i
    free on == rows, and A'y == c (free x) or A'y <= c (x >= 0)."""
    m = len(cons)
    rows = []
    for j in range(n):
        column = [con.coeffs[j] for con in cons]
        rows.append(make_constraint(column, LESS_EQUAL if nonneg else EQUAL, objective[j]))
    for i, con in enumerate(cons):
        if con.sense != EQUAL:
            unit = [F(int(k == i)) for k in range(m)]
            rows.append(make_constraint(unit, con.sense, 0))
    return m, rows, [con.rhs for con in cons]


@settings(max_examples=150, deadline=None)
@given(coprime_lps())
def test_strong_duality(lp):
    """Optimality checked from outside the tableau: an optimal primal has a
    dual optimum of exactly the same value, and both points satisfy their
    own constraints, which by weak duality proves both optimal; an unbounded
    primal has an infeasible dual, and an infeasible primal a dual that is
    infeasible or unbounded."""
    n, cons, objective, nonneg = lp
    primal = lp_solve(n, cons, objective, nonneg=nonneg)
    m, dual_cons, dual_objective = dual_of(n, cons, objective, nonneg)
    dual = lp_solve(m, dual_cons, dual_objective, maximize=True)
    if primal.status == OPTIMAL:
        assert dual.status == OPTIMAL
        assert dual.value == primal.value
        assert all(satisfies(con, primal.x) for con in cons)
        assert all(satisfies(con, dual.x) for con in dual_cons)
        assert dual.value == dot(dual_objective, dual.x)
        assert primal.value == dot(objective, primal.x)
        if nonneg:
            assert all(v >= 0 for v in primal.x)
    elif primal.status == UNBOUNDED:
        assert dual.status == INFEASIBLE
    else:
        assert dual.status in (INFEASIBLE, UNBOUNDED)
