"""Exact simplex: feasibility, optima, free variables, degeneracy, and the
Bland pivot sequence itself."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbce import consistency, linprog
from mbce.consistency import oracle_feasibility
from mbce.errors import InternalDisagreement
from mbce.game import best_response_set, make_marginal, matching_game
from mbce.generators import XorShift64, random_game, random_marginal
from mbce.linprog import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    Constraint,
    LPResult,
    lp_feasible,
    lp_solve,
    make_constraint,
    scaled_to_integers,
)
from mbce.rationals import fraction_vector

F = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


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


# The reference: the dense integer tableau that ``linprog._Tableau`` replaced,
# kept verbatim, with the drivers it ran under. It stores every column
# (basic ones and the objective column ``z`` included) and takes a Bland ban
# on the artificial columns in phase two. The condensed tableau must make the
# same pivots and return the same answers.


class _Tableau:
    """Equality-form tableau with an identity starting basis, on integers.

    Columns: structural first, then slack/surplus, artificials last. Rows are
    sign-normalized so the right-hand side is nonnegative. Each row is a list
    of Python ints: the column coefficients, a zero in the objective column
    ``z`` (see ``minimize``) and the right-hand side last. Row ``r`` stands
    for itself divided by its basic entry ``A[r][basis[r]]``, which is kept
    positive.
    """

    def __init__(self, n_vars: int, constraints: list[Constraint], nonneg: bool):
        for con in constraints:
            if len(con.coeffs) != n_vars:
                raise ValueError(
                    f"constraint has {len(con.coeffs)} coefficients for {n_vars} variables"
                )
        # A free variable x is modelled as x = x+ - x- with both parts >= 0.
        if nonneg:
            self.var_cols = [((j, 1),) for j in range(n_vars)]
        else:
            self.var_cols = [((j, 1), (j, -1)) for j in range(n_vars)]
        struct = [(j, s) for parts in self.var_cols for (j, s) in parts]
        self.n_vars = n_vars
        self.n_struct = len(struct)

        rows: list[list[int]] = []
        rhs: list[int] = []
        scales: list[int] = []
        kinds: list[str] = []  # "slack" | "artificial" per row's basic column
        for con in constraints:
            # Scaled by the lcm of its denominators the row is integral, and
            # that positive lcm becomes its basic slack or artificial entry.
            scale = lcm(con.rhs.denominator, *(c.denominator for c in con.coeffs))
            ints = [c.numerator * (scale // c.denominator) for c in con.coeffs]
            coeffs = [ints[j] * s for (j, s) in struct]
            b = con.rhs.numerator * (scale // con.rhs.denominator)
            sense = con.sense
            if b < 0:
                coeffs = [-c for c in coeffs]
                b = -b
                sense = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[sense]
            if sense == GREATER_EQUAL and b == 0:
                # Equivalent <= row whose slack can start basic at zero.
                coeffs = [-c for c in coeffs]
                sense = LESS_EQUAL
            rows.append(coeffs)
            rhs.append(b)
            scales.append(scale)
            kinds.append("slack" if sense == LESS_EQUAL else sense)

        m = len(rows)
        n_extra = sum(1 for k in kinds if k == GREATER_EQUAL)  # surplus columns
        n_art = sum(1 for k in kinds if k in (GREATER_EQUAL, EQUAL))
        n_slack = sum(1 for k in kinds if k == "slack")
        total = self.n_struct + n_slack + n_extra + n_art
        self.art_start = self.n_struct + n_slack + n_extra

        # The zero after the columns is the objective column ``z``.
        self.A = [row + [0] * (total - self.n_struct + 1) + [b] for row, b in zip(rows, rhs)]
        self.basis = [0] * m
        slack_at = self.n_struct
        art_at = self.art_start
        for r, kind in enumerate(kinds):
            if kind == "slack":
                self.A[r][slack_at] = scales[r]
                self.basis[r] = slack_at
                slack_at += 1
            else:
                if kind == GREATER_EQUAL:
                    self.A[r][slack_at] = -scales[r]  # surplus
                    slack_at += 1
                self.A[r][art_at] = scales[r]
                self.basis[r] = art_at
                art_at += 1
        self.n_cols = total

    def pivot(self, r: int, c: int) -> list[tuple[int, int]]:
        """Make column ``c`` basic in row ``r``, in place. The pivot row only
        takes the sign that makes its entry in ``c`` positive; every other
        row with a nonzero in ``c`` has that column eliminated. Returns the
        pivot row's support, so a caller can eliminate ``c`` from a row it
        keeps outside the tableau in the same way."""
        row = self.A[r]
        if row[c] < 0:
            row = self.A[r] = [-x for x in row]
        support = [(j, x) for j, x in enumerate(row) if x]
        for i, other in enumerate(self.A):
            if other[c] and i != r:
                self.A[i] = _eliminate(other, c, row[c], support)
        self.basis[r] = c
        return support

    def minimize(self, cost: list[Fraction], banned_from: int) -> tuple[str, Fraction]:
        """Run Bland-rule simplex iterations for min cost'x; columns at or
        beyond ``banned_from`` may not enter the basis.

        The reduced costs and the negated objective value are one more
        integer row, whose basic column is the objective column ``z``: its
        entry there is the row's positive denominator. It is priced out of
        the starting basis once, then eliminated against each pivot row."""
        z = self.n_cols
        scale = lcm(*(c.denominator for c in cost))
        red = [c.numerator * (scale // c.denominator) for c in cost] + [scale, 0]
        for r, col in enumerate(self.basis):
            if red[col]:
                row = self.A[r]
                red = _eliminate(red, col, row[col], [(j, x) for j, x in enumerate(row) if x])
        while True:
            enter = None
            for j in range(banned_from):
                if red[j] < 0:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL, Fraction(-red[-1], red[z])
            # Row r's ratio is A[r][-1] / A[r][enter]; both are over the same
            # positive denominator, so comparing cross products is exact.
            leave = None
            for r, row in enumerate(self.A):
                a_re = row[enter]
                if a_re > 0:
                    if leave is None:
                        leave = r
                        continue
                    best = self.A[leave]
                    lhs = row[-1] * best[enter]
                    rhs = best[-1] * a_re
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave = r
            if leave is None:
                return UNBOUNDED, Fraction(-red[-1], red[z])
            support = self.pivot(leave, enter)
            red = _eliminate(red, enter, self.A[leave][enter], support)

    def drive_out_artificials(self) -> None:
        """After a zero-value phase one, pivot artificial variables out of the
        basis; rows that cannot pivot are redundant and get dropped."""
        keep_rows = []
        for r in range(len(self.A)):
            if self.basis[r] < self.art_start:
                keep_rows.append(r)
                continue
            col = next(
                (j for j in range(self.art_start) if self.A[r][j] != 0),
                None,
            )
            if col is None:
                continue  # all-zero row: redundant constraint
            self.pivot(r, col)
            keep_rows.append(r)
        self.A = [self.A[r] for r in keep_rows]
        self.basis = [self.basis[r] for r in keep_rows]

    def solution(self) -> tuple[Fraction, ...]:
        struct_vals = [ZERO] * self.n_struct
        for row, col in zip(self.A, self.basis):
            if col < self.n_struct:
                struct_vals[col] = Fraction(row[-1], row[col])
        x = [ZERO] * self.n_vars
        at = 0
        for j, parts in enumerate(self.var_cols):
            for (_, sign) in parts:
                x[j] += sign * struct_vals[at]
                at += 1
        return tuple(x)


def _eliminate(row: list[int], c: int, p: int, support: list[tuple[int, int]]) -> list[int]:
    """``row`` with column ``c`` eliminated by a pivot row whose positive
    entry in ``c`` is ``p`` and whose nonzeros are ``support``: with ``f``
    the row's entry in ``c`` and ``h = gcd(p, f)``, the row times ``p/h``
    minus ``f/h`` times the pivot row, divided by its gcd. The pivot row is
    zero in the row's basic column and ``p/h`` is positive, so the basic
    entry stays positive, and the row over it is exactly the rational
    elimination's row."""
    f = row[c]
    h = gcd(p, f)
    f //= h
    new = row[:] if p == h else [x * (p // h) for x in row]
    for j, y in support:
        new[j] -= f * y
    g = gcd(*new)
    if g > 1:
        new = [x // g for x in new]
    return new


def _phase_one(tab: _Tableau) -> bool:
    cost = [ZERO] * tab.n_cols
    for j in range(tab.art_start, tab.n_cols):
        cost[j] = ONE
    status, value = tab.minimize(cost, banned_from=tab.n_cols)
    if status != OPTIMAL:  # the phase-one objective is bounded below by zero
        raise InternalDisagreement("phase-one simplex reported an unbounded objective")
    if value != 0:
        return False
    tab.drive_out_artificials()
    return True


def reference_lp_feasible(n_vars, constraints, nonneg=False):
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return False, None
    return True, tab.solution()


def reference_lp_solve(n_vars, constraints, objective, maximize=False, nonneg=False):
    obj = fraction_vector(objective)
    if len(obj) != n_vars:
        raise ValueError(f"objective has {len(obj)} coefficients for {n_vars} variables")
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return LPResult(INFEASIBLE, None, None)
    sign = -ONE if maximize else ONE
    cost = [ZERO] * tab.n_cols
    at = 0
    for j, parts in enumerate(tab.var_cols):
        for (_, s) in parts:
            cost[at] = sign * s * obj[j]
            at += 1
    status, value = tab.minimize(cost, banned_from=tab.art_start)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    return LPResult(OPTIMAL, tab.solution(), sign * value)


def recorded(tableau, solve, *args, **kwargs):
    """``solve(*args, **kwargs)`` with every ``tableau.pivot`` call's
    ``(row, entering column)`` recorded; returns the answer and the calls."""
    seen = []
    original = tableau.pivot

    def recording(self, r, c):
        seen.append((r, c))
        return original(self, r, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableau, "pivot", recording)
        answer = solve(*args, **kwargs)
    return answer, seen


# Small ints (so that ratios tie and bases degenerate), fractions with unlike
# denominators, and large coprime ones.
entries = st.one_of(
    st.integers(-2, 2),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.builds(F, st.integers(-(10**6), 10**6), st.sampled_from(BIG_PRIMES)),
)


FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}


def multiple_of(row, k):
    """The same constraint as ``row``, written times ``k``."""
    coeffs, sense, rhs = row
    return [k * c for c in coeffs], sense if k > 0 else FLIPPED[sense], k * rhs


@st.composite
def mixed_lps(draw):
    """Rows of every sense over int and ``Fraction`` coefficients, half of
    them with a zero right-hand side, plus repeated rows, multiples of rows
    and all-zero rows, in a drawn order. Redundant rows, a row beside its
    negation above all, can end phase one with an artificial basic at zero,
    which the drive-out must pivot out or drop."""
    n = draw(st.integers(1, 4))
    rhs = st.one_of(st.just(0), entries)
    row = st.tuples(st.lists(entries, min_size=n, max_size=n), st.sampled_from(SENSES), rhs)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    multiple = st.builds(multiple_of, st.sampled_from(rows), st.sampled_from([1, 2, F(1, 3), -1, -2]))
    zero_row = st.tuples(st.just([0] * n), st.sampled_from(SENSES), rhs)
    rows += draw(st.lists(st.one_of(multiple, zero_row), max_size=3))
    rows = draw(st.permutations(rows))
    constraints = [Constraint(tuple(coeffs), sense, b) for coeffs, sense, b in rows]
    objective = draw(st.lists(entries, min_size=n, max_size=n))
    return n, constraints, objective, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(mixed_lps(), st.booleans())
# Both artificials end phase one basic at zero; the drive-out pivots x0 into
# the first row, the smallest of its two candidates, and drops the second.
@example((2, [Constraint((1, -1), EQUAL, 0), Constraint((-1, 1), EQUAL, 0)], [1, 0], True), False)
def test_condensed_tableau_pivots_as_the_dense_reference(lp, maximize):
    """Same (row, entering column) at every pivot, same status, same point
    and same value as the dense reference, for feasibility and for the
    two-phase solve."""
    n, cons, objective, nonneg = lp
    new = recorded(linprog._Tableau, lp_feasible, n, cons, nonneg=nonneg)
    old = recorded(_Tableau, reference_lp_feasible, n, cons, nonneg=nonneg)
    assert new == old
    new = recorded(linprog._Tableau, lp_solve, n, cons, objective, maximize, nonneg)
    old = recorded(_Tableau, reference_lp_solve, n, cons, objective, maximize, nonneg)
    assert new == old


def takes_only_a_slack(con):
    """A row whose sign-normalized form is ``<=`` with a nonnegative
    right-hand side: its basic variable is a slack, never an artificial."""
    if con.sense == LESS_EQUAL:
        return con.rhs >= 0
    return con.sense == GREATER_EQUAL and con.rhs <= 0


@settings(max_examples=100, deadline=None)
@given(mixed_lps(), st.lists(st.integers(1, 10**6), min_size=10, max_size=10), st.booleans())
def test_scaling_a_slack_only_row_changes_nothing(lp, factors, maximize):
    """A positive multiple of a row that takes only a slack rescales that
    slack alone: the same pivots, status, point and value. So do the rows
    ``scaled_to_integers`` gives, which leaves every other row as it is."""
    n, cons, objective, nonneg = lp
    scaled = [
        Constraint(tuple(k * c for c in con.coeffs), con.sense, k * con.rhs)
        if takes_only_a_slack(con)
        else con
        for con, k in zip(cons, factors)
    ]
    integral = [scaled_to_integers(con) for con in cons]
    for con, row in zip(cons, integral):
        if takes_only_a_slack(con):
            assert all(type(q) is int for q in (*row.coeffs, row.rhs))
        else:
            assert row is con
    for solve, args in ((lp_feasible, ()), (lp_solve, (objective, maximize))):
        plain = recorded(linprog._Tableau, solve, n, cons, *args, nonneg=nonneg)
        assert recorded(linprog._Tableau, solve, n, scaled, *args, nonneg=nonneg) == plain
        assert recorded(linprog._Tableau, solve, n, integral, *args, nonneg=nonneg) == plain


def two_action_oracle_lp(seed, n_states, n_actions):
    """The oracle LP of a random game with a marginal on two actions, as
    ``oracle_feasibility`` builds it. Odd seeds split the prior into two
    posteriors with different best responses, so the marginal is consistent
    by construction; even seeds put random weights on two random actions."""
    rng = XorShift64(seed)
    game = random_game(rng, n_states, n_actions, n_states, n_actions)
    probs = [ZERO] * n_actions
    if seed % 2:
        while not any(probs):
            low = [F(rng.randint(0, 3), 4) * q for q in game.prior]
            high = [q - x for q, x in zip(game.prior, low)]
            w = sum(low)
            if 0 < w < 1:
                a = min(best_response_set(game, [x / w for x in low]))
                b = min(best_response_set(game, [x / (1 - w) for x in high]))
                if a != b:
                    probs[a], probs[b] = w, 1 - w
    else:
        a, b = rng.randint(0, n_actions - 1), rng.randint(0, n_actions - 1)
        k = rng.randint(1, 7)
        probs[a] += F(k, 8)
        probs[b] += F(8 - k, 8)
    captured = []

    def capture(n_vars, constraints, nonneg=False):
        captured.append((n_vars, constraints, nonneg))
        return lp_feasible(n_vars, constraints, nonneg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consistency, "lp_feasible", capture)
        oracle_feasibility(game, make_marginal(probs))
    return captured[0]


ORACLE_SCALE = [(seed, 5, 6) for seed in range(1, 7)] + [(seed, 6, 7) for seed in range(7, 13)]


def test_oracle_scale_lps_pivot_as_the_dense_reference_on_primitive_rows(monkeypatch):
    """At the size of a ``wide`` oracle LP (up to 42 variables and 55
    rows) rows go through many eliminations without being reduced. Every
    pivot must still match the dense reference, which reduces every row it
    updates, and every pivot row must be primitive when it is used."""
    lps = [two_action_oracle_lp(*shape) for shape in ORACLE_SCALE]
    expected = [recorded(_Tableau, reference_lp_feasible, *lp) for lp in lps]
    assert {feasible for (feasible, _), _ in expected} == {True, False}

    unreduced = []
    original = linprog._Tableau.pivot

    def checked(self, r, c):
        unreduced.append(gcd(*self.rows[r]) > 1)
        support = original(self, r, c)
        assert gcd(*self.rows[r]) == 1
        assert gcd(self.rows[r][-1], *(x for _, x in support)) == 1
        return support

    monkeypatch.setattr(linprog._Tableau, "pivot", checked)
    assert [recorded(linprog._Tableau, lp_feasible, *lp) for lp in lps] == expected
    assert any(unreduced)
