"""Exact linear programming over rationals.

Two-phase primal simplex with exact answers: constraints, objectives,
witnesses and optimal values are ``fractions.Fraction``s, while the tableau
itself holds only Python ints. Pivoting follows Bland's rule (smallest
eligible index enters; ties in the ratio test resolved by smallest basic
variable index), which precludes cycling: belief polytopes are routinely
degenerate at tie beliefs, so anti-cycling is not optional here. Nothing is
tolerance-based.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968), with one
denominator per row. Each constraint row starts scaled by the lcm of its
denominators, so it is integral and its slack or artificial entry is that
lcm. A row stands for itself divided by its basic entry, which is kept
positive. A pivot eliminates its column from every other row with a nonzero
there, as ``row * (p/h) - (f/h) * pivot_row`` with ``p`` and ``f`` the two
entries in that column and ``h = gcd(p, f)``; the subtraction runs over the
pivot row's nonzeros only. The result is divided by the gcd of its entries,
which keeps the integers as small as the rational row allows. The
reduced costs and the objective value form one more such row, priced out of
the starting basis once per phase and then carried through each pivot.

Bland's choices are unchanged from a rational tableau: every represented
value is a row over its positive basic entry, equal exactly to the rational
value, and it is a function of the basis alone. Signs, and so the entering
column, read off the integers directly; in the ratio test a row's
right-hand side and its entry in the entering column share the row's
denominator, so comparing cross products ``b[r] * A[s][e]`` against
``b[s] * A[r][e]`` orders the ratios exactly. The same bases follow pivot for
pivot, and ``Fraction``s are built only for the returned solution and value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalDisagreement
from .rationals import exact_fraction, fraction_vector

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def make_constraint(coeffs, sense: str, rhs) -> Constraint:
    if sense not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
        raise ValueError(f"unknown constraint sense {sense!r}")
    return Constraint(fraction_vector(coeffs), sense, exact_fraction(rhs))


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


def lp_feasible(
    n_vars: int, constraints: list[Constraint], nonneg: bool = False
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact feasibility of a linear system; witness satisfies every
    constraint exactly. Variables are free unless ``nonneg`` is set."""
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return False, None
    return True, tab.solution()


def lp_solve(
    n_vars: int,
    constraints: list[Constraint],
    objective,
    maximize: bool = False,
    nonneg: bool = False,
) -> LPResult:
    """Two-phase simplex for min (or max) of a linear objective."""
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
