"""Exact linear programming over rationals.

Two-phase primal simplex on ``fractions.Fraction``. Pivoting follows Bland's
rule (smallest eligible index enters; ties in the ratio test resolved by
smallest basic variable index), which precludes cycling: belief polytopes are
routinely degenerate at tie beliefs, so anti-cycling is not optional here.
Everything stays exact, so feasibility and optimality answers are never
tolerance-based.

The tableau is stored as dense rows but updated sparsely: a pivot divides
only the nonzero entries of the pivot row and changes each other row in
place on that row's support alone, since ``x - f * 0 == x`` exactly. The
reduced-cost row and the objective value are priced out of the starting
basis once per phase and then carried through each pivot as one more row.
Neither alters a single value: every tableau entry and reduced cost is a
function of the basis alone, and the arithmetic is exact, so Bland's rule
sees the same numbers, and makes the same entering and leaving choices pivot
for pivot, as on a dense tableau whose reduced costs are recomputed from the
basis at each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """Equality-form tableau with an identity starting basis.

    Columns: structural first, then slack/surplus, artificials last. Rows are
    sign-normalized so the right-hand side is nonnegative.
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

        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        kinds: list[str] = []  # "slack" | "artificial" per row's basic column
        for con in constraints:
            coeffs = [con.coeffs[j] * s for (j, s) in struct]
            b = con.rhs
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
            kinds.append("slack" if sense == LESS_EQUAL else sense)

        m = len(rows)
        n_extra = sum(1 for k in kinds if k == GREATER_EQUAL)  # surplus columns
        n_art = sum(1 for k in kinds if k in (GREATER_EQUAL, EQUAL))
        n_slack = sum(1 for k in kinds if k == "slack")
        total = self.n_struct + n_slack + n_extra + n_art
        self.art_start = self.n_struct + n_slack + n_extra

        self.A = [row + [ZERO] * (total - self.n_struct) for row in rows]
        self.b = rhs
        self.basis = [0] * m
        slack_at = self.n_struct
        art_at = self.art_start
        for r, kind in enumerate(kinds):
            if kind == "slack":
                self.A[r][slack_at] = ONE
                self.basis[r] = slack_at
                slack_at += 1
            else:
                if kind == GREATER_EQUAL:
                    self.A[r][slack_at] = -ONE  # surplus
                    slack_at += 1
                self.A[r][art_at] = ONE
                self.basis[r] = art_at
                art_at += 1
        self.n_cols = total

    def pivot(self, r: int, c: int) -> list[tuple[int, Fraction]]:
        """Make column ``c`` basic in row ``r``, in place. Only the nonzero
        entries of the pivot row are normalized, and each other row changes
        only on that row's support (elsewhere ``x - f * 0 == x`` exactly).
        Returns the normalized support, so a caller can eliminate ``c`` from
        a row it keeps outside the tableau in the same way."""
        row = self.A[r]
        piv = row[c]
        support = [(j, x / piv) for j, x in enumerate(row) if x]
        for j, x in support:
            row[j] = x
        b_r = self.b[r] = self.b[r] / piv
        for i, other in enumerate(self.A):
            f = other[c]
            if f and i != r:
                for j, x in support:
                    other[j] -= f * x
                self.b[i] -= f * b_r
        self.basis[r] = c
        return support

    def minimize(self, cost: list[Fraction], banned_from: int) -> tuple[str, Fraction]:
        """Run Bland-rule simplex iterations for min cost'x; columns at or
        beyond ``banned_from`` may not enter the basis. The reduced costs
        and the objective value are priced out once, then carried through
        each pivot."""
        red = list(cost)
        value = ZERO
        for r, col in enumerate(self.basis):
            cb = cost[col]
            if cb:
                value += cb * self.b[r]
                for j, x in enumerate(self.A[r]):
                    if x:
                        red[j] -= cb * x
        while True:
            enter = None
            for j in range(banned_from):
                if red[j] < 0:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL, value
            leave = None
            best = None
            for r in range(len(self.A)):
                a_re = self.A[r][enter]
                if a_re > 0:
                    ratio = self.b[r] / a_re
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave is None:
                return UNBOUNDED, value
            d = red[enter]
            for j, x in self.pivot(leave, enter):
                red[j] -= d * x
            value += d * self.b[leave]

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
        self.b = [self.b[r] for r in keep_rows]
        self.basis = [self.basis[r] for r in keep_rows]

    def solution(self) -> tuple[Fraction, ...]:
        struct_vals = [ZERO] * self.n_struct
        for r, col in enumerate(self.basis):
            if col < self.n_struct:
                struct_vals[col] = self.b[r]
        x = [ZERO] * self.n_vars
        at = 0
        for j, parts in enumerate(self.var_cols):
            for (_, sign) in parts:
                x[j] += sign * struct_vals[at]
                at += 1
        return tuple(x)


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
