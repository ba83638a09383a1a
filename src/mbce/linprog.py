"""Exact linear programming over rationals.

Two-phase primal simplex with exact answers: constraints and objectives
are exact rationals, witnesses integer rows and optimal values ``Fraction``s,
while the tableau itself holds only Python ints.
Pivoting follows Bland's rule (smallest eligible index enters; ties in the
ratio test resolved by smallest basic variable index), which precludes
cycling: belief polytopes are routinely degenerate at tie beliefs, so
anti-cycling is not optional here. Nothing is tolerance-based.

The tableau is condensed (the dictionary, or Tucker, form): a row holds its
entries in the nonbasic variables only, the structural and surplus ones,
then its right-hand side, then its entry in its own basic variable. The
identity block of the basic slack and artificial variables is never stored.
A pivot swaps the entering and the leaving variable in one slot. Artificial
variables that leave the basis keep a slot through phase one, because
Bland's rule may choose one to enter again. Phase one that reaches zero
leaves every artificial still basic at zero, so ``lp_feasible`` reads its
witness there. Phase two may not let an artificial enter, so before it
``lp_solve`` pivots each basic artificial out (a pivot on a zero right-hand
side, which moves no value), drops the row of any that cannot leave, whose
constraint is redundant, and then drops the artificial slots.

The rows are fraction-free (Edmonds 1967; Bareiss 1968), with one
denominator per row. A constraint arrives as an integer row
(``rationals.IntegerRow``): its coefficients and then its right-hand side,
as integers over one positive scale, which becomes its slack or artificial
entry. A row stands for itself divided by its basic entry, which is kept
positive, so any positive factor it carries leaves its rational row as it
is. A pivot first divides the pivot row by the gcd of its entries, basic
entry included, which makes it the smallest integer form of its rational
row. It then eliminates the entering variable from every other row with a
nonzero in its slot, as ``row * (p/h) - (f/h) * pivot_row`` with ``p`` the
pivot row's basic entry, ``f`` the row's entry in that slot and
``h = gcd(p, f)``; the subtraction runs over the pivot row's nonzeros only,
and the result is not reduced. Only primitive rows are ever multiplied into
others, so an elimination adds at most the pivot row's bit length plus one
to a row: a row's integers grow linearly in the eliminations it has gone
through since it was last a pivot row, never exponentially. The reduced
costs and the objective value form one more such row, priced out of the
starting basis (and reduced) once per phase and then carried through each
pivot.

Bland's choices are those of a rational tableau: every represented value is
a row over its positive basic entry, equal exactly to the rational value,
and it is a function of the basis alone. Signs, and so the entering
variable, read off the integers directly; in the ratio test a row's
right-hand side and its entry in the entering slot share the row's
denominator, so comparing cross products orders the ratios exactly. The
same bases follow pivot for pivot, and a ``Fraction`` is built only for the
returned optimal value; the solution is an integer row.

A row is its ``IntegerRow``: the rational row its integers over its scale
stand for, whatever common factor the two carry. Which rational row a
caller passes can still matter. A row whose basic variable is a slack
(``<=`` with a nonnegative right-hand side, or ``>=`` with a nonpositive
one) may be passed as any positive multiple of itself: that only rescales
its slack, which no objective prices, so the pivots and the answer are
unchanged. The obedience rows of the oracle LP are passed so, as integer
utility differences over scale 1. A row that takes an artificial (``==``,
``<=`` with a negative right-hand side, or ``>=`` with a positive one) must
be the exact rational row the caller means: the phase-one objective sums
the artificial variables, and each is in units of its row, so a multiple
of such a row reweighs its artificial and can change the pivots.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalDisagreement
from .rationals import IntegerRow, parse_row

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """``coeffs . x`` ``sense`` ``rhs``, held as the integer row ``row``:
    the coefficients and then the right-hand side over one positive scale.
    A multiple of the rational row changes its LP only where the module
    docstring says."""

    row: IntegerRow
    sense: str


@dataclass(frozen=True)
class LPResult:
    status: str
    x: IntegerRow | None
    value: Fraction | None


class _Tableau:
    """Condensed (dictionary) tableau on integers, from an identity starting
    basis.

    Variables: structural first, then slack/surplus, artificials last. Rows
    are sign-normalized so the right-hand side is nonnegative. ``nonbasic``
    lists the variable held in each slot. Each row is a list of Python ints:
    its entries in the slots, then its right-hand side, then its basic entry
    (its entry in the variable ``basis[r]``), which is kept positive. Row
    ``r`` stands for itself divided by that basic entry; its entries in the
    other basic variables are zero and are not stored.
    """

    def __init__(self, n_vars: int, constraints: Sequence[Constraint], nonneg: bool):
        for con in constraints:
            if len(con.row[1]) != n_vars + 1:
                raise ValueError(
                    f"constraint has {len(con.row[1]) - 1} coefficients for {n_vars} variables"
                )
        self.n_vars = n_vars
        self.nonneg = nonneg
        self.n_struct = n_struct = n_vars if nonneg else 2 * n_vars

        rows: list[list[int]] = []
        rhs: list[int] = []
        scales: list[int] = []
        kinds: list[str] = []  # "slack" | "artificial" per row's basic variable
        for con in constraints:
            # The row's positive scale becomes its basic slack or artificial
            # entry.
            scale, ints = con.row
            b = ints[-1]
            coeffs = _structural(list(ints[:-1]), nonneg)
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

        n_extra = kinds.count(GREATER_EQUAL)  # surplus variables
        n_slack = kinds.count("slack")
        self.art_start = n_struct + n_slack + n_extra
        self.n_cols = self.art_start + len(kinds) - n_slack

        # Structural and surplus variables start nonbasic, slack and
        # artificial ones basic.
        self.nonbasic = list(range(n_struct))
        self.rows = []
        self.basis = []
        slack_at = n_struct
        art_at = self.art_start
        for coeffs, b, scale, kind in zip(rows, rhs, scales, kinds):
            surplus = [0] * n_extra
            if kind == "slack":
                self.basis.append(slack_at)
            else:
                if kind == GREATER_EQUAL:
                    surplus[len(self.nonbasic) - n_struct] = -scale
                    self.nonbasic.append(slack_at)
                self.basis.append(art_at)
                art_at += 1
            if kind != EQUAL:
                slack_at += 1
            self.rows.append(coeffs + surplus + [b, scale])

    def pivot(self, r: int, c: int) -> list[tuple[int, int]]:
        """Make variable ``c`` basic in row ``r``, in place. The leaving
        variable takes ``c``'s slot with its old basic entry, and the pivot
        row takes the sign that makes its new basic entry positive and is
        divided by the gcd of its entries; every other row with a nonzero in
        that slot has it eliminated. Returns the pivot row's nonzeros before
        its basic entry, so a caller can eliminate a row it keeps outside the
        tableau in the same way."""
        k = self.nonbasic.index(c)
        row = self.rows[r]
        row[k], row[-1] = row[-1], row[k]
        if row[-1] < 0:
            row = [-x for x in row]
        row = self.rows[r] = _reduce(row)
        p = row[-1]
        support = [(j, x) for j, x in enumerate(row[:-1]) if x]
        for i, other in enumerate(self.rows):
            if other[k] and i != r:
                self.rows[i] = _eliminate(other, k, p, support)
        self.nonbasic[k] = self.basis[r]
        self.basis[r] = c
        return support

    def minimize(self, cost: list[int], scale: int) -> tuple[str, int, int]:
        """Run Bland-rule simplex iterations for min cost'x / scale, over the
        variables in the slots; return the status and the objective value's
        numerator and positive denominator.

        The reduced costs and the negated objective value are one more
        integer row, whose basic variable is the objective itself: its last
        entry is the row's positive denominator. It is priced out of the
        starting basis once, then eliminated against each pivot row."""
        red = self._price(cost, scale)
        while True:
            enter = min((v for v, x in zip(self.nonbasic, red) if x < 0), default=None)
            if enter is None:
                return OPTIMAL, -red[-2], red[-1]
            k = self.nonbasic.index(enter)
            # Row r's ratio is rhs / entry; both are over the same positive
            # denominator, so comparing cross products is exact.
            leave = None
            for r, row in enumerate(self.rows):
                a_re = row[k]
                if a_re > 0:
                    if leave is None:
                        leave = r
                        continue
                    best = self.rows[leave]
                    lhs = row[-2] * best[k]
                    rhs = best[-2] * a_re
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leave]):
                        leave = r
            if leave is None:
                return UNBOUNDED, -red[-2], red[-1]
            support = self.pivot(leave, enter)
            red = _eliminate(red, k, self.rows[leave][-1], support)

    def _price(self, cost: list[int], scale: int) -> list[int]:
        """The reduced-cost row of ``cost / scale`` in the current basis:
        the cost of each slot minus, for each row, the cost of its basic
        variable times the row over its basic entry, all over the lcm of
        those basic entries."""
        priced = [(row, cost[v]) for row, v in zip(self.rows, self.basis) if cost[v]]
        m = lcm(*(row[-1] for row, _ in priced))
        red = [m * cost[v] for v in self.nonbasic]
        red.append(0)
        for row, f in priced:
            f *= m // row[-1]
            red = [x - f * y for x, y in zip(red, row)]
        red.append(scale * m)
        return _reduce(red)

    def drop_artificials(self) -> None:
        """After a zero-value phase one, pivot each artificial variable still
        basic out of the basis on the smallest variable with a nonzero in its
        row, or drop the row if there is none (a redundant constraint); then
        remove the artificial slots: phase two may not let them enter."""
        for r, v in enumerate(self.basis):
            if v < self.art_start:
                continue
            col = min(
                (u for u, x in zip(self.nonbasic, self.rows[r]) if x and u < self.art_start),
                default=None,
            )
            if col is not None:
                self.pivot(r, col)
        kept = [r for r, v in enumerate(self.basis) if v < self.art_start]
        slots = [k for k, v in enumerate(self.nonbasic) if v < self.art_start]
        self.basis = [self.basis[r] for r in kept]
        self.nonbasic = [self.nonbasic[k] for k in slots]
        self.rows = [[self.rows[r][k] for k in slots] + self.rows[r][-2:] for r in kept]

    def solution(self) -> IntegerRow:
        """The basic solution as an integer row over the lcm of its rows' basic entries."""
        basic = [(v, row) for row, v in zip(self.rows, self.basis) if v < self.n_struct]
        scale = lcm(*[row[-1] for _, row in basic])
        values = [0] * self.n_struct
        for v, row in basic:
            values[v] = row[-2] * (scale // row[-1])
        if self.nonneg:
            return scale, tuple(values)
        return scale, tuple([values[2 * j] - values[2 * j + 1] for j in range(self.n_vars)])


def _structural(values: list, nonneg: bool) -> list:
    """Values per variable laid out over the structural columns: a free
    variable x is modelled as x = x+ - x- with both parts >= 0."""
    return values if nonneg else [y for v in values for y in (v, -v)]


def _eliminate(row: list[int], k: int, p: int, support: list[tuple[int, int]]) -> list[int]:
    """``row`` with slot ``k``'s variable eliminated by a pivot that has just
    made it basic in a pivot row with positive basic entry ``p`` and other
    nonzeros ``support``: with ``f`` the row's entry in slot ``k`` and
    ``h = gcd(p, f)``, the row times ``p/h`` minus ``f/h`` times the pivot
    row. Slot ``k`` now holds the leaving variable, in which the row was
    zero, and the pivot row is zero in the row's basic variable, so the
    basic entry is only multiplied by ``p/h`` and stays positive. The row
    over it is exactly the rational elimination's row. It is not reduced:
    the pivot row is primitive, so the row's entries gain at most the pivot
    row's bit length plus one bits."""
    f = row[k]
    h = gcd(p, f)
    f //= h
    q = p // h
    new = row[:] if q == 1 else [x * q for x in row]
    new[k] = 0
    for j, y in support:
        new[j] -= f * y
    return new


def _reduce(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _phase_one(tab: _Tableau) -> bool:
    """Whether minimizing the sum of the artificial variables reaches zero,
    that is whether the constraints are feasible."""
    cost = [0] * tab.art_start + [1] * (tab.n_cols - tab.art_start)
    status, value, _ = tab.minimize(cost, 1)
    if status != OPTIMAL:  # the phase-one objective is bounded below by zero
        raise InternalDisagreement("phase-one simplex reported an unbounded objective")
    return value == 0


def lp_feasible(
    n_vars: int, constraints: Sequence[Constraint], nonneg: bool = False
) -> tuple[bool, IntegerRow | None]:
    """Exact feasibility of a linear system; the witness, an integer row,
    satisfies every constraint exactly. Variables are free unless ``nonneg`` is set."""
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return False, None
    return True, tab.solution()


def lp_solve(
    n_vars: int,
    constraints: Sequence[Constraint],
    objective,
    maximize: bool = False,
    nonneg: bool = False,
) -> LPResult:
    """Two-phase simplex for min (or max) of a linear objective, whose
    entries ``rationals.parse_row`` reads."""
    scale, obj = parse_row(objective)
    if len(obj) != n_vars:
        raise ValueError(f"objective has {len(obj)} coefficients for {n_vars} variables")
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return LPResult(INFEASIBLE, None, None)
    tab.drop_artificials()
    cost = _structural([-c for c in obj] if maximize else list(obj), nonneg)
    status, value, den = tab.minimize(cost + [0] * (tab.n_cols - tab.n_struct), scale)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    return LPResult(OPTIMAL, tab.solution(), Fraction(-value if maximize else value, den))
