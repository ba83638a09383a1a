"""Exact linear programming over rationals.

Two-phase primal simplex with exact answers: constraints, objectives,
witnesses and optimal values are exact rationals (``Fraction``s, or ints
where a row is integral), while the tableau itself holds only Python ints.
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
Bland's rule may choose one to enter again. Phase two may not let them
enter, so ``lp_solve`` drops their slots before it, once phase one has
driven every artificial out of the basis or dropped its redundant row.

The rows are fraction-free (Edmonds 1967; Bareiss 1968), with one
denominator per row. Each constraint row starts scaled by the lcm of its
denominators, so it is integral and its slack or artificial entry is that
lcm. A row stands for itself divided by its basic entry, which is kept
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
same bases follow pivot for pivot, and ``Fraction``s are built only for the
returned solution and value.

How a caller writes a row can still matter. A row whose basic variable is a
slack (``<=`` with a nonnegative right-hand side, or ``>=`` with a
nonpositive one) may be passed as any positive multiple of itself: that only
rescales its slack, which no objective prices, so the pivots and the answer
are unchanged. A row that takes an artificial (``==``, ``<=`` with a
negative right-hand side, or ``>=`` with a positive one) must be passed as
the rational row the caller means, with no extra factor: the phase-one
objective sums the artificial variables, and each is in units of its row,
so scaling such a row reweighs its artificial and can change the pivots.
``scaled_to_integers`` applies this rule to one row.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalDisagreement
from .rationals import exact_fraction, fraction_vector, integer_row

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
    """``coeffs . x`` ``sense`` ``rhs``. Coefficients and right-hand side are
    exact rationals: ``Fraction``s, or plain ints, which an integral row can
    use as they are (``make_constraint`` also parses ``"p/q"`` strings).
    Scaling a row changes its LP only where the module docstring says."""

    coeffs: tuple[Fraction | int, ...]
    sense: str
    rhs: Fraction | int


@dataclass(frozen=True)
class LPResult:
    status: str
    x: tuple[Fraction, ...] | None
    value: Fraction | None


def make_constraint(coeffs, sense: str, rhs) -> Constraint:
    if sense not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
        raise ValueError(f"unknown constraint sense {sense!r}")
    return Constraint(fraction_vector(coeffs), sense, exact_fraction(rhs))


def scaled_to_integers(con: Constraint) -> Constraint:
    """``con`` times the lcm of its denominators, in ints, where that
    changes no pivot: when its basic variable is a slack. A row that takes
    an artificial is returned as it is."""
    if con.sense == LESS_EQUAL:
        takes_a_slack = con.rhs >= 0
    else:
        takes_a_slack = con.sense == GREATER_EQUAL and con.rhs <= 0
    if not takes_a_slack:
        return con
    _, ints = integer_row((*con.coeffs, con.rhs))
    return Constraint(ints[:-1], con.sense, ints[-1])


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
            if len(con.coeffs) != n_vars:
                raise ValueError(
                    f"constraint has {len(con.coeffs)} coefficients for {n_vars} variables"
                )
        self.n_vars = n_vars
        self.nonneg = nonneg
        self.n_struct = n_struct = n_vars if nonneg else 2 * n_vars

        rows: list[list[int]] = []
        rhs: list[int] = []
        scales: list[int] = []
        kinds: list[str] = []  # "slack" | "artificial" per row's basic variable
        for con in constraints:
            # Scaled by the lcm of its denominators (for a row of ints, the
            # right-hand side's alone) the row is integral, and that positive
            # lcm becomes its basic slack or artificial entry.
            b = con.rhs
            if set(map(type, con.coeffs)) <= {int}:
                scale = b.denominator
                coeffs = [c * scale for c in con.coeffs] if scale > 1 else list(con.coeffs)
            else:
                scale = lcm(b.denominator, *(c.denominator for c in con.coeffs))
                coeffs = [c.numerator * (scale // c.denominator) for c in con.coeffs]
            b = b.numerator * (scale // b.denominator)
            coeffs = _structural(coeffs, nonneg)
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

    def minimize(self, cost: list[int], scale: int) -> tuple[str, Fraction]:
        """Run Bland-rule simplex iterations for min cost'x / scale, over the
        variables in the slots.

        The reduced costs and the negated objective value are one more
        integer row, whose basic variable is the objective itself: its last
        entry is the row's positive denominator. It is priced out of the
        starting basis once, then eliminated against each pivot row."""
        red = self._price(cost, scale)
        while True:
            enter = min((v for v, x in zip(self.nonbasic, red) if x < 0), default=None)
            if enter is None:
                return OPTIMAL, Fraction(-red[-2], red[-1])
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
                return UNBOUNDED, Fraction(-red[-2], red[-1])
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

    def drive_out_artificials(self) -> None:
        """After a zero-value phase one, pivot artificial variables out of the
        basis; rows that cannot pivot are redundant and get dropped."""
        keep_rows = []
        for r in range(len(self.rows)):
            if self.basis[r] < self.art_start:
                keep_rows.append(r)
                continue
            col = min(
                (v for v, x in zip(self.nonbasic, self.rows[r]) if x and v < self.art_start),
                default=None,
            )
            if col is None:
                continue  # all-zero row: redundant constraint
            self.pivot(r, col)
            keep_rows.append(r)
        if len(keep_rows) < len(self.rows):
            self.rows = [self.rows[r] for r in keep_rows]
            self.basis = [self.basis[r] for r in keep_rows]

    def drop_artificials(self) -> None:
        """Remove the nonbasic artificial slots, once none is basic: phase
        two may not let them enter."""
        slots = [k for k, v in enumerate(self.nonbasic) if v < self.art_start]
        if len(slots) < len(self.nonbasic):
            self.nonbasic = [self.nonbasic[k] for k in slots]
            self.rows = [[row[k] for k in slots] + row[-2:] for row in self.rows]

    def solution(self) -> tuple[Fraction, ...]:
        struct_vals = [ZERO] * self.n_struct
        for row, v in zip(self.rows, self.basis):
            if v < self.n_struct:
                struct_vals[v] = Fraction(row[-2], row[-1])
        if self.nonneg:
            return tuple(struct_vals)
        return tuple(struct_vals[2 * j] - struct_vals[2 * j + 1] for j in range(self.n_vars))


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
    cost = [0] * tab.art_start + [1] * (tab.n_cols - tab.art_start)
    status, value = tab.minimize(cost, 1)
    if status != OPTIMAL:  # the phase-one objective is bounded below by zero
        raise InternalDisagreement("phase-one simplex reported an unbounded objective")
    if value != 0:
        return False
    tab.drive_out_artificials()
    return True


def lp_feasible(
    n_vars: int, constraints: Sequence[Constraint], nonneg: bool = False
) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Exact feasibility of a linear system; witness satisfies every
    constraint exactly. Variables are free unless ``nonneg`` is set."""
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
    """Two-phase simplex for min (or max) of a linear objective."""
    obj = fraction_vector(objective)
    if len(obj) != n_vars:
        raise ValueError(f"objective has {len(obj)} coefficients for {n_vars} variables")
    tab = _Tableau(n_vars, constraints, nonneg)
    if not _phase_one(tab):
        return LPResult(INFEASIBLE, None, None)
    tab.drop_artificials()
    sign = -ONE if maximize else ONE
    scale, ints = integer_row(_structural([sign * q for q in obj], nonneg))
    cost = list(ints) + [0] * (tab.n_cols - tab.n_struct)
    status, value = tab.minimize(cost, scale)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)
    return LPResult(OPTIMAL, tab.solution(), sign * value)
