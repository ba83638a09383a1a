"""Belief polytopes: the sets of beliefs at which a given action is optimal.

For action a, the polytope collects every belief mu over states with
sum_t mu(t) * (u(a,t) - u(alt,t)) >= 0 against all alternatives. These sets
live inside the probability simplex (x >= 0, sum x = 1, always enforced on
top of the stored halfspaces), may be empty, and are routinely degenerate at
tie beliefs. Optimization over them runs through the exact simplex; vertex
enumeration is a deliberately independent second code path used to
cross-check it.

Every polytope lies inside the simplex, the hull of the point masses e_t
(the full-information beliefs), and three exact facts settle many questions
before any LP is built. A polytope that holds some e_t is nonempty; one with
a row whose smallest coefficient exceeds its offset excludes every e_t and
so every belief, since ``normal . x >= min(normal)`` on the simplex. And
``max c . x`` over the polytope is at most ``max c``, with equality when it
holds an e_t at which c attains that maximum. ``is_empty`` and
``support_value`` answer from these facts where they can and solve the LP
only for what remains; both answers are unique, so they are the LP's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import DimensionMismatch, EmptyPolytope, InternalDisagreement
from .game import BaseGame
from .linprog import (
    EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    Constraint,
    lp_feasible,
    lp_solve,
    scaled_to_integers,
)

Belief = tuple[Fraction, ...]
Direction = tuple[Fraction, ...]
VertexSet = tuple[Belief, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(c: Direction, x) -> Fraction:
    return sum((ci * xi for ci, xi in zip(c, x)), ZERO)


def negate(c: Direction) -> Direction:
    return tuple(-ci for ci in c)


def unit_direction(dim: int, t: int) -> Direction:
    return tuple(ONE if i == t else ZERO for i in range(dim))


def utility_difference_direction(game: BaseGame, a_first: int, a_second: int) -> Direction:
    """Per-state payoff difference of a_first over a_second, read off the
    game's integer utility table."""
    scale, table = game.integer_utility
    return tuple(Fraction(x - y, scale) for x, y in zip(table[a_first], table[a_second]))


@dataclass(frozen=True)
class BeliefPolytope:
    """H-representation: ``normal . x <= offset`` rows, plus the implicit
    simplex constraints x >= 0 and sum(x) = 1. May be empty.

    Entries are exact rationals: ``Fraction``s or ints. A row may be any
    positive multiple of the halfspace it states: the set, and with it the
    point masses, emptiness, support values and vertices, stays the same.
    ``opt_belief_polytope`` writes its rows as integer utility differences
    with offset 0."""

    dim: int
    halfspaces: tuple[tuple[Direction, Fraction], ...]

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates in a {self.dim}-state polytope"
            )
        if any(q < 0 for q in point) or sum(point) != ONE:
            return False
        return all(dot(normal, point) <= offset for normal, offset in self.halfspaces)

    @cached_property
    def lp_rows(self) -> tuple[Constraint, ...]:
        """The LP rows ``is_empty`` and ``maximize_direction`` solve over:
        sum(x) == 1, then one row per halfspace, in ints wherever that
        changes no pivot. Derived once per polytope and kept outside the
        fields, so equality and hashing ignore it."""
        rows = [Constraint((1,) * self.dim, EQUAL, 1)]
        for normal, offset in self.halfspaces:
            rows.append(scaled_to_integers(Constraint(normal, LESS_EQUAL, offset)))
        return tuple(rows)

    @cached_property
    def point_masses(self) -> tuple[int, ...]:
        """The states t, ascending, whose point mass e_t lies in the
        polytope: ``normal[t] <= offset`` on every row. Kept outside the
        fields, like ``lp_rows``."""
        return tuple(
            t
            for t in range(self.dim)
            if all(normal[t] <= offset for normal, offset in self.halfspaces)
        )


def opt_belief_polytope(game: BaseGame, action: int) -> BeliefPolytope:
    """Beliefs at which ``action`` is a best response: one halfspace per
    alternative, stating that the payoff difference direction beats it.
    Each row is read off the game's integer utility table, the rational
    difference times the table's positive scale."""
    _, table = game.integer_utility
    own = table[action]
    # u(action) - u(alt) >= 0 rewritten as (u(alt) - u(action)) . x <= 0
    halfspaces = tuple(
        (tuple(x - y for x, y in zip(row, own)), 0)
        for alt, row in enumerate(table)
        if alt != action
    )
    return BeliefPolytope(dim=game.n_states, halfspaces=halfspaces)


def is_empty(poly: BeliefPolytope) -> bool:
    """Whether no belief satisfies every row. A point mass inside settles
    it as nonempty, and a row that every point mass violates as empty;
    phase one decides the rest."""
    if poly.point_masses:
        return False
    if poly.dim and any(min(normal) > offset for normal, offset in poly.halfspaces):
        return True
    feasible, _ = lp_feasible(poly.dim, poly.lp_rows, nonneg=True)
    return not feasible


def maximize_direction(poly: BeliefPolytope, c: Direction) -> tuple[Fraction, Belief]:
    """Exact maximum of ``c . x`` over the polytope, with an attaining vertex."""
    if len(c) != poly.dim:
        raise DimensionMismatch(f"direction has {len(c)} coordinates for dim {poly.dim}")
    res = lp_solve(poly.dim, poly.lp_rows, c, maximize=True, nonneg=True)
    if res.status == INFEASIBLE:
        raise EmptyPolytope("cannot optimize over an empty belief polytope")
    if res.status != OPTIMAL:  # the simplex is compact, so never unbounded
        raise InternalDisagreement("maximum over a compact belief polytope is unbounded")
    return res.value, res.x


def support_value(poly: BeliefPolytope, c: Direction) -> Fraction:
    """Exact maximum of ``c . x`` over the polytope, the value alone: ``max c``
    when a point mass inside attains it, else ``maximize_direction``'s."""
    if len(c) != poly.dim:
        raise DimensionMismatch(f"direction has {len(c)} coordinates for dim {poly.dim}")
    if poly.point_masses:
        top = max(c)
        if any(c[t] == top for t in poly.point_masses):
            return top
    return maximize_direction(poly, c)[0]


def minimize_direction(poly: BeliefPolytope, c: Direction) -> tuple[Fraction, Belief]:
    value, witness = maximize_direction(poly, negate(c))
    return -value, witness


def _solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination; None when the system is singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            return None
        a[col], a[pivot_row] = a[pivot_row], a[col]
        piv = a[col][col]
        a[col] = [v / piv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [a[r][j] - f * a[col][j] for j in range(n + 1)]
    return [a[r][n] for r in range(n)]


def enumerate_vertices(poly: BeliefPolytope) -> VertexSet:
    """All vertices, by brute force over tight-constraint subsets.

    Every vertex of a polytope inside the simplex solves sum(x)=1 together
    with dim-1 of the inequality rows made tight (nonnegativity rows count).
    Singular subsets are skipped; solutions are kept only when they satisfy
    the full system. Exhaustive and exact; intended for desk-scale state
    spaces, not high dimensions.
    """
    n = poly.dim
    ineqs: list[Direction] = [negate(unit_direction(n, t)) for t in range(n)]
    offsets: list[Fraction] = [ZERO] * n
    # As Fractions: _solve_square divides, and int / int is a float.
    for normal, offset in poly.halfspaces:
        ineqs.append(tuple(map(Fraction, normal)))
        offsets.append(Fraction(offset))

    seen: set[Belief] = set()
    ones = [ONE] * n
    for subset in combinations(range(len(ineqs)), n - 1):
        matrix = [ones] + [list(ineqs[i]) for i in subset]
        rhs = [ONE] + [offsets[i] for i in subset]
        x = _solve_square(matrix, rhs)
        if x is None:
            continue
        point = tuple(x)
        if point not in seen and poly.contains(point):
            seen.add(point)
    return tuple(sorted(seen))
