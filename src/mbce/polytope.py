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
only for what remains; both answers are unique, so they are the LP's. A
direction is an integer row, whose integers the LP maximizes; so is a
maximizer, and so is each vertex, solved from the integer ``lp_rows``.

A polytope is fixed by its game and action, so ``opt_belief_polytope``
builds it once per game and action and keeps it on the game
(``BaseGame.belief_polytopes``): the emptiness screen, the certificate
search, the vertex routes and a report's reload all ask their questions of
that one object and of the point masses and LP rows it caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul

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
)
from .rationals import IntegerRow, parse_row, reduced_row, row_fractions

Direction = IntegerRow
VertexSet = tuple[IntegerRow, ...]


def utility_difference_direction(game: BaseGame, a_first: int, a_second: int) -> Direction:
    """Per-state payoff difference of a_first over a_second, read off the
    game's integer utility table."""
    scale, table = game.integer_utility
    return scale, tuple([x - y for x, y in zip(table[a_first], table[a_second])])


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
    halfspaces: tuple[tuple[tuple[Fraction | int, ...], Fraction | int], ...]

    def __post_init__(self):
        for normal, _ in self.halfspaces:
            if len(normal) != self.dim:
                raise DimensionMismatch(
                    f"halfspace normal has {len(normal)} coordinates in a {self.dim}-state polytope"
                )

    def contains(self, point) -> bool:
        """Whether ``point``, read by ``parse_row``, is a belief inside."""
        if len(point) != self.dim:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates in a {self.dim}-state polytope"
            )
        return _inside([con.row[1] for con in self.lp_rows[1:]], *parse_row(point))

    @cached_property
    def lp_rows(self) -> tuple[Constraint, ...]:
        """The LP rows ``is_empty`` and ``maximize_direction`` solve over:
        sum(x) == 1, then one row per halfspace, each the integer form of
        the row as written. Derived once per polytope and kept outside the
        fields, so equality and hashing ignore it."""
        rows = [Constraint((1, (1,) * (self.dim + 1)), EQUAL)]
        for normal, offset in self.halfspaces:
            rows.append(Constraint(parse_row((*normal, offset)), LESS_EQUAL))
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
    difference times the table's positive scale. Built once per game and
    action and kept in ``game.belief_polytopes``; later calls return the
    same object."""
    poly = game.belief_polytopes.get(action)
    if poly is None:
        _, table = game.integer_utility
        own = table[action]
        # u(action) - u(alt) >= 0 rewritten as (u(alt) - u(action)) . x <= 0
        halfspaces = tuple(
            (tuple(x - y for x, y in zip(row, own)), 0)
            for alt, row in enumerate(table)
            if alt != action
        )
        poly = game.belief_polytopes[action] = BeliefPolytope(game.n_states, halfspaces)
    return poly


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


def maximize_direction(poly: BeliefPolytope, c: Direction) -> tuple[Fraction, IntegerRow]:
    """Exact maximum of ``c . x`` over the polytope, with an attaining vertex."""
    scale, ints = c
    if len(ints) != poly.dim:
        raise DimensionMismatch(f"direction has {len(ints)} coordinates for dim {poly.dim}")
    res = lp_solve(poly.dim, poly.lp_rows, ints, maximize=True, nonneg=True)
    if res.status == INFEASIBLE:
        raise EmptyPolytope("cannot optimize over an empty belief polytope")
    if res.status != OPTIMAL:  # the simplex is compact, so never unbounded
        raise InternalDisagreement("maximum over a compact belief polytope is unbounded")
    return (res.value if scale == 1 else res.value / scale), res.x


def support_value(poly: BeliefPolytope, c: Direction) -> Fraction:
    """Exact maximum of ``c . x`` over the polytope, the value alone: ``max c``
    when a point mass inside attains it, else ``maximize_direction``'s."""
    scale, ints = c
    if len(ints) != poly.dim:
        raise DimensionMismatch(f"direction has {len(ints)} coordinates for dim {poly.dim}")
    if poly.point_masses:
        top = max(ints)
        if any(ints[t] == top for t in poly.point_masses):
            return Fraction(top, scale)
    return maximize_direction(poly, c)[0]


def _integer_solve(rows) -> IntegerRow | None:
    """The solution of a square system of integer rows (coefficients, then
    right-hand side) as an integer row, or None when it is singular.
    Fraction-free Gauss-Jordan (Edmonds 1967; Bareiss 1968): each pivot ``p``
    turns every other row into ``(p * row - f * pivot_row) // previous``,
    ``f`` its entry in the pivot column; each entry is a minor of the
    system, so the division is exact. The solution is the last column over
    the final pivot, the determinant up to sign."""
    a = list(rows)
    n = len(a)
    previous = 1
    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return None
        a[k], a[r] = a[r], a[k]
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // previous for x, y in zip(a[i], pivot_row)]
        previous = p
    sign = 1 if previous > 0 else -1
    return sign * previous, tuple([sign * row[n] for row in a])


def _inside(halfspaces, scale: int, ints) -> bool:
    """Whether ``ints`` over ``scale`` is a belief with ``normal . ints <=
    offset * scale`` on each integer row ``(*normal, offset)``; ``map``
    stops at the end of ``ints``, before the offset."""
    return (
        sum(ints) == scale
        and min(ints) >= 0
        and all(sum(map(mul, row, ints)) <= row[-1] * scale for row in halfspaces)
    )


def enumerate_vertices(poly: BeliefPolytope) -> VertexSet:
    """All vertices, by brute force over tight-constraint subsets, as
    reduced integer rows in the order of their ``Fraction`` views.

    Every vertex of a polytope inside the simplex solves sum(x)=1 together
    with dim-1 of the inequality rows made tight (nonnegativity rows count),
    on the integer rows of ``lp_rows``. Singular subsets are skipped;
    solutions are kept only when they satisfy the full system. Exhaustive
    and exact; intended for desk-scale state spaces, not high dimensions.
    """
    n = poly.dim
    if n == 0:
        return ()  # the simplex over no states holds no belief
    system, *halfspaces = [con.row[1] for con in poly.lp_rows]
    tight = [tuple([-int(i == t) for i in range(n + 1)]) for t in range(n)] + halfspaces
    seen: set[IntegerRow] = set()
    for subset in combinations(tight, n - 1):
        solution = _integer_solve([system, *subset])
        if solution is None:
            continue
        vertex = reduced_row(solution)
        if vertex not in seen and _inside(halfspaces, *vertex):
            seen.add(vertex)
    return tuple(sorted(seen, key=row_fractions))
