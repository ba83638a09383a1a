"""``Fraction`` references shared by the test modules.

Each is the ``Fraction`` code that the package once carried next to the
integer route it now takes, kept here as the reference that route is
compared against: among them the checks that took the prior as
``Fraction``s, where the package now takes a game's ``integer_prior``.
``make_constraint`` builds an LP row from ``Fraction``s for the tests; the
package states each row as its integer form. ``strassen_residual`` and
``support_value`` take a direction as ``Fraction``s, where the package takes
it as an integer row, and ``unit_direction`` builds such a direction. The
vertex scan (``enumerate_vertices``, ``contains``) and
``belief_decomposition`` solve and test in ``Fraction``s, where the package
solves on integer rows and returns each vertex as one.

``build_parser`` is the command line's grammar as the package once wrote it
out, option by option, before it built its parser from one table and read
plain lines off that table; the CLI's parsing is compared against it.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from mbce.cli import _ArgumentParser
from mbce.errors import (
    DimensionMismatch,
    EmptyPolytope,
    StateMarginalMismatch,
    UnsupportableAction,
    ZeroPriorState,
)
from mbce.game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    StochasticChoiceRule,
    state_marginal_of,
)
from mbce.linprog import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    Constraint,
    lp_feasible,
    lp_solve,
)
from mbce.polytope import BeliefPolytope, opt_belief_polytope
from mbce.rationals import (
    IntegerRow,
    IntegerTable,
    exact_fraction,
    parse_row,
    parse_table,
    row_fractions,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def dot(c, x) -> Fraction:
    return sum((ci * xi for ci, xi in zip(c, x)), ZERO)


def fraction_vector(values) -> tuple[Fraction, ...]:
    return tuple(exact_fraction(v) for v in values)


def integer_row(values) -> IntegerRow:
    """``(scale, ints)`` with ``ints[i] == scale * values[i]`` and ``scale``
    the lcm of the denominators: a row of ``Fraction``s in its reduced
    integer form."""
    scale = lcm(*(q.denominator for q in values))
    return scale, tuple(q.numerator * (scale // q.denominator) for q in values)


def integer_table(rows) -> IntegerTable:
    """``(scale, table)`` with ``table[i][j] == scale * rows[i][j]`` and
    ``scale`` the lcm of every denominator: a table of ``Fraction``s in its
    reduced integer form."""
    scale = lcm(*(q.denominator for row in rows for q in row))
    return scale, tuple(tuple(q.numerator * (scale // q.denominator) for q in row) for row in rows)


def exact_sum(values) -> Fraction:
    """The sum of rationals as one ``Fraction``: their numerators added over
    the lcm of their denominators (``integer_row``), not one ``Fraction``
    addition per term. The empty sum is 0."""
    scale, ints = integer_row(tuple(values))
    return Fraction(sum(ints), scale)


@dataclass(frozen=True)
class BeliefSystem:
    """Posterior over states conditional on each positively recommended action."""

    beliefs: dict[int, tuple[Fraction, ...]]


def belief_system_from_outcome(outcome: Outcome) -> BeliefSystem:
    """Posteriors by Bayes' rule: normalize each positive-mass action row.

    Actions with zero marginal mass are omitted; nothing conditions on them.
    """
    beliefs: dict[int, tuple[Fraction, ...]] = {}
    for a, row in enumerate(outcome.probs):
        mass = exact_sum(row)
        if mass > 0:
            beliefs[a] = tuple(q / mass for q in row)
    return BeliefSystem(beliefs=beliefs)


def obedience_slack(outcome: Outcome, game: BaseGame, a: int, alt: int) -> Fraction:
    """Expected payoff advantage of following recommendation a over playing
    alt instead, on the event a is recommended. Nonnegative iff obedient;
    the ``Fraction`` reference of ``check_obedience``."""
    return sum(
        (outcome.probs[a][t] * (game.utility[a][t] - game.utility[alt][t])
         for t in range(game.n_states)),
        ZERO,
    )


def expected_utility(game: BaseGame, belief, action: int) -> Fraction:
    """Exact expected payoff of an action at a belief, in ``Fraction``s: the
    reference argmax of ``game.best_response_set``."""
    return sum(
        (belief[t] * game.utility[action][t] for t in range(game.n_states)), ZERO
    )


def check_state_marginal(outcome: Outcome, prior: tuple[Fraction, ...]) -> bool:
    """``game.check_state_marginal`` with the prior as ``Fraction``s: the
    outcome's column sums over its scale, cross-multiplied with each
    entry's numerator and denominator."""
    if outcome.n_states != len(prior):
        raise DimensionMismatch("outcome and prior disagree on the number of states")
    scale, table = outcome.integer_probs
    return all(
        sum(column) * q.denominator == q.numerator * scale
        for column, q in zip(zip(*table), prior)
    )


def choice_rule_from_outcome(outcome: Outcome, prior: tuple[Fraction, ...]) -> StochasticChoiceRule:
    """``game.choice_rule_from_outcome`` with the prior as ``Fraction``s: each
    cell ``(n / scale) / p`` is ``n * p.denominator * (m / p.numerator)``
    over ``scale * m``, with ``m`` the lcm of the prior's numerators."""
    if not check_state_marginal(outcome, prior):
        raise StateMarginalMismatch(
            f"state marginal {state_marginal_of(outcome)} differs from prior {tuple(prior)}"
        )
    if ZERO in prior:
        raise ZeroPriorState(f"state {list(prior).index(ZERO)} has zero prior mass")
    scale, table = outcome.integer_probs
    m = lcm(*[p.numerator for p in prior])
    rows = tuple(
        tuple(n * factor for n in column)
        for column, factor in zip(zip(*table), [p.denominator * (m // p.numerator) for p in prior])
    )
    return StochasticChoiceRule((scale * m, rows))


def is_bayes_plausible(tau, prior: tuple[Fraction, ...]) -> bool:
    """``implementation.is_bayes_plausible`` with the prior as ``Fraction``s:
    the integer mean at each state over ``w_scale * mu_scale``,
    cross-multiplied with each entry's numerator and denominator."""
    w_scale, w_ints = tau.integer_weights
    mu_scale, rows = tau.integer_support
    if len(prior) != len(rows[0]):
        raise DimensionMismatch("prior and posteriors have different dimensions")
    denominator = w_scale * mu_scale
    return all(
        sum(map(mul, w_ints, column)) * p.denominator == p.numerator * denominator
        for p, column in zip(prior, zip(*rows))
    )


def make_constraint(coeffs, sense: str, rhs) -> Constraint:
    """The constraint from ints, "p/q" strings and ``Fraction``s, read as
    ``rationals.parse_row`` reads them."""
    if sense not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
        raise ValueError(f"unknown constraint sense {sense!r}")
    return Constraint(parse_row((*coeffs, rhs)), sense)


def core_slack(marginal, menus: dict[frozenset[int], Fraction], subset: frozenset[int]) -> Fraction:
    """Marginal mass on the subset minus the mass of menus entirely inside
    it, with ``menus`` the ``Fraction`` mass of each menu; the ``Fraction``
    reference of ``implementation.core_slack``."""
    lhs = exact_sum(marginal.probs[a] for a in subset)
    rhs = exact_sum(w for menu, w in menus.items() if menu <= subset)
    return lhs - rhs


def oracle_feasibility(game: BaseGame, marginal: ActionMarginal) -> tuple[bool, Outcome | None]:
    """The oracle LP of ``consistency.oracle_feasibility`` with every row
    built by ``make_constraint`` from ``Fraction``s, in the same order: the
    obedience rows as the rational utility differences, then the prior and
    the marginal rows."""
    n_a, n_s = game.n_actions, game.n_states
    n_vars = n_a * n_s
    utility = game.utility
    constraints = []
    for a in range(n_a):
        for alt in range(n_a):
            if alt != a:
                coeffs = [ZERO] * n_vars
                coeffs[a * n_s:(a + 1) * n_s] = [u - v for u, v in zip(utility[alt], utility[a])]
                constraints.append(make_constraint(coeffs, LESS_EQUAL, 0))
    for t in range(n_s):
        coeffs = [int(j % n_s == t) for j in range(n_vars)]
        constraints.append(make_constraint(coeffs, EQUAL, game.prior[t]))
    for a in range(n_a):
        coeffs = [int(j // n_s == a) for j in range(n_vars)]
        constraints.append(make_constraint(coeffs, EQUAL, marginal.probs[a]))
    feasible, x = lp_feasible(n_vars, constraints, nonneg=True)
    if not feasible:
        return False, None
    x = row_fractions(x)
    return True, Outcome(parse_table([x[a * n_s:(a + 1) * n_s] for a in range(n_a)]))


def unit_direction(dim: int, t: int) -> tuple[Fraction, ...]:
    return tuple(ONE if i == t else ZERO for i in range(dim))


def support_value(poly: BeliefPolytope, c: tuple[Fraction, ...]) -> Fraction:
    """``polytope.support_value`` with the direction as ``Fraction``s:
    ``max c`` when a point mass inside attains it, else the LP's maximum,
    the objective passed as it is."""
    if len(c) != poly.dim:
        raise DimensionMismatch(f"direction has {len(c)} coordinates for dim {poly.dim}")
    if poly.point_masses:
        top = max(c)
        if any(c[t] == top for t in poly.point_masses):
            return top
    res = lp_solve(poly.dim, poly.lp_rows, c, maximize=True, nonneg=True)
    if res.status == INFEASIBLE:
        raise EmptyPolytope("cannot optimize over an empty belief polytope")
    return res.value


def strassen_residual(
    game: BaseGame, marginal: ActionMarginal, c: tuple[Fraction, ...]
) -> Fraction:
    """``consistency.strassen_residual`` with the direction as ``Fraction``s,
    summed in ``Fraction``s: each supported action's support value times
    its mass, minus ``c . prior``."""
    lhs = ZERO
    for a, mass in enumerate(marginal.probs):
        if mass > 0:
            try:
                value = support_value(opt_belief_polytope(game, a), c)
            except EmptyPolytope:
                raise UnsupportableAction(a) from None
            lhs += mass * value
    return lhs - dot(c, game.prior)


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
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


def contains(poly: BeliefPolytope, point) -> bool:
    """``BeliefPolytope.contains`` in ``Fraction``s: a distribution that
    satisfies every halfspace as written."""
    if len(point) != poly.dim:
        raise DimensionMismatch(f"point has {len(point)} coordinates in a {poly.dim}-state polytope")
    if any(q < 0 for q in point) or sum(point) != ONE:
        return False
    return all(dot(normal, point) <= offset for normal, offset in poly.halfspaces)


def enumerate_vertices(poly: BeliefPolytope) -> tuple[tuple[Fraction, ...], ...]:
    """``polytope.enumerate_vertices`` in ``Fraction``s: each subset of
    dim-1 tight rows solved by ``solve_square`` next to sum(x) = 1, and the
    vertices returned as sorted ``Fraction`` tuples."""
    n = poly.dim
    ineqs = [tuple(-ONE if i == t else ZERO for i in range(n)) for t in range(n)]
    offsets = [ZERO] * n
    for normal, offset in poly.halfspaces:
        ineqs.append(tuple(map(Fraction, normal)))
        offsets.append(Fraction(offset))
    seen = set()
    ones = [ONE] * n
    for subset in combinations(range(len(ineqs)), n - 1):
        matrix = [ones] + [list(ineqs[i]) for i in subset]
        rhs = [ONE] + [offsets[i] for i in subset]
        x = solve_square(matrix, rhs)
        if x is None:
            continue
        point = tuple(x)
        if point not in seen and contains(poly, point):
            seen.add(point)
    return tuple(sorted(seen))


def belief_decomposition(game: BaseGame, marginal: ActionMarginal) -> Outcome | None:
    """``consistency.belief_decomposition`` with the vertices as ``Fraction``
    tuples, each LP row built by ``make_constraint`` and the outcome summed
    in ``Fraction``s."""
    supported = [a for a, mass in enumerate(marginal.probs) if mass > 0]
    vertices = {a: enumerate_vertices(opt_belief_polytope(game, a)) for a in supported}
    offsets: dict[int, int] = {}
    n_vars = 0
    for a in supported:
        if not vertices[a]:
            return None
        offsets[a] = n_vars
        n_vars += len(vertices[a])
    constraints = []
    for a in supported:
        coeffs = [0] * n_vars
        for j in range(len(vertices[a])):
            coeffs[offsets[a] + j] = 1
        constraints.append(make_constraint(coeffs, EQUAL, marginal.probs[a]))
    for t in range(game.n_states):
        coeffs = [ZERO] * n_vars
        for a in supported:
            for j, v in enumerate(vertices[a]):
                coeffs[offsets[a] + j] = v[t]
        constraints.append(make_constraint(coeffs, EQUAL, game.prior[t]))
    feasible, x = lp_feasible(n_vars, constraints, nonneg=True)
    if not feasible:
        return None
    x = row_fractions(x)
    rows = []
    for a in range(game.n_actions):
        row = [ZERO] * game.n_states
        if a in offsets:
            for j, v in enumerate(vertices[a]):
                for t in range(game.n_states):
                    row[t] += x[offsets[a] + j] * v[t]
        rows.append(tuple(row))
    return Outcome(parse_table(rows))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser as it was written out, built once per process and
    shared by every caller, which must not modify it."""
    parser = _ArgumentParser(
        prog="mbce",
        description="Exact checks for which action distributions information design can reach.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_parser(name, help_text, with_tau=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="instance JSON file")
        p.add_argument("--marginal", help='target marginal, e.g. "1/2,1/2"')
        if with_tau:
            p.add_argument("--tau", help="JSON file holding the posterior distribution")
        p.add_argument(
            "--drop-null-states",
            action="store_true",
            help="remove zero-prior states (and matching utility columns and tau coordinates)"
            " on load",
        )
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    instance_parser("check", "decide consistency by the oracle LP; certify a rejection")
    instance_parser("oracle", "the same decision and report as check, named oracle")
    instance_parser("implement", "build an outcome from posteriors", with_tau=True)

    ring_p = sub.add_parser("ring", help="stage-by-stage ring-network check")
    ring_p.add_argument("file", help="instance JSON file with ring and marginals")
    ring_p.add_argument("--out", help="write the report here instead of stdout")

    public_p = sub.add_parser("public", help="public-signal check for first-order games")
    public_p.add_argument("file", help="instance JSON file with a first_order section")
    public_p.add_argument("--marginal", help="profile marginal, indexed like the report's profiles list")
    public_p.add_argument("--out", help="write the report here instead of stdout")

    verify_p = sub.add_parser(
        "verify", help="random cross-check of the belief-space route against the oracle LP"
    )
    verify_p.add_argument("--n", type=int, default=500)
    verify_p.add_argument("--seed", type=int, default=7)
    verify_p.add_argument("--max-states", type=int, default=4)
    verify_p.add_argument("--max-actions", type=int, default=4)
    verify_p.add_argument("--out", help="write the report here instead of stdout")

    random_p = sub.add_parser("random", help="emit a reproducible instance file")
    random_p.add_argument("--seed", type=int, required=True)
    random_p.add_argument("--max-states", type=int, default=4)
    random_p.add_argument("--max-actions", type=int, default=4)
    random_p.add_argument("--out", help="write the instance here instead of stdout")

    return parser
