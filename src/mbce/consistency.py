"""Deciding whether a prior/action-marginal pair is reachable in equilibrium.

One program decides: ``oracle_feasibility`` is the exact LP over joint
outcomes (obedience plus both marginals), and its solution is the witness of
a consistent verdict. A rejection is then explained in belief space, where
every certificate is a direction with strictly negative ``strassen_residual``
(the support-function slack of the marginal-weighted belief polytopes
against the prior). The search tries the named families first, state
conditions and then action-pair conditions, and falls back to a separating
direction from the vertex-based minimization; the named families are
necessary but not sufficient once beliefs have three or more degrees of
freedom. Each support value in a residual comes from ``support_value``,
which reads it off a full-information belief inside the polytope where one
attains it and solves the LP otherwise; a direction is an integer row.

Each supported action's polytope comes from ``opt_belief_polytope``, which
builds it once per game and action and keeps it on the game: the screen,
every residual of the certificate search, the separating direction and the
vertex decomposition ask their questions of the same polytope object.

``belief_decomposition`` decides the same question independently, through
the vertices of the belief polytopes, integer rows like every LP row here.
It stays off the decision path and serves as the cross-check that ``mbce
verify`` and the tests run against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub

from .errors import DimensionMismatch, EmptyPolytope, InternalDisagreement, UnsupportableAction
from .game import ActionMarginal, BaseGame, Outcome, validate_game, validate_marginal
from .linprog import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    Constraint,
    lp_feasible,
    lp_solve,
)
from .polytope import (
    BeliefPolytope,
    Direction,
    enumerate_vertices,
    is_empty,
    opt_belief_polytope,
    support_value,
    utility_difference_direction,
)
from .rationals import common_scale, reduced_row

STATE_CONDITION = "state-condition"
ACTION_PAIR_CONDITION = "action-pair-condition"
UNSUPPORTABLE_ACTION = "unsupportable-action"
STRASSEN_DIRECTION = "strassen-direction"


@dataclass(frozen=True)
class ViolationCertificate:
    """Why a marginal pair is unreachable.

    For the three direction-backed kinds, ``direction`` (an integer row)
    plugged into ``strassen_residual`` reproduces ``residual`` exactly; the
    strassen-direction kind covers violations outside the two named families.
    An unsupportable action (positive mass, optimal nowhere) has no finite
    residual; both optional fields stay None.
    """

    kind: str
    state: int | None = None
    pair: tuple[int, int] | None = None
    action: int | None = None
    residual: Fraction | None = None
    direction: Direction | None = None


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Decision plus exactly one certificate branch: a witness outcome when
    consistent, a violation certificate when not."""

    consistent: bool
    witness: Outcome | None = None
    violation: ViolationCertificate | None = None


def _supported(marginal: ActionMarginal) -> list[int]:
    return [a for a, x in enumerate(marginal.integer_probs[1]) if x > 0]


def _max_over(poly: BeliefPolytope, c: Direction, action: int) -> Fraction:
    try:
        return support_value(poly, c)
    except EmptyPolytope:
        raise UnsupportableAction(action) from None


def strassen_residual(game: BaseGame, marginal: ActionMarginal, c: Direction) -> Fraction:
    """Support-function slack along direction c, an integer row.

    Aggregates, over supported actions, the maximum of ``c . mu`` on each
    action's belief polytope, minus ``c . prior``. Nonnegative for every c
    exactly when some belief system with the right conditional optimality
    averages back to the prior. Summed as integers into one ``Fraction``.
    """
    m_scale, probs = marginal.integer_probs
    lhs, den = 0, 1  # the support values' weighted sum, lhs / den
    for a in _supported(marginal):
        v = _max_over(opt_belief_polytope(game, a), c, a)
        lhs, den = lhs * v.denominator + probs[a] * v.numerator * den, den * v.denominator
    c_scale, ints = c
    p_scale, prior = game.integer_prior
    return Fraction(
        lhs * c_scale * p_scale - sum(map(mul, ints, prior)) * den * m_scale,
        den * m_scale * c_scale * p_scale,
    )


def _index(value, size: int, what: str) -> int:
    """``value`` when it is an int (a bool is not) in ``range(size)``;
    DimensionMismatch otherwise."""
    if type(value) is not int or not 0 <= value < size:
        raise DimensionMismatch(f"{what} {value!r} is not an index below {size}")
    return value


def violation_certificate(
    game: BaseGame, marginal: ActionMarginal, kind: str, choice
) -> ViolationCertificate:
    """The certificate of ``kind`` at ``choice``: an action, a state, an
    ordered action pair (a, b) or a direction, an integer row. A state's
    direction is minus its unit vector and a pair's is the payoff difference
    of a over b; the residual is ``strassen_residual`` along the direction.
    An action or state that is no int index of the game, or a pair that is
    not two of them, raises DimensionMismatch. The certificate search and
    the report loader both map a named condition through here.
    """
    if kind == UNSUPPORTABLE_ACTION:
        return ViolationCertificate(kind=kind, action=_index(choice, game.n_actions, "action"))
    state = pair = None
    if kind == STATE_CONDITION:
        state = _index(choice, game.n_states, "state")
        direction = (1, tuple([-int(t == state) for t in range(game.n_states)]))
    elif kind == ACTION_PAIR_CONDITION:
        pair = tuple(_index(a, game.n_actions, "action") for a in choice)
        if len(pair) != 2:
            raise DimensionMismatch(f"an action pair has two actions, not {len(pair)}")
        direction = utility_difference_direction(game, *pair)
    elif kind == STRASSEN_DIRECTION:
        direction = choice
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    residual = strassen_residual(game, marginal, direction)
    return ViolationCertificate(kind, state, pair, residual=residual, direction=direction)


def state_condition_residual(game: BaseGame, marginal: ActionMarginal, state: int) -> Fraction:
    """Prior mass of the state minus the mass the marginal forces onto it.

    Each supported action must carry at least ``min mu(state)`` over its
    belief polytope; the total cannot exceed the prior. Equals
    ``strassen_residual`` at minus the state's unit direction.
    """
    return violation_certificate(game, marginal, STATE_CONDITION, state).residual


def action_pair_residual(
    game: BaseGame, marginal: ActionMarginal, a_first: int, a_second: int
) -> Fraction:
    """Aggregated best payoff-difference spread minus the prior's spread.

    The direction is the per-state payoff difference of a_first over
    a_second; equals ``strassen_residual`` at that direction.
    """
    pair = (a_first, a_second)
    return violation_certificate(game, marginal, ACTION_PAIR_CONDITION, pair).residual


def oracle_feasibility(
    game: BaseGame, marginal: ActionMarginal
) -> tuple[bool, Outcome | None]:
    """Brute-force route: exact feasibility of the joint outcome system.

    Variables are the |A| x |Theta| joint probabilities, constrained by every
    obedience inequality and by both marginal families (the total-mass row is
    implied). Independent of the polytope machinery by design, so it and
    ``belief_decomposition`` cross-validate each other.
    """
    n_a, n_s = game.n_actions, game.n_states
    n_vars = n_a * n_s

    def var(a: int, t: int) -> int:
        return a * n_s + t

    # The obedience rows are the integer utility table's differences over
    # scale 1, as (u(alt) - u(a)) . x <= 0: each is the rational row times
    # the table's scale, and a row with right-hand side 0 takes only a
    # slack, so the scale changes no pivot. The prior and marginal rows take
    # artificials and are the rational rows, in their reduced integer form.
    _, table = game.integer_utility
    constraints: list[Constraint] = []
    for a, own in enumerate(table):
        for alt, row in enumerate(table):
            if alt == a:
                continue
            cells = [0] * (n_vars + 1)
            cells[var(a, 0):var(a + 1, 0)] = map(sub, row, own)
            constraints.append(Constraint((1, tuple(cells)), LESS_EQUAL))
    scale, prior = game.integer_prior
    for t in range(n_s):
        cells = [0] * n_vars + [prior[t]]
        for a in range(n_a):
            cells[var(a, t)] = scale
        constraints.append(Constraint(reduced_row((scale, tuple(cells))), EQUAL))
    scale, probs = marginal.integer_probs
    for a in range(n_a):
        cells = [0] * n_vars + [probs[a]]
        cells[var(a, 0):var(a + 1, 0)] = [scale] * n_s
        constraints.append(Constraint(reduced_row((scale, tuple(cells))), EQUAL))

    feasible, x = lp_feasible(n_vars, constraints, nonneg=True)
    if not feasible:
        return False, None
    scale, cells = x
    return True, Outcome((scale, tuple([cells[var(a, 0):var(a + 1, 0)] for a in range(n_a)])))


def belief_decomposition(game: BaseGame, marginal: ActionMarginal) -> Outcome | None:
    """Split the prior into one belief per supported action, or report None.

    Searches for nonnegative weights over the vertices of every supported
    action's belief polytope that give each action exactly its marginal mass
    and mix back to the prior. Feasibility of that program is consistency
    itself: each action's weighted vertex bundle becomes its row of a joint
    outcome, obedient because the polytope is, with both marginals landing by
    construction. Unsupported actions get zero rows.
    """
    supported = _supported(marginal)
    vertices = [enumerate_vertices(opt_belief_polytope(game, a)) for a in supported]
    if not all(vertices):
        return None
    # One variable per vertex: its action, and its point over a common scale.
    owners = [a for a, points in zip(supported, vertices) for _ in points]
    v_scale, points = common_scale([v for vs in vertices for v in vs])

    # Each equality row is its exact rational row (see ``linprog``).
    m_scale, probs = marginal.integer_probs
    p_scale, prior = game.integer_prior
    constraints: list[Constraint] = []
    for a in supported:
        cells = [m_scale if owner == a else 0 for owner in owners] + [probs[a]]
        constraints.append(Constraint((m_scale, tuple(cells)), EQUAL))
    for t in range(game.n_states):
        cells = [point[t] * p_scale for point in points] + [prior[t] * v_scale]
        constraints.append(Constraint((v_scale * p_scale, tuple(cells)), EQUAL))

    feasible, x = lp_feasible(len(owners), constraints, nonneg=True)
    if not feasible:
        return None
    x_scale, weights = x
    table = [[0] * game.n_states for _ in range(game.n_actions)]
    for a, weight, point in zip(owners, weights, points):
        row = table[a]
        for t, coordinate in enumerate(point):
            row[t] += weight * coordinate
    return Outcome((x_scale * v_scale, tuple(map(tuple, table))))


def separating_direction(game: BaseGame, marginal: ActionMarginal) -> Direction | None:
    """Direction with negative ``strassen_residual``, or None if none exists.

    Minimizes the residual over the unit box: one epigraph variable per
    supported action dominates that polytope's support function at every
    vertex, so at the optimum the objective equals the residual of the chosen
    direction. Residuals scale linearly in the direction, so a nonnegative
    minimum over the box rules out separation at any scale. The objective
    is that of the residual times the prior's and the marginal's scales.
    """
    supported = _supported(marginal)
    n_s = game.n_states
    n_vars = n_s + len(supported)  # direction coordinates, then epigraph values

    constraints: list[Constraint] = []
    for k, a in enumerate(supported):
        vertices = enumerate_vertices(opt_belief_polytope(game, a))
        if not vertices:
            raise UnsupportableAction(a)
        # -v . c + z_k >= 0 for the vertex v = x / d, a slack row over d.
        for d, x in vertices:
            cells = [-v for v in x] + [0] * (n_vars + 1 - n_s)
            cells[n_s + k] = d
            constraints.append(Constraint((d, tuple(cells)), GREATER_EQUAL))
    for t in range(n_s):
        for sign in (1, -1):
            box = [0] * n_vars + [1]
            box[t] = sign
            constraints.append(Constraint((1, tuple(box)), LESS_EQUAL))

    p_scale, prior = game.integer_prior
    m_scale, probs = marginal.integer_probs
    objective = [-p * m_scale for p in prior] + [probs[a] * p_scale for a in supported]
    result = lp_solve(n_vars, constraints, objective, nonneg=False)
    if result.status != OPTIMAL:
        raise InternalDisagreement("box-bounded direction program is not optimal")
    if result.value >= 0:
        return None
    return result.x[0], result.x[1][:n_s]


def check_bce_consistent(game: BaseGame, marginal: ActionMarginal) -> ConsistencyVerdict:
    """Decide reachability of the marginal pair and certify the answer.

    Supported actions are first screened, in action order, for empty belief
    polytopes, each built as the screen reaches it and kept on the game for
    the certificate search; the screen settles many rejections on its own,
    and most of its questions without an LP (see ``is_empty``). The oracle
    LP then decides, and a feasible solution is the witness. Only an
    infeasible pair pays for a certificate, searched in a fixed order for
    reproducibility: state conditions in state order, then ordered action
    pairs lexicographically, then a separating direction. The oracle and the
    belief-space search agree on paper; if the search finds nothing,
    InternalDisagreement is raised.
    """
    validate_game(game)
    validate_marginal(marginal, game.n_actions)
    for a in _supported(marginal):
        if is_empty(opt_belief_polytope(game, a)):
            return ConsistencyVerdict(
                consistent=False,
                violation=violation_certificate(game, marginal, UNSUPPORTABLE_ACTION, a),
            )

    feasible, witness = oracle_feasibility(game, marginal)
    if feasible:
        return ConsistencyVerdict(consistent=True, witness=witness)

    n_a = game.n_actions
    named = [(STATE_CONDITION, t) for t in range(game.n_states)]
    named += [(ACTION_PAIR_CONDITION, (a, b)) for a in range(n_a) for b in range(n_a) if a != b]
    for kind, choice in named:
        violation = violation_certificate(game, marginal, kind, choice)
        if violation.residual < 0:
            return ConsistencyVerdict(consistent=False, violation=violation)

    direction = separating_direction(game, marginal)
    if direction is None:
        raise InternalDisagreement(
            "the oracle rejects a marginal that no direction separates; "
            "this is a bug, not an input problem"
        )
    violation = violation_certificate(game, marginal, STRASSEN_DIRECTION, direction)
    if violation.residual >= 0:
        raise InternalDisagreement("separating direction has a nonnegative residual")
    return ConsistencyVerdict(consistent=False, violation=violation)
