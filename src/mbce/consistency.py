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
attains it and solves the LP otherwise.

``belief_decomposition`` decides the same question independently, through
the vertices of the belief polytopes. It stays off the decision path and
serves as the cross-check that ``mbce verify`` and the tests run against the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .errors import EmptyPolytope, InternalDisagreement, UnsupportableAction
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
    dot,
    enumerate_vertices,
    is_empty,
    negate,
    opt_belief_polytope,
    support_value,
    unit_direction,
    utility_difference_direction,
)

ZERO = Fraction(0)

STATE_CONDITION = "state-condition"
ACTION_PAIR_CONDITION = "action-pair-condition"
UNSUPPORTABLE_ACTION = "unsupportable-action"
STRASSEN_DIRECTION = "strassen-direction"


@dataclass(frozen=True)
class ViolationCertificate:
    """Why a marginal pair is unreachable.

    For the three direction-backed kinds, ``direction`` plugged into
    ``strassen_residual`` reproduces ``residual`` exactly; the
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
    return [a for a, q in enumerate(marginal.probs) if q > 0]


def _polytopes_for(
    game: BaseGame, actions: list[int]
) -> dict[int, BeliefPolytope]:
    return {a: opt_belief_polytope(game, a) for a in actions}


def _max_over(poly: BeliefPolytope, c: Direction, action: int) -> Fraction:
    try:
        return support_value(poly, c)
    except EmptyPolytope:
        raise UnsupportableAction(action) from None


def strassen_residual(
    game: BaseGame,
    marginal: ActionMarginal,
    c: Direction,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> Fraction:
    """Support-function slack along direction c.

    Aggregates, over supported actions, the maximum of ``c . mu`` on each
    action's belief polytope, minus ``c . prior``. Nonnegative for every c
    exactly when some belief system with the right conditional optimality
    averages back to the prior.
    """
    supported = _supported(marginal)
    polys = polytopes if polytopes is not None else _polytopes_for(game, supported)
    lhs = ZERO
    for a in supported:
        lhs += marginal.probs[a] * _max_over(polys[a], c, a)
    return lhs - dot(c, game.prior)


def violation_certificate(
    game: BaseGame,
    marginal: ActionMarginal,
    kind: str,
    choice,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> ViolationCertificate:
    """The certificate of ``kind`` at ``choice``: an action, a state, an
    ordered action pair (a, b) or a direction. A state's direction is minus
    its unit vector and a pair's is the payoff difference of a over b; the
    residual is ``strassen_residual`` along the direction. The certificate
    search and the report loader both map a named condition through here.
    """
    if kind == UNSUPPORTABLE_ACTION:
        return ViolationCertificate(kind=kind, action=choice)
    state = pair = None
    if kind == STATE_CONDITION:
        state, direction = choice, negate(unit_direction(game.n_states, choice))
    elif kind == ACTION_PAIR_CONDITION:
        pair = tuple(choice)
        direction = utility_difference_direction(game, *pair)
    elif kind == STRASSEN_DIRECTION:
        direction = tuple(choice)
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    residual = strassen_residual(game, marginal, direction, polytopes)
    return ViolationCertificate(kind, state, pair, residual=residual, direction=direction)


def state_condition_residual(
    game: BaseGame,
    marginal: ActionMarginal,
    state: int,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> Fraction:
    """Prior mass of the state minus the mass the marginal forces onto it.

    Each supported action must carry at least ``min mu(state)`` over its
    belief polytope; the total cannot exceed the prior. Equals
    ``strassen_residual`` at minus the state's unit direction.
    """
    return violation_certificate(game, marginal, STATE_CONDITION, state, polytopes).residual


def action_pair_residual(
    game: BaseGame,
    marginal: ActionMarginal,
    a_first: int,
    a_second: int,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> Fraction:
    """Aggregated best payoff-difference spread minus the prior's spread.

    The direction is the per-state payoff difference of a_first over
    a_second; equals ``strassen_residual`` at that direction.
    """
    pair = (a_first, a_second)
    return violation_certificate(game, marginal, ACTION_PAIR_CONDITION, pair, polytopes).residual


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

    # The obedience rows are the integer utility table's differences, as
    # (u(alt) - u(a)) . x <= 0: each is the rational row times the table's
    # scale, and a row with right-hand side 0 takes only a slack, so the
    # scale changes no pivot. The prior and marginal rows take artificials
    # and stay the rational rows.
    _, table = game.integer_utility
    constraints: list[Constraint] = []
    for a, own in enumerate(table):
        for alt, row in enumerate(table):
            if alt == a:
                continue
            coeffs = [0] * n_vars
            coeffs[var(a, 0):var(a + 1, 0)] = map(sub, row, own)
            constraints.append(Constraint(tuple(coeffs), LESS_EQUAL, 0))
    for t in range(n_s):
        coeffs = [0] * n_vars
        for a in range(n_a):
            coeffs[var(a, t)] = 1
        constraints.append(Constraint(tuple(coeffs), EQUAL, game.prior[t]))
    for a in range(n_a):
        coeffs = [0] * n_vars
        for t in range(n_s):
            coeffs[var(a, t)] = 1
        constraints.append(Constraint(tuple(coeffs), EQUAL, marginal.probs[a]))

    feasible, x = lp_feasible(n_vars, constraints, nonneg=True)
    if not feasible:
        return False, None
    probs = tuple(tuple(x[var(a, t)] for t in range(n_s)) for a in range(n_a))
    return True, Outcome(probs=probs)


def belief_decomposition(
    game: BaseGame,
    marginal: ActionMarginal,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> Outcome | None:
    """Split the prior into one belief per supported action, or report None.

    Searches for nonnegative weights over the vertices of every supported
    action's belief polytope that give each action exactly its marginal mass
    and mix back to the prior. Feasibility of that program is consistency
    itself: each action's weighted vertex bundle becomes its row of a joint
    outcome, obedient because the polytope is, with both marginals landing by
    construction. Unsupported actions get zero rows.
    """
    supported = _supported(marginal)
    polys = polytopes if polytopes is not None else _polytopes_for(game, supported)
    vertices = {a: enumerate_vertices(polys[a]) for a in supported}
    offsets: dict[int, int] = {}
    n_vars = 0
    for a in supported:
        if not vertices[a]:
            return None
        offsets[a] = n_vars
        n_vars += len(vertices[a])

    constraints: list[Constraint] = []
    for a in supported:
        coeffs = [ZERO] * n_vars
        for j in range(len(vertices[a])):
            coeffs[offsets[a] + j] = Fraction(1)
        constraints.append(Constraint(tuple(coeffs), EQUAL, marginal.probs[a]))
    for t in range(game.n_states):
        coeffs = [ZERO] * n_vars
        for a in supported:
            for j, v in enumerate(vertices[a]):
                coeffs[offsets[a] + j] = v[t]
        constraints.append(Constraint(tuple(coeffs), EQUAL, game.prior[t]))

    feasible, x = lp_feasible(n_vars, constraints, nonneg=True)
    if not feasible:
        return None
    rows = []
    for a in range(game.n_actions):
        if a in offsets:
            row = [ZERO] * game.n_states
            for j, v in enumerate(vertices[a]):
                weight = x[offsets[a] + j]
                for t in range(game.n_states):
                    row[t] += weight * v[t]
            rows.append(tuple(row))
        else:
            rows.append((ZERO,) * game.n_states)
    return Outcome(probs=tuple(rows))


def separating_direction(
    game: BaseGame,
    marginal: ActionMarginal,
    polytopes: dict[int, BeliefPolytope] | None = None,
) -> Direction | None:
    """Direction with negative ``strassen_residual``, or None if none exists.

    Minimizes the residual over the unit box: one epigraph variable per
    supported action dominates that polytope's support function at every
    vertex, so at the optimum the objective equals the residual of the chosen
    direction. Residuals scale linearly in the direction, so a nonnegative
    minimum over the box rules out separation at any scale.
    """
    supported = _supported(marginal)
    polys = polytopes if polytopes is not None else _polytopes_for(game, supported)
    n_s = game.n_states
    n_vars = n_s + len(supported)  # direction coordinates, then epigraph values
    one = Fraction(1)

    constraints: list[Constraint] = []
    for k, a in enumerate(supported):
        vertices = enumerate_vertices(polys[a])
        if not vertices:
            raise UnsupportableAction(a)
        for v in vertices:
            coeffs = [ZERO] * n_vars
            for t in range(n_s):
                coeffs[t] = -v[t]
            coeffs[n_s + k] = one
            constraints.append(Constraint(tuple(coeffs), GREATER_EQUAL, ZERO))
    for t in range(n_s):
        box = [ZERO] * n_vars
        box[t] = one
        constraints.append(Constraint(tuple(box), LESS_EQUAL, one))
        box = [ZERO] * n_vars
        box[t] = -one
        constraints.append(Constraint(tuple(box), LESS_EQUAL, one))

    objective = [-p for p in game.prior] + [marginal.probs[a] for a in supported]
    result = lp_solve(n_vars, constraints, objective, nonneg=False)
    if result.status != OPTIMAL:
        raise InternalDisagreement("box-bounded direction program is not optimal")
    if result.value >= 0:
        return None
    return tuple(result.x[t] for t in range(n_s))


def check_bce_consistent(game: BaseGame, marginal: ActionMarginal) -> ConsistencyVerdict:
    """Decide reachability of the marginal pair and certify the answer.

    Supported actions are first screened, in action order, for empty belief
    polytopes, each built as the screen reaches it; the screen settles many
    rejections on its own, and most of its questions without an LP (see
    ``is_empty``). The
    oracle LP then decides, and a feasible solution is the witness. Only an
    infeasible pair pays for a certificate, searched in a fixed order for
    reproducibility: state conditions in state order, then ordered action
    pairs lexicographically, then a separating direction. The oracle and the
    belief-space search agree on paper; if the search finds nothing,
    InternalDisagreement is raised.
    """
    validate_game(game)
    validate_marginal(marginal, game.n_actions)
    polys = {}
    for a in _supported(marginal):
        polys[a] = poly = opt_belief_polytope(game, a)
        if is_empty(poly):
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
        violation = violation_certificate(game, marginal, kind, choice, polys)
        if violation.residual < 0:
            return ConsistencyVerdict(consistent=False, violation=violation)

    direction = separating_direction(game, marginal, polys)
    if direction is None:
        raise InternalDisagreement(
            "the oracle rejects a marginal that no direction separates; "
            "this is a bug, not an input problem"
        )
    violation = violation_certificate(game, marginal, STRASSEN_DIRECTION, direction, polys)
    if violation.residual >= 0:
        raise InternalDisagreement("separating direction has a nonnegative residual")
    return ConsistencyVerdict(consistent=False, violation=violation)
