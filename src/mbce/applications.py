"""Multi-agent reductions built on the single-agent checker.

Two settings collapse to repeated single-agent questions.  First-order games
(every player's payoff depends on their own action and the state only) admit
public-signal coordination exactly when one fictitious agent who earns the sum
of all payoffs and picks a whole action profile can be steered to the target
profile distribution.  Ring networks (player 1 reacts to the state, player
i >= 2 reacts to player i-1's action) decompose stage by stage: each link is
a single-agent problem whose "state" is the upstream player's action and whose
prior is the upstream marginal.

Both reductions work on integers over common denominators, as the game and
implement layers do, and build ``Fraction``s only at the answer: the
auxiliary game adds the players' integer utility tables over one lcm, the
ring joint chains each stage witness as integers over its column sums, and
a joint's marginals sum its cached integer numerators
(``RingOutcome.integer_probs``). Both list every action profile, so both
refuse more than ``MAX_PROFILES`` before building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm, prod
from operator import add
from typing import Sequence

from .consistency import ConsistencyVerdict, ViolationCertificate, check_bce_consistent
from .errors import DimensionMismatch, ProductTooLarge, StageMarginalMismatch
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    check_obedience,
    make_game,
    make_marginal,
    validate_game,
    validate_marginal,
)
from .rationals import integer_table

ZERO = Fraction(0)
ONE = Fraction(1)

# The auxiliary game and the ring joint list every action profile; larger
# products are refused before any profile is built.
MAX_PROFILES = 4096


@dataclass(frozen=True)
class PlayerSpec:
    """One player's own-action payoff table, utility[action][state]."""

    actions: tuple[str, ...]
    utility: tuple[tuple[Fraction, ...], ...]

    @property
    def n_actions(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class FirstOrderGame:
    """Common state and prior; payoffs never depend on other players' actions."""

    states: tuple[str, ...]
    prior: tuple[Fraction, ...]
    players: tuple[PlayerSpec, ...]

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RingGame:
    """Chain of stages: stage 0 maps states to A_1, stage i maps A_i to A_{i+1}.

    utilities[0][a][t] pays player 1 for action a in state t; for i >= 1,
    utilities[i][a][s] pays player i+1 for action a when player i played s.
    """

    states: tuple[str, ...]
    prior: tuple[Fraction, ...]
    actions: tuple[tuple[str, ...], ...]
    utilities: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def n_players(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class MarginalProfile:
    """One target action distribution per player."""

    marginals: tuple[ActionMarginal, ...]


@dataclass(frozen=True)
class RingOutcome:
    """Joint distribution over action profiles and states.

    Profiles are indexed in lexicographic order with the last player varying
    fastest, matching itertools.product over the per-player ranges.
    """

    shape: tuple[int, ...]
    n_states: int
    probs: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def integer_probs(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(scale, numerators)`` with ``numerators[k][t] == scale *
        probs[k][t]``, ``scale`` the lcm of the denominators. Derived once
        per outcome and kept outside the fields, so equality and hashing
        ignore it."""
        return integer_table(self.probs)


@dataclass(frozen=True)
class RingVerdict:
    """Outcome of the stage-by-stage ring check.

    failing_stage counts from 0 (player 1's stage).  On failure, ``violation``
    indexes into the failing stage game as built by ring_stage_game (stages
    past the first are restricted to the support of the upstream marginal, so
    state indices refer to that restriction).
    """

    consistent: bool
    failing_stage: int | None = None
    violation: ViolationCertificate | None = None
    stage_witnesses: tuple[Outcome, ...] | None = None


def make_first_order(states, prior, players) -> FirstOrderGame:
    """Build and validate; players is a sequence of (labels, utility rows)."""
    specs = []
    for labels, rows in players:
        # Per-player slice must itself be a valid single-agent game.
        game = make_game(states, labels, rows, prior)
        validate_game(game)
        specs.append(PlayerSpec(game.actions, game.utility))
    if not specs:
        raise DimensionMismatch("a first-order game needs at least one player")
    first = make_game(states, specs[0].actions, specs[0].utility, prior)
    return FirstOrderGame(first.states, first.prior, tuple(specs))


def make_ring(states, prior, stages) -> RingGame:
    """Build and validate; stages is a sequence of (labels, utility rows).

    Stage 0 rows run over the declared states; stage i >= 1 rows run over the
    actions of stage i-1.  Utility rows are indexed by own action.
    """
    if not stages:
        raise DimensionMismatch("a ring needs at least one player")
    base = make_game(states, stages[0][0], stages[0][1], prior)
    validate_game(base)
    actions = [base.actions]
    utilities = [base.utility]
    for labels, rows in stages[1:]:
        upstream = actions[-1]
        uniform = [Fraction(1, len(upstream))] * len(upstream)
        stage = make_game(upstream, labels, rows, uniform)
        validate_game(stage)
        actions.append(stage.actions)
        utilities.append(stage.utility)
    return RingGame(base.states, base.prior, tuple(actions), tuple(utilities))


def make_profile(ring_or_game, vectors) -> MarginalProfile:
    """Validate one marginal per player against the action-space widths."""
    if isinstance(ring_or_game, RingGame):
        widths = [len(a) for a in ring_or_game.actions]
    else:
        widths = [p.n_actions for p in ring_or_game.players]
    if len(vectors) != len(widths):
        raise DimensionMismatch(
            f"expected {len(widths)} marginals, got {len(vectors)}"
        )
    marginals = []
    for width, vec in zip(widths, vectors):
        marginal = vec if isinstance(vec, ActionMarginal) else make_marginal(vec)
        validate_marginal(marginal, width)
        marginals.append(marginal)
    return MarginalProfile(tuple(marginals))


def player_game(fo: FirstOrderGame, i: int) -> BaseGame:
    """Single-agent game seen by player i in isolation."""
    spec = fo.players[i]
    return BaseGame(fo.states, spec.actions, spec.utility, fo.prior)


def action_profiles(fo: FirstOrderGame) -> tuple[tuple[int, ...], ...]:
    """All index profiles in the order the auxiliary game enumerates them."""
    return tuple(product(*(range(p.n_actions) for p in fo.players)))


def _check_profile_count(widths: Sequence[int]) -> None:
    count = prod(widths)
    if count > MAX_PROFILES:
        raise ProductTooLarge(f"{count} action profiles exceed the cap of {MAX_PROFILES}")


def auxiliary_single_agent(fo: FirstOrderGame) -> BaseGame:
    """Collapse all players into one agent choosing a whole profile.

    The agent earns the sum of the individual payoffs, so a profile is optimal
    at a belief exactly when every coordinate is optimal for its owner.  State
    space and prior carry over unchanged.  The players' utility tables are
    added as integers over the lcm of their scales, one player at a time in
    ``action_profiles`` order, and each cell becomes one ``Fraction``.
    """
    _check_profile_count([spec.n_actions for spec in fo.players])
    tables = [integer_table(spec.utility) for spec in fo.players]
    scale = lcm(*(s for s, _ in tables))
    profiles, sums = [()], [(0,) * fo.n_states]
    for spec, (s, table) in zip(fo.players, tables):
        rows = [tuple(u * (scale // s) for u in row) for row in table]
        profiles = [(*head, label) for head in profiles for label in spec.actions]
        sums = [tuple(map(add, head, row)) for head in sums for row in rows]
    labels = tuple(",".join(profile) for profile in profiles)
    utility = tuple(tuple(Fraction(u, scale) for u in row) for row in sums)
    game = BaseGame(fo.states, labels, utility, fo.prior)
    validate_game(game)
    return game


def check_public_bce(fo: FirstOrderGame, marginal: ActionMarginal) -> ConsistencyVerdict:
    """Can public signals alone steer play to this profile distribution?

    The marginal is indexed by profiles in action_profiles order.  The witness
    outcome lives on (profiles x states); decoding it back into per-player
    play is mechanical because optimal profiles factor coordinate-wise.
    """
    aux = auxiliary_single_agent(fo)
    validate_marginal(marginal, aux.n_actions)
    return check_bce_consistent(aux, marginal)


def ring_stage_game(ring: RingGame, profile: MarginalProfile, i: int) -> BaseGame:
    """Single-agent game checked at stage i.

    Stage 0 is player 1's game against the state.  For i >= 1 the state space
    is the support of the upstream marginal (zero-mass upstream actions carry
    no obedience content) and the prior is that marginal restricted to it.
    """
    if i == 0:
        return BaseGame(ring.states, ring.actions[0], ring.utilities[0], ring.prior)
    upstream = profile.marginals[i - 1].probs
    support = [s for s, q in enumerate(upstream) if q > ZERO]
    states = tuple(ring.actions[i - 1][s] for s in support)
    utility = tuple(
        tuple(row[s] for s in support) for row in ring.utilities[i]
    )
    prior = tuple(upstream[s] for s in support)
    return BaseGame(states, ring.actions[i], utility, prior)


def _stage_support(ring: RingGame, profile: MarginalProfile, i: int) -> list[int]:
    if i == 0:
        return list(range(len(ring.states)))
    return [s for s, q in enumerate(profile.marginals[i - 1].probs) if q > ZERO]


def _embed_witness(witness: Outcome, support: Sequence[int], width: int) -> Outcome:
    """Re-express a restricted-stage witness over the full upstream space."""
    rows = []
    for row in witness.probs:
        full = [ZERO] * width
        for k, s in enumerate(support):
            full[s] = row[k]
        rows.append(tuple(full))
    return Outcome(tuple(rows))


def check_ring(ring: RingGame, profile: MarginalProfile) -> RingVerdict:
    """Run every stage check in order; stop at the first failure.

    A consistent verdict carries one witness per stage, re-embedded over the
    full upstream action space (zero columns for unused upstream actions).
    """
    if len(profile.marginals) != ring.n_players:
        raise DimensionMismatch(
            f"profile has {len(profile.marginals)} marginals for"
            f" {ring.n_players} players"
        )
    witnesses = []
    for i in range(ring.n_players):
        stage = ring_stage_game(ring, profile, i)
        validate_marginal(profile.marginals[i], stage.n_actions)
        verdict = check_bce_consistent(stage, profile.marginals[i])
        if not verdict.consistent:
            return RingVerdict(False, failing_stage=i, violation=verdict.violation)
        width = len(ring.states) if i == 0 else len(ring.actions[i - 1])
        witnesses.append(
            _embed_witness(verdict.witness, _stage_support(ring, profile, i), width)
        )
    return RingVerdict(True, stage_witnesses=tuple(witnesses))


def construct_ring_outcome(stage_witnesses: Sequence[Outcome]) -> RingOutcome:
    """Chain stage joints into one joint over (profiles x states).

    Entry (a_1..a_N, t) multiplies the stage-0 mass at (a_1, t) by each
    downstream conditional mass of a_{i+1} given a_i.  Conditionals on an
    upstream action of mass zero are taken uniform, which keeps the result a
    distribution without affecting any marginal.  Adjacent witnesses must
    agree on the marginal they share.  More than ``MAX_PROFILES`` profiles
    are refused before any is built.

    Each witness is read as integers over its own scale, so the conditional
    of a_{i+1} given a_i is its integer entry over its integer column sum.
    A partial profile carries integer numerators over one denominator, and
    each joint cell becomes one ``Fraction``; a zero entry settles every
    profile below it as zero.
    """
    if not stage_witnesses:
        raise DimensionMismatch("need at least one stage witness")
    shape = tuple(len(w.probs) for w in stage_witnesses)
    _check_profile_count(shape)
    up_scale, table = integer_table(stage_witnesses[0].probs)
    n_states = len(table[0])
    # Per partial profile, in product order: its numerators over the states
    # and their one denominator, or None when its mass is zero.
    partial = [(row, up_scale) if any(row) else None for row in table]
    upstream = [sum(row) for row in table]
    for witness in stage_witnesses[1:]:
        scale, table = integer_table(witness.probs)
        shared = [sum(column) for column in zip(*table)]
        # shared / scale must equal upstream / up_scale, entry by entry.
        if len(shared) != len(upstream) or any(
            x * up_scale != y * scale for x, y in zip(shared, upstream)
        ):
            raise StageMarginalMismatch(
                "stage witness conditions on a marginal its predecessor does not produce"
            )
        n_here = len(table)
        # factors[s]: the conditional of each action given upstream action
        # s, as (numerator, denominator).
        factors = [
            [(row[s], mass) if mass else (1, n_here) for row in table]
            for s, mass in enumerate(shared)
        ]
        extended = []
        for k, entry in enumerate(partial):
            if entry is None:
                extended += [None] * n_here
                continue
            nums, den = entry
            for num, d in factors[k % len(shared)]:
                extended.append((tuple(x * num for x in nums), den * d) if num else None)
        partial = extended
        up_scale, upstream = scale, [sum(row) for row in table]
    zero = (ZERO,) * n_states
    rows = tuple(
        zero if entry is None else tuple(Fraction(x, entry[1]) for x in entry[0])
        for entry in partial
    )
    return RingOutcome(shape, n_states, rows)


def ring_profiles(shape: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Profile index tuples in the RingOutcome row order."""
    return tuple(product(*(range(n) for n in shape)))


def _collapsed(values: Sequence[int], shape: Sequence[int], i: int) -> list[int]:
    """Per-profile ``values`` summed over players i+2..N: one total per
    profile of players 1..i+1, in the same product order."""
    inner = prod(shape[i + 1:])
    return [sum(values[lo:lo + inner]) for lo in range(0, prod(shape), inner)]


def ring_pair_marginal(outcome: RingOutcome, i: int) -> Outcome:
    """Marginal the stage-i player best-responds to.

    i == 0 gives the (A_1 x states) joint; i >= 1 gives (A_{i+1} x A_i) with
    the upstream action in the state slot.  Cells are sums of the outcome's
    integer numerators, one ``Fraction`` each.
    """
    scale, nums = outcome.integer_probs
    shape = outcome.shape
    if i == 0:
        per_state = [_collapsed(column, shape, 0) for column in zip(*nums)]
        rows = [[totals[a] for totals in per_state] for a in range(shape[0])]
    else:
        totals = _collapsed(list(map(sum, nums)), shape, i)
        width, n = shape[i - 1], shape[i]
        rows = [[sum(totals[s * n + a::width * n]) for s in range(width)] for a in range(n)]
    return Outcome(tuple(tuple(Fraction(x, scale) for x in row) for row in rows))


def ring_player_marginal(outcome: RingOutcome, i: int) -> tuple[Fraction, ...]:
    """Distribution of player i+1's action under the joint outcome, summed
    over the outcome's integer numerators."""
    scale, nums = outcome.integer_probs
    n = outcome.shape[i]
    totals = _collapsed(list(map(sum, nums)), outcome.shape, i)
    return tuple(Fraction(sum(totals[a::n]), scale) for a in range(n))


def _obedience_game(ring: RingGame, i: int) -> BaseGame:
    # Obedience never reads the prior; any full-support one will do.
    if i == 0:
        return BaseGame(ring.states, ring.actions[0], ring.utilities[0], ring.prior)
    upstream = ring.actions[i - 1]
    uniform = tuple([Fraction(1, len(upstream))] * len(upstream))
    return BaseGame(upstream, ring.actions[i], ring.utilities[i], uniform)


def check_ring_obedience(outcome: RingOutcome, ring: RingGame) -> bool:
    """Each player must be obedient against their own pair marginal.

    Player 1's incentives read the (A_1 x states) marginal; player i+1's read
    the (A_{i+1} x A_i) marginal.  Nothing else about the joint matters.
    """
    if outcome.shape != tuple(len(a) for a in ring.actions):
        raise DimensionMismatch("outcome shape does not match the ring's action spaces")
    if outcome.n_states != len(ring.states):
        raise DimensionMismatch("outcome state count does not match the ring")
    for i in range(ring.n_players):
        pair = ring_pair_marginal(outcome, i)
        if not check_obedience(pair, _obedience_game(ring, i)).obedient:
            return False
    return True
