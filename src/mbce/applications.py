"""Multi-agent reductions built on the single-agent checker.

Two settings collapse to repeated single-agent questions.  First-order games
(every player's payoff depends on their own action and the state only) admit
public-signal coordination exactly when one fictitious agent who earns the sum
of all payoffs and picks a whole action profile can be steered to the target
profile distribution.  Ring networks (player 1 reacts to the state, player
i >= 2 reacts to player i-1's action) decompose stage by stage: each link is
a single-agent problem whose "state" is the upstream player's action and whose
prior is the upstream marginal.

So both types are tuples of the single-agent games they reduce to, built and
validated once: a ``FirstOrderGame`` holds one ``BaseGame`` per player over
the common states and prior, and a ``RingGame`` one ``BaseGame`` per stage.
A later ring stage is declared with the uniform prior over its upstream
actions; only validation and obedience read that prior, and the stage check
replaces it with the upstream marginal.

Both reductions work on integers over common denominators, as the game and
implement layers do, and hand their tables to the types in that form: the
auxiliary game adds the players' integer utility tables over one lcm, a
later stage game keeps the columns of the upstream marginal's support, the
ring joint chains each stage witness as integers over its column sums into
one table (``RingOutcome.integer_probs``, reduced once), and a joint's
marginals sum its integers. Both list every action profile, so both refuse
more than ``MAX_PROFILES`` before building any.
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
from .errors import DimensionMismatch, NotADistribution, ProductTooLarge, StageMarginalMismatch
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    check_obedience,
    make_marginal,
    validate_game,
    validate_marginal,
)
from .rationals import (
    IntegerRow,
    IntegerTable,
    parse_row,
    parse_table,
    reduced_table,
    table_fractions,
)

# The auxiliary game and the ring joint list every action profile; larger
# products are refused before any profile is built.
MAX_PROFILES = 4096


@dataclass(frozen=True)
class FirstOrderGame:
    """One single-agent game per player over a common state space and prior;
    payoffs never depend on other players' actions."""

    players: tuple[BaseGame, ...]

    @property
    def states(self) -> tuple[str, ...]:
        return self.players[0].states

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class RingGame:
    """Chain of stage games: stage 0 maps states to A_1, stage i maps A_i to
    A_{i+1}.

    ``stages[0]`` is player 1's game against the state; for i >= 1,
    ``stages[i]`` is player i+1's game whose states are player i's actions.
    A later stage carries the uniform prior over those actions, read only
    by validation and obedience; the stage check replaces it with the
    upstream marginal (``ring_stage_game``).
    """

    stages: tuple[BaseGame, ...]

    @property
    def states(self) -> tuple[str, ...]:
        return self.stages[0].states

    @property
    def actions(self) -> tuple[tuple[str, ...], ...]:
        return tuple(stage.actions for stage in self.stages)

    @property
    def n_players(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class MarginalProfile:
    """One target action distribution per player."""

    marginals: tuple[ActionMarginal, ...]


@dataclass(frozen=True)
class RingOutcome:
    """Joint distribution over action profiles and states.

    Profiles are indexed in lexicographic order with the last player varying
    fastest, matching itertools.product over the per-player ranges. Stored
    as the reduced ``integer_probs``; ``probs`` is its ``Fraction`` view.
    """

    shape: tuple[int, ...]
    n_states: int
    integer_probs: IntegerTable

    def __post_init__(self):
        object.__setattr__(self, "integer_probs", reduced_table(self.integer_probs))

    @cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        return table_fractions(self.integer_probs)


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
    """Build and validate; players is a sequence of (labels, utility rows),
    read like ``make_game``."""
    return first_order_from_tables(states, *_read_tables(prior, players))


def _read_tables(prior, players):
    """The prior and the (labels, utility table) pairs, in integer form.
    Every table is read before the prior, as ``make_game`` reads a game."""
    tables = [(labels, parse_table(rows)) for labels, rows in players]
    return parse_row(prior), tables


def first_order_from_tables(states, prior: IntegerRow, players) -> FirstOrderGame:
    """``make_first_order`` given the prior and each utility table in
    integer form. The prior is reduced once; every player's game shares
    it."""
    games = []
    states = tuple(states)
    for labels, table in players:
        # Per-player slice must itself be a valid single-agent game.
        game = BaseGame(states, tuple(labels), table, prior)
        validate_game(game)
        games.append(game)
        prior = game.integer_prior
    if not games:
        raise DimensionMismatch("a first-order game needs at least one player")
    return FirstOrderGame(tuple(games))


def make_ring(states, prior, stages) -> RingGame:
    """Build and validate; stages is a sequence of (labels, utility rows),
    read like ``make_game``.

    Stage 0 rows run over the declared states; stage i >= 1 rows run over the
    actions of stage i-1, under the uniform prior over them.  Utility rows
    are indexed by own action.
    """
    return ring_from_tables(states, *_read_tables(prior, stages))


def ring_from_tables(states, prior: IntegerRow, stages) -> RingGame:
    """``make_ring`` given the prior and each utility table in integer
    form."""
    games = []
    states = tuple(states)
    for labels, table in stages:
        game = BaseGame(states, tuple(labels), table, prior)
        validate_game(game)
        games.append(game)
        states = game.actions
        prior = (len(states), (1,) * len(states))
    if not games:
        raise DimensionMismatch("a ring needs at least one player")
    return RingGame(tuple(games))


def make_profile(ring: RingGame, vectors) -> MarginalProfile:
    """Validate one marginal per ring player against its stage's width."""
    widths = [stage.n_actions for stage in ring.stages]
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


def action_profiles(fo: FirstOrderGame) -> tuple[tuple[int, ...], ...]:
    """All index profiles in the order the auxiliary game enumerates them."""
    return tuple(product(*(range(p.n_actions) for p in fo.players)))


def profile_count(widths: Sequence[int]) -> int:
    """The number of action profiles of players with these action counts;
    ProductTooLarge past ``MAX_PROFILES``."""
    count = prod(widths)
    if count > MAX_PROFILES:
        raise ProductTooLarge(f"{count} action profiles exceed the cap of {MAX_PROFILES}")
    return count


def auxiliary_single_agent(fo: FirstOrderGame) -> BaseGame:
    """Collapse all players into one agent choosing a whole profile.

    The agent earns the sum of the individual payoffs, so a profile is optimal
    at a belief exactly when every coordinate is optimal for its owner.  State
    space and prior carry over unchanged.  The players' utility tables are
    added as integers over the lcm of their scales, one player at a time in
    ``action_profiles`` order, and the game takes the sums over that lcm.
    """
    profile_count([player.n_actions for player in fo.players])
    tables = [player.integer_utility for player in fo.players]
    scale = lcm(*(s for s, _ in tables))
    profiles, sums = [()], [(0,) * fo.n_states]
    for player, (s, table) in zip(fo.players, tables):
        rows = [tuple(u * (scale // s) for u in row) for row in table]
        profiles = [(*head, label) for head in profiles for label in player.actions]
        sums = [tuple(map(add, head, row)) for head in sums for row in rows]
    labels = tuple(",".join(profile) for profile in profiles)
    game = BaseGame(fo.states, labels, (scale, tuple(sums)), fo.players[0].integer_prior)
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

    Stage 0 is player 1's game against the state, ``ring.stages[0]`` itself.
    For i >= 1 it restricts ``ring.stages[i]``: the state space is the
    support of the upstream marginal (zero-mass upstream actions carry no
    obedience content) and the prior is that marginal restricted to it.
    """
    stage = ring.stages[i]
    if i == 0:
        return stage
    upstream_scale, upstream = profile.marginals[i - 1].integer_probs
    support = _stage_support(ring, profile, i)
    scale, table = stage.integer_utility
    return BaseGame(
        tuple(stage.states[s] for s in support),
        stage.actions,
        (scale, tuple(tuple(row[s] for s in support) for row in table)),
        (upstream_scale, tuple(upstream[s] for s in support)),
    )


def _stage_support(ring: RingGame, profile: MarginalProfile, i: int) -> list[int]:
    if i == 0:
        return list(range(ring.stages[0].n_states))
    return [s for s, x in enumerate(profile.marginals[i - 1].integer_probs[1]) if x > 0]


def _embed_witness(witness: Outcome, support: Sequence[int], width: int) -> Outcome:
    """Re-express a restricted-stage witness over the full upstream space."""
    scale, table = witness.integer_probs
    rows = []
    for row in table:
        full = [0] * width
        for k, s in enumerate(support):
            full[s] = row[k]
        rows.append(tuple(full))
    return Outcome((scale, tuple(rows)))


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
        support = _stage_support(ring, profile, i)
        witnesses.append(_embed_witness(verdict.witness, support, ring.stages[i].n_states))
    return RingVerdict(True, stage_witnesses=tuple(witnesses))


def construct_ring_outcome(stage_witnesses: Sequence[Outcome]) -> RingOutcome:
    """Chain stage joints into one joint over (profiles x states).

    Entry (a_1..a_N, t) multiplies the stage-0 mass at (a_1, t) by each
    downstream conditional mass of a_{i+1} given a_i.  Adjacent witnesses
    must agree on the marginal they share, and a witness with a negative
    entry is refused with NotADistribution.  More than ``MAX_PROFILES``
    profiles are refused before any is built.

    Each witness is read as integers over its own scale, so the conditional
    of a_{i+1} given a_i is its integer entry over its integer column sum.
    A partial profile carries integer numerators over one denominator, and
    the joint puts every profile over the lcm of those denominators; a zero
    entry settles every profile below it as zero.  With no negative entry,
    a profile whose last action has zero mass is already zero, so no
    conditional on such an action is ever read.
    """
    if not stage_witnesses:
        raise DimensionMismatch("need at least one stage witness")
    shape = tuple(len(w.integer_probs[1]) for w in stage_witnesses)
    profile_count(shape)
    # Each scale is positive, so the numerators carry the entries' signs.
    for i, witness in enumerate(stage_witnesses):
        if any(x < 0 for row in witness.integer_probs[1] for x in row):
            raise NotADistribution(f"stage witness {i} has a negative entry")
    up_scale, table = stage_witnesses[0].integer_probs
    n_states = len(table[0])
    # Per partial profile, in product order: its numerators over the states
    # and their one denominator, or None when its mass is zero.
    partial = [(row, up_scale) if any(row) else None for row in table]
    upstream = [sum(row) for row in table]
    for witness in stage_witnesses[1:]:
        scale, table = witness.integer_probs
        shared = [sum(column) for column in zip(*table)]
        # shared / scale must equal upstream / up_scale, entry by entry.
        if len(shared) != len(upstream) or any(
            x * up_scale != y * scale for x, y in zip(shared, upstream)
        ):
            raise StageMarginalMismatch(
                "stage witness conditions on a marginal its predecessor does not produce"
            )
        # factors[s]: the conditional of each action given upstream action
        # s, as (numerator, denominator).
        factors = [[(row[s], mass) for row in table] for s, mass in enumerate(shared)]
        extended = []
        for k, entry in enumerate(partial):
            if entry is None:
                extended += [None] * len(table)
                continue
            nums, den = entry
            for num, d in factors[k % len(shared)]:
                extended.append((tuple(x * num for x in nums), den * d) if num else None)
        partial = extended
        up_scale, upstream = scale, [sum(row) for row in table]
    scale = lcm(*[entry[1] for entry in partial if entry is not None])
    zero = (0,) * n_states
    rows = tuple(
        zero if entry is None else tuple(x * (scale // entry[1]) for x in entry[0])
        for entry in partial
    )
    return RingOutcome(shape, n_states, (scale, rows))


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
    integers, over its scale.
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
    return Outcome((scale, tuple(map(tuple, rows))))


def ring_player_marginal(outcome: RingOutcome, i: int) -> IntegerRow:
    """Distribution of player i+1's action under the joint outcome: sums of
    its integer numerators over its scale, not necessarily reduced."""
    scale, nums = outcome.integer_probs
    n = outcome.shape[i]
    totals = _collapsed(list(map(sum, nums)), outcome.shape, i)
    return scale, tuple([sum(totals[a::n]) for a in range(n)])


def check_ring_obedience(outcome: RingOutcome, ring: RingGame) -> bool:
    """Each player must be obedient against their own pair marginal.

    Player 1's incentives read the (A_1 x states) marginal; player i+1's read
    the (A_{i+1} x A_i) marginal, priced on that player's stage game.
    Nothing else about the joint matters.
    """
    if outcome.shape != tuple(stage.n_actions for stage in ring.stages):
        raise DimensionMismatch("outcome shape does not match the ring's action spaces")
    if outcome.n_states != ring.stages[0].n_states:
        raise DimensionMismatch("outcome state count does not match the ring")
    return all(
        check_obedience(ring_pair_marginal(outcome, i), stage).obedient
        for i, stage in enumerate(ring.stages)
    )
