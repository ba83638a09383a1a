"""Seeded random instances for cross-checking the two consistency routes.

Everything here is driven by one explicit 64-bit xorshift generator so a run
is reproducible from its seed alone, in any implementation of the same update
rule.  No stdlib random: float-free, and the sequence is part of the public
contract (verify reports cite the seed).
"""

from __future__ import annotations

from fractions import Fraction

from .applications import (
    FirstOrderGame,
    MarginalProfile,
    RingGame,
    make_first_order,
    make_ring,
    ring_stage_game,
)
from .consistency import belief_decomposition, check_bce_consistent, oracle_feasibility
from .errors import InternalDisagreement, InvalidGeneratorInput
from .game import ActionMarginal, BaseGame, best_response_set, make_game
from .implementation import PosteriorDistribution, make_posteriors

MASK64 = (1 << 64) - 1

# Replacement for the all-zero seed; xorshift state must never be zero.
ZERO_SEED_STATE = 0x9E3779B97F4A7C15


class XorShift64:
    """Marsaglia xorshift with the (13, 7, 17) shift triple on 64 bits.

    Update rule (the whole contract):

        x ^= (x << 13) mod 2**64
        x ^= (x >> 7)
        x ^= (x << 17) mod 2**64

    Seed 0 is remapped to 0x9E3779B97F4A7C15.  Bounded draws use rejection
    sampling on the raw stream, so they are unbiased and reproducible.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or ZERO_SEED_STATE

    def next_raw(self) -> int:
        x = self.state
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        self.state = x
        return x

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends included."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next_raw()
            if x < limit:
                return lo + (x % span)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]


# Least value of each integer input of the seeded instance generators (``None``
# for any integer): a count of instances, and the sizes of the smallest game.
GENERATOR_INPUT_BOUNDS = {"n": 0, "seed": None, "max_states": 2, "max_actions": 2}


def check_generator_inputs(**inputs) -> None:
    """Refuse inputs the seeded instance generators cannot draw from, named
    as in ``GENERATOR_INPUT_BOUNDS``: each must be an integer (``bool`` is
    not) at or above its bound, so no draw is from an empty range."""
    bounds = [(key, GENERATOR_INPUT_BOUNDS[key]) for key in inputs]
    bad = [
        f"{key}={inputs[key]!r}"
        for key, low in bounds
        if type(inputs[key]) is not int or (low is not None and inputs[key] < low)
    ]
    if bad:
        rule = ", ".join(key if low is None else f"{key} >= {low}" for key, low in bounds)
        raise InvalidGeneratorInput(f"{rule} must be integers; got {', '.join(bad)}")


def random_fraction(rng: XorShift64) -> Fraction:
    """Utility entry: numerator in [-8, 8], denominator in {1, 2, 3, 4}."""
    return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))


def random_prior(rng: XorShift64, n: int) -> tuple[Fraction, ...]:
    """Full-support composition: positive integer parts, normalized."""
    parts = [rng.randint(1, 8) for _ in range(n)]
    total = sum(parts)
    return tuple(Fraction(p, total) for p in parts)


def random_marginal(rng: XorShift64, n_actions: int) -> ActionMarginal:
    """Composition with zeros allowed; the all-zero draw is redrawn."""
    while True:
        parts = [rng.randint(0, 8) for _ in range(n_actions)]
        if any(parts):
            break
    return ActionMarginal((sum(parts), tuple(parts)))


def random_direction(rng: XorShift64, dim: int) -> tuple[Fraction, ...]:
    """Nonzero integer objective vector with entries in [-8, 8]."""
    while True:
        coords = tuple(Fraction(rng.randint(-8, 8)) for _ in range(dim))
        if any(coords):
            return coords


def random_game(
    rng: XorShift64,
    max_states: int = 4,
    max_actions: int = 4,
    min_states: int = 2,
    min_actions: int = 2,
) -> BaseGame:
    n_states = rng.randint(min_states, max_states)
    n_actions = rng.randint(min_actions, max_actions)
    utility = [
        [random_fraction(rng) for _ in range(n_states)] for _ in range(n_actions)
    ]
    return make_game(
        [f"t{i + 1}" for i in range(n_states)],
        [f"a{j + 1}" for j in range(n_actions)],
        utility,
        random_prior(rng, n_states),
    )


def random_posteriors(
    rng: XorShift64, prior: tuple[Fraction, ...], max_signals: int = 4
) -> PosteriorDistribution:
    """Bayes-plausible posteriors from a random signal likelihood matrix.

    Each signal row holds small integer likelihood weights; conditioning the
    prior on a signal gives a posterior, and the signal law averages the
    posteriors back to the prior exactly.  Equal posteriors merge.
    """
    n = len(prior)
    while True:
        rows = [
            [rng.randint(0, 3) for _ in range(n)]
            for _ in range(rng.randint(1, max_signals))
        ]
        if all(any(row[t] for row in rows) for t in range(n)):
            break
    col_sums = [sum(row[t] for row in rows) for t in range(n)]
    merged: dict[tuple[Fraction, ...], Fraction] = {}
    for row in rows:
        weight = sum(
            (prior[t] * Fraction(row[t], col_sums[t]) for t in range(n)), Fraction(0)
        )
        if weight == 0:
            continue
        mu = tuple(prior[t] * Fraction(row[t], col_sums[t]) / weight for t in range(n))
        merged[mu] = merged.get(mu, Fraction(0)) + weight
    support = sorted(merged)
    return make_posteriors(support, [merged[mu] for mu in support])


def consistent_marginal(
    rng: XorShift64, game: BaseGame, tries: int = 20
) -> ActionMarginal:
    """A marginal the game can reach; random draws first, then a safe default.

    A point mass on a best response to the prior is always reachable (release
    no information), so the fallback cannot fail.
    """
    for _ in range(tries):
        nu = random_marginal(rng, game.n_actions)
        if check_bce_consistent(game, nu).consistent:
            return nu
    anchor = min(best_response_set(game, game.prior))
    return ActionMarginal((1, tuple(int(a == anchor) for a in range(game.n_actions))))


def inconsistent_marginal(
    rng: XorShift64, game: BaseGame, tries: int = 20
) -> ActionMarginal | None:
    """A marginal the game cannot reach, or None when every marginal works.

    After random draws, point masses on actions that are not best responses
    to the prior are scanned; those are unreachable whenever they exist.
    """
    for _ in range(tries):
        nu = random_marginal(rng, game.n_actions)
        if not check_bce_consistent(game, nu).consistent:
            return nu
    best_at_prior = best_response_set(game, game.prior)
    for a in range(game.n_actions):
        if a not in best_at_prior:
            nu = ActionMarginal((1, tuple(int(b == a) for b in range(game.n_actions))))
            if not check_bce_consistent(game, nu).consistent:
                return nu
    return None


def compare_routes(
    n: int, seed: int, max_states: int, max_actions: int
) -> tuple[str, dict]:
    """Seeded head-to-head of the belief-space decomposition against the
    oracle LP, the two independent routes to the same decision, over ``n``
    random instances. Returns the verdict and ``details`` of a verify report:
    ``"ok"`` or ``"disagreement"``, the indices where the routes disagree (an
    internal disagreement counts as one), and how many of the other
    instances are consistent and inconsistent."""
    check_generator_inputs(n=n, seed=seed, max_states=max_states, max_actions=max_actions)
    rng = XorShift64(seed)
    disagreements = []
    consistent_count = 0
    for index in range(n):
        game = random_game(rng, max_states=max_states, max_actions=max_actions)
        nu = random_marginal(rng, game.n_actions)
        try:
            decomposed = belief_decomposition(game, nu) is not None
            feasible, _ = oracle_feasibility(game, nu)
        except InternalDisagreement:
            disagreements.append(index)
            continue
        if decomposed != feasible:
            disagreements.append(index)
        elif feasible:
            consistent_count += 1
    details = {
        "disagreements": disagreements,
        "consistent": consistent_count,
        "inconsistent": n - consistent_count - len(disagreements),
    }
    return ("disagreement" if disagreements else "ok"), details


def random_first_order(
    rng: XorShift64,
    max_players: int = 2,
    max_states: int = 3,
    max_actions: int = 3,
) -> FirstOrderGame:
    n_players = rng.randint(1, max_players)
    n_states = rng.randint(2, max_states)
    states = [f"t{i + 1}" for i in range(n_states)]
    prior = random_prior(rng, n_states)
    players = []
    for i in range(n_players):
        n_actions = rng.randint(2, max_actions)
        labels = [f"p{i + 1}a{j + 1}" for j in range(n_actions)]
        rows = [
            [random_fraction(rng) for _ in range(n_states)] for _ in range(n_actions)
        ]
        players.append((labels, rows))
    return make_first_order(states, prior, players)


def random_ring(
    rng: XorShift64,
    max_players: int = 3,
    max_states: int = 3,
    max_actions: int = 3,
) -> RingGame:
    n_players = rng.randint(2, max_players)
    n_states = rng.randint(2, max_states)
    states = [f"t{i + 1}" for i in range(n_states)]
    prior = random_prior(rng, n_states)
    stages = []
    width = n_states
    for i in range(n_players):
        n_actions = rng.randint(2, max_actions)
        labels = [f"p{i + 1}a{j + 1}" for j in range(n_actions)]
        rows = [[random_fraction(rng) for _ in range(width)] for _ in range(n_actions)]
        stages.append((labels, rows))
        width = n_actions
    return make_ring(states, prior, stages)


def random_consistent_ring(
    rng: XorShift64,
    max_players: int = 3,
    max_states: int = 3,
    max_actions: int = 3,
) -> tuple[RingGame, MarginalProfile]:
    """A ring plus a profile every stage of which passes its stage check.

    Marginals are chosen stage by stage because stage i's game (state space
    and prior) depends on the marginal picked for stage i-1.
    """
    ring = random_ring(rng, max_players, max_states, max_actions)
    chosen: list[ActionMarginal] = []
    for i in range(ring.n_players):
        stage = ring_stage_game(ring, MarginalProfile(tuple(chosen)), i)
        chosen.append(consistent_marginal(rng, stage))
    return ring, MarginalProfile(tuple(chosen))


def corrupt_ring_profile(
    rng: XorShift64, ring: RingGame, profile: MarginalProfile
) -> tuple[MarginalProfile, int] | None:
    """Replace one stage marginal with an unreachable one, if the ring allows.

    Returns the corrupted profile and the 0-based stage, or None when every
    stage of this ring accepts every marginal (constant-payoff stages).
    Stages are tried in a random rotation so corruption spreads over stages.
    """
    n = ring.n_players
    start = rng.randint(0, n - 1)
    for offset in range(n):
        stage_index = (start + offset) % n
        stage = ring_stage_game(ring, profile, stage_index)
        bad = inconsistent_marginal(rng, stage)
        if bad is None:
            continue
        marginals = list(profile.marginals)
        marginals[stage_index] = bad
        return MarginalProfile(tuple(marginals)), stage_index
    return None
