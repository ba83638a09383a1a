"""Seeded instances that only the tests draw.

Directions, posterior distributions, marginals a game can or cannot reach,
first-order games and rings, each drawn from ``mbce.generators.XorShift64``
with the package's own ``random_marginal``, ``random_prior`` and
``random_fraction``, so a test's instances follow from its seed alone. The
package draws only what ``mbce random`` and ``mbce verify`` need; these
build on those draws.
"""

from __future__ import annotations

from fractions import Fraction

from mbce.applications import (
    FirstOrderGame,
    MarginalProfile,
    RingGame,
    make_first_order,
    make_ring,
    ring_stage_game,
)
from mbce.consistency import check_bce_consistent
from mbce.game import ActionMarginal, BaseGame, best_response_set
from mbce.generators import XorShift64, random_fraction, random_marginal, random_prior
from mbce.implementation import PosteriorDistribution, make_posteriors


def random_direction(rng: XorShift64, dim: int) -> tuple[Fraction, ...]:
    """Nonzero integer objective vector with entries in [-8, 8]."""
    while True:
        coords = tuple(Fraction(rng.randint(-8, 8)) for _ in range(dim))
        if any(coords):
            return coords


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
