"""Seeded random instances for cross-checking the two consistency routes.

Everything here is driven by one explicit 64-bit xorshift generator so a run
is reproducible from its seed alone, in any implementation of the same update
rule.  No stdlib random: float-free, and the sequence is part of the public
contract (verify reports cite the seed).

The module draws what ``mbce random`` and ``mbce verify`` need: games,
priors, marginals and the seeded comparison of the two routes. The draws
that only the tests use (directions, posterior distributions, reachable and
unreachable marginals, first-order games and rings) build on these in
``tests/instances.py``.
"""

from __future__ import annotations

from fractions import Fraction

from .consistency import belief_decomposition, oracle_feasibility
from .errors import InternalDisagreement, InvalidGeneratorInput
from .game import ActionMarginal, BaseGame, make_game

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

