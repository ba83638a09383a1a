"""Seeded instance builders for the benchmark workloads.

Inputs come from this module's own generator (``random.Random`` seeded by
workload name and seed), never from ``mbce.generators``, so a change to the
program cannot change what a workload feeds it. Every instance is an mbce
instance document plus the verdict it must get:

- ``oracle``: a random marginal whose verdict is not known in advance; the
  check compares it with ``oracle_feasibility``;
- ``consistent`` / ``inconsistent``: known by construction;
- ``implemented`` / ``infeasible``: known by construction for ``implement``;
- ring instances corrupted at stage k carry ``stage = k``.

Consistent marginals are built the information-design way: a signal
likelihood matrix splits the prior into Bayes-plausible posteriors, each
posterior is sent to one of its exact best responses, and the marginal is the
weight each action receives. An inconsistent marginal is a point mass on an
action that is not a best response at the prior (reachable only by sending
no information, which that action would disobey), or, for ``implement``,
mass moved onto a strictly dominated action that no posterior offers.

Shapes are fixed per slot of a round; the seed draws only payoffs, priors,
likelihoods and marginals. That keeps the cost of a round close across seeds,
which the throughput metric needs, while every seed still feeds new numbers.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

ZERO = Fraction(0)
ONE = Fraction(1)

# A sweep, wide or multi round takes 15-25 s of operation time today, so one
# round fills a 20 s run: the seed changes every number in a round, and only
# a round this large keeps its cost (and so the throughput) within about a
# tenth across seeds. An implement round costs nearly the same for every
# seed; it takes about 5 s and a run repeats it.

# sweep: the population `mbce verify` draws (2-4 states, 2-4 actions).
SWEEP_SHAPES = tuple(product((2, 3, 4), (2, 3, 4)))
SWEEP_PER_SHAPE = 120

# wide: consistent marginals (on exactly two actions) per (states, actions),
# plus two inconsistent marginals per shape. Most operations are 5x6, and as
# many cheap rejections lie below them as dearer shapes above, so the median
# operation sits mid-way through one shape's costs instead of on the
# boundary between two shapes, where it moved by a sixth from seed to seed.
WIDE_CONSISTENT = {(5, 6): 24, (5, 7): 3, (6, 6): 3, (6, 7): 3}
WIDE_INCONSISTENT_PER_SHAPE = 2
WIDE_SUPPORT = 2

# implement: (states, actions); posterior counts cycle through 6..10.
IMPLEMENT_SHAPES = tuple(product((3, 4), (10, 11, 12)))
IMPLEMENT_FEASIBLE_PER_SHAPE = 9
IMPLEMENT_INFEASIBLE_PER_SHAPE = 3
IMPLEMENT_POSTERIORS = (6, 7, 8, 9, 10)

# multi: public-signal games over 3 states with at most 9 profiles and a
# marginal on exactly two profiles, then three rings; the set repeats. Rings
# cycle through 2 and 3 players, each consistent and corrupted. The cheapest
# public shape comes twice: with as many rings below it as dearer public
# operations above it, the median operation sits mid-way through 24 of them.
PUBLIC_SHAPES = ((2, 2), (2, 2), (2, 3), (3, 3), (2, 2, 2))
PUBLIC_STATES = 3
PUBLIC_SUPPORT = 2
RING_KINDS = ((2, False), (2, True), (3, False), (3, True))
RINGS_PER_SET = 3
MULTI_SETS = 12


@dataclass(frozen=True)
class Case:
    """One operation of a round: the mbce subcommand, the instance document
    it reads, and the verdict it must reach (``stage`` for corrupted rings)."""

    command: str
    doc: dict
    expect: str
    stage: int | None = None


def as_json(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def vec_json(values) -> list:
    return [as_json(q) for q in values]


def rows_json(rows) -> list:
    return [vec_json(row) for row in rows]


def expected_utility(row, belief) -> Fraction:
    return sum((u * p for u, p in zip(row, belief)), ZERO)


def best_responses(utility, belief) -> list[int]:
    values = [expected_utility(row, belief) for row in utility]
    top = max(values)
    return [a for a, v in enumerate(values) if v == top]


def _entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))


def _utility(rng: random.Random, n_actions: int, n_states: int):
    return [[_entry(rng) for _ in range(n_states)] for _ in range(n_actions)]


def _prior(rng: random.Random, n: int) -> list[Fraction]:
    parts = [rng.randint(1, 8) for _ in range(n)]
    return [Fraction(p, sum(parts)) for p in parts]


def _composition(rng: random.Random, n: int) -> list[Fraction]:
    """Random distribution with zeros allowed, like the verify population."""
    while True:
        parts = [rng.randint(0, 8) for _ in range(n)]
        if any(parts):
            return [Fraction(p, sum(parts)) for p in parts]


def posteriors(rng: random.Random, prior, n_signals: int):
    """Bayes-plausible split of the prior into ``n_signals`` distinct
    posteriors: [(weight, belief), ...], weights positive, averaging exactly
    back to the prior."""
    n = len(prior)
    while True:
        likelihood = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n_signals)]
        cols = [sum(row[t] for row in likelihood) for t in range(n)]
        if not all(cols) or not all(any(row) for row in likelihood):
            continue
        split = []
        for row in likelihood:
            joint = [prior[t] * Fraction(row[t], cols[t]) for t in range(n)]
            weight = sum(joint, ZERO)
            split.append((weight, tuple(q / weight for q in joint)))
        if len({belief for _, belief in split}) == n_signals:
            return split


def _routed_marginal(rng, utility, split, support: int | None = None):
    """Send each posterior to one of its best responses; with ``support``
    set, redraw the choices until exactly that many actions are used."""
    menus = [best_responses(utility, belief) for _, belief in split]
    for _ in range(64):
        chosen = [rng.choice(menu) for menu in menus]
        if support is None or len(set(chosen)) == support:
            break
    else:
        return None
    marginal = [ZERO] * len(utility)
    for (weight, _), a in zip(split, chosen):
        marginal[a] += weight
    return marginal


def _off_prior_action(rng, utility, prior) -> int | None:
    best = set(best_responses(utility, prior))
    others = [a for a in range(len(utility)) if a not in best]
    return rng.choice(others) if others else None


def _point_mass(n: int, a: int) -> list[Fraction]:
    return [ONE if b == a else ZERO for b in range(n)]


def _game_doc(utility, prior, marginal) -> dict:
    return {
        "states": [f"t{t + 1}" for t in range(len(prior))],
        "actions": [f"a{a + 1}" for a in range(len(utility))],
        "utility": rows_json(utility),
        "prior": vec_json(prior),
        "marginal": vec_json(marginal),
    }


def sweep_cases(rng: random.Random) -> list[Case]:
    cases = []
    for n_states, n_actions in SWEEP_SHAPES:
        for _ in range(SWEEP_PER_SHAPE):
            utility = _utility(rng, n_actions, n_states)
            prior = _prior(rng, n_states)
            marginal = _composition(rng, n_actions)
            cases.append(Case("check", _game_doc(utility, prior, marginal), "oracle"))
    return cases


def _consistent_game(rng, n_states, n_actions, n_signals, support):
    """A game with a marginal reachable by construction, and an action that
    is not a best response at the prior (for the inconsistent twin)."""
    while True:
        utility = _utility(rng, n_actions, n_states)
        prior = _prior(rng, n_states)
        if _off_prior_action(rng, utility, prior) is None:
            continue
        marginal = _routed_marginal(
            rng, utility, posteriors(rng, prior, n_signals), support
        )
        if marginal is not None:
            return utility, prior, marginal


def wide_cases(rng: random.Random) -> list[Case]:
    cases = []
    for (n_states, n_actions), count in WIDE_CONSISTENT.items():
        for _ in range(count):
            utility, prior, marginal = _consistent_game(
                rng, n_states, n_actions, WIDE_SUPPORT + 1, WIDE_SUPPORT
            )
            cases.append(Case("check", _game_doc(utility, prior, marginal), "consistent"))
        for _ in range(WIDE_INCONSISTENT_PER_SHAPE):
            utility, prior, _ = _consistent_game(
                rng, n_states, n_actions, WIDE_SUPPORT + 1, None
            )
            bad = _point_mass(n_actions, _off_prior_action(rng, utility, prior))
            cases.append(Case("check", _game_doc(utility, prior, bad), "inconsistent"))
    return cases


def _implement_instance(rng, n_states, n_actions, n_posteriors, feasible):
    # The last action is strictly dominated by the first, so no posterior
    # ever offers it: mass moved onto it makes the marginal infeasible.
    utility = _utility(rng, n_actions - 1, n_states)
    utility.append([u - 1 for u in utility[0]])
    prior = _prior(rng, n_states)
    split = posteriors(rng, prior, n_posteriors)
    marginal = _routed_marginal(rng, utility, split)
    if not feasible:
        donor = max(range(n_actions), key=lambda a: (marginal[a], -a))
        moved = marginal[donor] / 2
        marginal[donor] -= moved
        marginal[-1] += moved
    doc = _game_doc(utility, prior, marginal)
    doc["tau"] = {
        "support": rows_json(belief for _, belief in split),
        "weights": vec_json(weight for weight, _ in split),
    }
    return Case("implement", doc, "implemented" if feasible else "infeasible")


def implement_cases(rng: random.Random) -> list[Case]:
    cases = []
    slot = 0
    for n_states, n_actions in IMPLEMENT_SHAPES:
        plan = [True] * IMPLEMENT_FEASIBLE_PER_SHAPE + [False] * IMPLEMENT_INFEASIBLE_PER_SHAPE
        for feasible in plan:
            n_posteriors = IMPLEMENT_POSTERIORS[slot % len(IMPLEMENT_POSTERIORS)]
            slot += 1
            cases.append(
                _implement_instance(rng, n_states, n_actions, n_posteriors, feasible)
            )
    return cases


def profile_labels(widths) -> list[str]:
    return [
        ",".join(f"p{i + 1}a{a + 1}" for i, a in enumerate(profile))
        for profile in product(*(range(w) for w in widths))
    ]


def public_case(rng: random.Random, widths) -> Case:
    """First-order game whose profile marginal is reachable by construction:
    each of two posteriors is sent to a profile of individual best responses,
    which is a best response of the auxiliary sum-of-payoffs agent; the two
    profiles differ."""
    profiles = list(product(*(range(w) for w in widths)))
    while True:
        prior = _prior(rng, PUBLIC_STATES)
        players = [_utility(rng, w, PUBLIC_STATES) for w in widths]
        split = posteriors(rng, prior, PUBLIC_SUPPORT)
        chosen = [
            tuple(rng.choice(best_responses(u, belief)) for u in players)
            for _, belief in split
        ]
        if len(set(chosen)) == PUBLIC_SUPPORT:
            break
    marginal = [ZERO] * len(profiles)
    for (weight, _), profile in zip(split, chosen):
        marginal[profiles.index(profile)] += weight
    doc = {
        "first_order": {
            "states": [f"t{t + 1}" for t in range(PUBLIC_STATES)],
            "prior": vec_json(prior),
            "players": [
                {
                    "actions": [f"p{i + 1}a{a + 1}" for a in range(len(u))],
                    "utility": rows_json(u),
                }
                for i, u in enumerate(players)
            ],
        },
        "marginal": vec_json(marginal),
    }
    return Case("public", doc, "consistent")


def ring_case(rng: random.Random, n_players: int, corrupt: bool) -> Case:
    """Ring whose stage marginals are reachable by construction, stage by
    stage (stage i's prior is stage i-1's marginal on its support). A
    corrupted ring swaps one stage's marginal for a point mass on an action
    that is not a best response at that stage's prior; the earlier stages
    are untouched, so the check must fail exactly there."""
    while True:
        n_states = rng.randint(2, 3)
        prior = _prior(rng, n_states)
        stages, marginals, stage_priors = [], [], []
        upstream_width, stage_prior = n_states, prior
        for i in range(n_players):
            n_actions = rng.randint(2, 3)
            utility = _utility(rng, n_actions, upstream_width)
            support = [s for s, q in enumerate(stage_prior) if q > 0]
            restricted = [stage_prior[s] for s in support]
            rows = [[row[s] for s in support] for row in utility]
            n_signals = 1 if len(support) == 1 else min(len(support) + 1, 3)
            split = posteriors(rng, restricted, n_signals)
            marginal = _routed_marginal(rng, rows, split)
            stages.append(utility)
            marginals.append(marginal)
            stage_priors.append((rows, restricted))
            upstream_width, stage_prior = n_actions, marginal
        stage = None
        if corrupt:
            stage = rng.randrange(n_players)
            rows, restricted = stage_priors[stage]
            bad = _off_prior_action(rng, rows, restricted)
            if bad is None:
                continue
            marginals[stage] = _point_mass(len(rows), bad)
        break
    labels = [[f"t{t + 1}" for t in range(n_states)]]
    for i, utility in enumerate(stages):
        labels.append([f"p{i + 1}a{a + 1}" for a in range(len(utility))])
    doc = {
        "ring": {
            "states": labels[0],
            "prior": vec_json(prior),
            "stages": [
                {"actions": labels[i + 1], "utility": rows_json(u)}
                for i, u in enumerate(stages)
            ],
        },
        "marginals": [vec_json(m) for m in marginals],
    }
    return Case("ring", doc, "inconsistent" if corrupt else "consistent", stage)


def multi_cases(rng: random.Random) -> list[Case]:
    cases = []
    kinds = iter(RING_KINDS * MULTI_SETS)
    for _ in range(MULTI_SETS):
        cases.extend(public_case(rng, widths) for widths in PUBLIC_SHAPES)
        for _ in range(RINGS_PER_SET):
            n_players, corrupt = next(kinds)
            cases.append(ring_case(rng, n_players, corrupt))
    return cases


WORKLOADS = {
    "sweep": sweep_cases,
    "wide": wide_cases,
    "implement": implement_cases,
    "multi": multi_cases,
}


def build_cases(workload: str, seed: int) -> list[Case]:
    """The operations of one round, the same for the same workload and seed."""
    return WORKLOADS[workload](random.Random(f"mbce-bench/{workload}/{seed}"))


def write_cases(cases: list[Case], directory: str) -> list[str]:
    """Write each instance document as ``NNNN.json``; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, case in enumerate(cases):
        path = os.path.join(directory, f"{index:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case.doc, fh)
        paths.append(path)
    return paths
