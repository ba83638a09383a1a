from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from mbce.game import make_game, make_marginal, make_outcome, matching_game

# CI runs ``pytest --hypothesis-profile=derandomized``: every property draws
# the same examples on every run and every Python, so a failure reproduces
# and a pass is not luck of the draw. Example counts are the tests' own.
settings.register_profile("derandomized", derandomize=True)


@pytest.fixture
def match_half():
    return matching_game(Fraction(1, 2))


@pytest.fixture
def match_three_quarters():
    return matching_game(Fraction(3, 4))


@pytest.fixture
def skewed_outcome():
    # Obedient under matching_game(3/4): reveal t1 half the time, pool the rest.
    return make_outcome([["1/2", 0], ["1/4", "1/4"]])


@pytest.fixture
def direction_blind_spot():
    """Four states, four actions; every state and action-pair condition holds
    with strictly positive slack, yet the pair is inconsistent.

    The direction (1, 1, -2/21, -1) lies outside both named families and has
    residual -548521/17124030; the value was checked by direct arithmetic
    over the enumerated polytope vertices, independently of any LP. Found by
    sweeping the seeded generator (seed 7, 17th instance) against the oracle.
    """
    game = make_game(
        ["t1", "t2", "t3", "t4"],
        ["a1", "a2", "a3", "a4"],
        [
            ["1/2", "-1/2", "-5/2", -2],
            ["7/2", -6, -3, "3/2"],
            ["1/2", -2, 2, -2],
            [6, 7, "7/4", -7],
        ],
        ["1/3", "1/3", "2/15", "1/5"],
    )
    return game, make_marginal(["3/14", "3/14", "3/14", "5/14"])
