from __future__ import annotations

import signal
from fractions import Fraction

import pytest
from hypothesis import settings

from mbce.game import make_game, make_marginal, make_outcome, matching_game

# CI runs ``python -O -m pytest --hypothesis-profile=derandomized``: every
# property draws the same examples on every run and every Python, so a
# failure reproduces and a pass is not luck of the draw. Example counts are
# the tests' own. ``-O`` strips no check: pytest rewrites the asserts of the
# test files into raises, and test_optimized_mode.py keeps ``assert`` out of
# the program, the demos and the helper modules, which pytest does not rewrite.
settings.register_profile("derandomized", derandomize=True)

# Seconds a test may run before it fails with its name; the slowest test
# takes about 6 s. A simplex that stops pivoting by Bland's rule can cycle
# for ever, and this turns that hang into a failure.
TEST_TIME_LIMIT = 120


class TestTimeLimitExceeded(BaseException):
    """Raised when a test overruns ``TEST_TIME_LIMIT``. A ``BaseException``
    that is no ``Exception``, so that Hypothesis, which catches
    ``Exception`` (and ``SystemExit`` and ``GeneratorExit``) to shrink a
    failing example, lets it through at once."""

    __test__ = False  # not a test class, despite its name


def _overran(signum, frame):
    raise TestTimeLimitExceeded(f"the test ran past its limit of {TEST_TIME_LIMIT} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT``, by SIGALRM where the
    platform has it; the timer is disarmed and the handler restored after."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
