"""Seeded generator: frozen stream values and structural guarantees."""

from __future__ import annotations

from fractions import Fraction

import pytest

from mbce.applications import check_ring
from mbce.consistency import check_bce_consistent
from mbce.game import validate_game, validate_marginal
from mbce.errors import InvalidGeneratorInput
from mbce.generators import (
    XorShift64,
    check_generator_inputs,
    compare_routes,
    consistent_marginal,
    corrupt_ring_profile,
    inconsistent_marginal,
    random_consistent_ring,
    random_direction,
    random_first_order,
    random_game,
    random_marginal,
    random_posteriors,
    random_prior,
)
from mbce.implementation import is_bayes_plausible

F = Fraction


class TestXorShift:
    def test_reference_stream_seed_one(self):
        # Classic published values for the (13, 7, 17) triple from state 1.
        rng = XorShift64(1)
        assert [rng.next_raw() for _ in range(4)] == [
            1082269761,
            1152992998833853505,
            11177516664432764457,
            17678023832001937445,
        ]

    def test_zero_seed_remapped(self):
        assert XorShift64(0).next_raw() == XorShift64(0x9E3779B97F4A7C15).next_raw()
        assert XorShift64(0).state != 0

    def test_same_seed_same_stream(self):
        a, b = XorShift64(99), XorShift64(99)
        assert [a.randint(-5, 5) for _ in range(50)] == [
            b.randint(-5, 5) for _ in range(50)
        ]

    def test_randint_bounds_and_coverage(self):
        rng = XorShift64(3)
        draws = [rng.randint(2, 4) for _ in range(200)]
        assert set(draws) == {2, 3, 4}

    def test_randint_refuses_an_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            XorShift64(3).randint(2, 1)

    def test_choice_picks_members(self):
        rng = XorShift64(5)
        pool = ("x", "y", "z")
        assert set(rng.choice(pool) for _ in range(60)) == set(pool)


class TestGeneratorInputs:
    @pytest.mark.parametrize(
        "inputs",
        [
            {"n": -1},
            {"seed": "1"},
            {"max_states": 1},
            {"max_actions": 0},
            {"max_actions": True},
        ],
    )
    def test_out_of_range_or_non_integer_refused(self, inputs):
        with pytest.raises(InvalidGeneratorInput, match="must be integers"):
            check_generator_inputs(**inputs)

    def test_smallest_sizes_accepted(self):
        check_generator_inputs(n=0, seed=-5, max_states=2, max_actions=2)

    def test_compare_routes_refuses_before_drawing(self):
        with pytest.raises(InvalidGeneratorInput, match="max_states=1"):
            compare_routes(3, 1, 1, 3)


class TestInstances:
    def test_random_game_is_valid_and_in_range(self):
        rng = XorShift64(11)
        for _ in range(30):
            game = random_game(rng, max_states=4, max_actions=4)
            validate_game(game)
            assert 2 <= game.n_states <= 4
            assert 2 <= game.n_actions <= 4

    def test_random_marginal_is_distribution(self):
        rng = XorShift64(12)
        for n in (2, 3, 4):
            for _ in range(20):
                validate_marginal(random_marginal(rng, n), n)

    def test_random_direction_nonzero(self):
        rng = XorShift64(13)
        for _ in range(40):
            assert any(random_direction(rng, 3))

    def test_random_posteriors_bayes_plausible(self):
        rng = XorShift64(14)
        for _ in range(40):
            prior = random_prior(rng, rng.randint(2, 4))
            tau = random_posteriors(rng, prior)
            assert is_bayes_plausible(tau, prior)
            assert len(set(tau.support)) == tau.size

    def test_consistent_marginal_is_consistent(self):
        rng = XorShift64(15)
        for _ in range(15):
            game = random_game(rng, max_states=3, max_actions=3)
            nu = consistent_marginal(rng, game)
            assert check_bce_consistent(game, nu).consistent

    def test_inconsistent_marginal_is_inconsistent_or_none(self):
        rng = XorShift64(16)
        found = 0
        for _ in range(15):
            game = random_game(rng, max_states=3, max_actions=3)
            nu = inconsistent_marginal(rng, game)
            if nu is not None:
                found += 1
                assert not check_bce_consistent(game, nu).consistent
        assert found > 0

    def test_random_first_order_within_caps(self):
        rng = XorShift64(17)
        for _ in range(20):
            fo = random_first_order(rng)
            assert 1 <= fo.n_players <= 2
            assert all(p.n_actions <= 3 for p in fo.players)


class TestRings:
    def test_consistent_rings_pass_check(self):
        rng = XorShift64(18)
        for _ in range(10):
            ring, profile = random_consistent_ring(rng)
            verdict = check_ring(ring, profile)
            assert verdict.consistent

    def test_corruption_fails_at_reported_stage(self):
        rng = XorShift64(19)
        corrupted = 0
        for _ in range(15):
            ring, profile = random_consistent_ring(rng)
            result = corrupt_ring_profile(rng, ring, profile)
            if result is None:
                continue
            corrupted += 1
            bad_profile, stage = result
            verdict = check_ring(ring, bad_profile)
            assert not verdict.consistent
            assert verdict.failing_stage == stage
        assert corrupted >= 10
