"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rngs


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(123).random(5)
        b = as_rng(123).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_rng(1).random(5)
        b = as_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        gen = as_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_are_independent(self):
        children = spawn_rngs(0, 3)
        draws = [c.random(4) for c in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_deterministic_given_seed(self):
        a = [g.random(3) for g in spawn_rngs(9, 2)]
        b = [g.random(3) for g in spawn_rngs(9, 2)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

