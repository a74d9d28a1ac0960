"""Unit tests for named reproducible random streams."""

import numpy as np
import pytest

from repro import DSMRuntime, RuntimeConfig
from repro.sim import rng
from repro.sim.rng import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream_same_draws(self):
        a = RandomStreams(seed=42)
        b = RandomStreams(seed=42)
        assert [a.uniform("net", 0, 1) for _ in range(10)] == [
            b.uniform("net", 0, 1) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1)
        b = RandomStreams(seed=2)
        assert [a.uniform("net", 0, 1) for _ in range(5)] != [
            b.uniform("net", 0, 1) for _ in range(5)
        ]

    def test_streams_are_independent_of_creation_order(self):
        # Drawing from an extra stream first must not change another stream.
        a = RandomStreams(seed=3)
        a.uniform("other", 0, 1)
        from_a = [a.uniform("net", 0, 1) for _ in range(5)]

        b = RandomStreams(seed=3)
        from_b = [b.uniform("net", 0, 1) for _ in range(5)]
        assert from_a == from_b

    def test_different_names_give_different_sequences(self):
        streams = RandomStreams(seed=0)
        xs = [streams.uniform("a", 0, 1) for _ in range(5)]
        ys = [streams.uniform("b", 0, 1) for _ in range(5)]
        assert xs != ys

    def test_uniform_respects_bounds(self):
        streams = RandomStreams(seed=0)
        for _ in range(100):
            value = streams.uniform("bounded", 2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_uniform_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            RandomStreams(0).uniform("x", 3.0, 2.0)

    def test_exponential_positive_and_mean_checked(self):
        streams = RandomStreams(seed=0)
        assert streams.exponential("e", 2.0) >= 0
        with pytest.raises(ValueError):
            streams.exponential("e", 0.0)

    def test_integers_in_range(self):
        streams = RandomStreams(seed=0)
        draws = {streams.integers("i", 0, 4) for _ in range(200)}
        assert draws <= {0, 1, 2, 3}
        assert len(draws) > 1

    def test_choice_picks_from_options(self):
        streams = RandomStreams(seed=0)
        for _ in range(20):
            assert streams.choice("c", ["x", "y", "z"]) in {"x", "y", "z"}

    def test_choice_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomStreams(0).choice("c", [])

    def test_invalid_stream_name_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(0).stream("")

    def test_names_lists_created_streams(self):
        streams = RandomStreams(seed=0)
        streams.stream("zeta")
        streams.stream("alpha")
        assert streams.names() == ["alpha", "zeta"]


class TestUniformIsGeneratorUniform:
    """``uniform`` is NumPy's ``Generator.uniform`` draw, bit for bit.

    It computes ``low + (high - low) * random()`` itself to skip NumPy's
    scalar-argument handling; every recorded digest depends on the two being
    the same double, so the identity is pinned here rather than assumed.
    """

    BOUNDS = [
        (0.5, 1.5),        # UniformLatency's defaults
        (0.0, 0.037),      # a LogGP jitter window
        (0.1, 10.0),
        (1e-9, 3.3e7),
        (-3.5, 7.25),
        (2.0, 2.0),        # degenerate
        (0, 1),            # ints in, float out
    ]

    @pytest.mark.parametrize("low, high", BOUNDS)
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_identical_over_ten_thousand_draws(self, seed, low, high):
        streams = RandomStreams(seed)
        reference = RandomStreams(seed).stream("net.latency")
        for _ in range(10_000):
            drawn = streams.uniform("net.latency", low, high)
            assert type(drawn) is float
            assert drawn == float(reference.uniform(low, high))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_identical_with_other_draws_interleaved(self, seed):
        streams = RandomStreams(seed)
        reference = RandomStreams(seed).stream("mixed")
        for index in range(10_000):
            low, high = self.BOUNDS[index % len(self.BOUNDS)]
            assert streams.uniform("mixed", low, high) == float(reference.uniform(low, high))
            if index % 3 == 0:
                assert streams.integers("mixed", 0, 97) == int(reference.integers(0, 97))
            if index % 5 == 0:
                assert streams.exponential("mixed", 2.5) == float(reference.exponential(2.5))

    def test_numpy_bounds_still_give_a_python_float(self):
        import numpy as np

        drawn = RandomStreams(0).uniform("x", np.float64(0.5), np.float64(1.5))
        assert type(drawn) is float
        assert drawn == float(RandomStreams(0).stream("x").uniform(0.5, 1.5))

    def test_a_failed_draw_leaves_the_stream_where_it_was(self):
        streams = RandomStreams(3)
        with pytest.raises(ValueError):
            streams.uniform("x", 3.0, 2.0)
        assert streams.uniform("x", 0.0, 1.0) == RandomStreams(3).uniform("x", 0.0, 1.0)


class TestTheProcessWideDerivation:
    """A seeded stream's sequence is derived once per process; no run can tell."""

    @staticmethod
    def from_scratch(seed, name):
        """The derivation as written before the memo: no cache, no copy."""
        child = np.random.SeedSequence(entropy=seed, spawn_key=tuple(ord(c) for c in name))
        return np.random.default_rng(child)

    @pytest.mark.parametrize("seed", [0, 1, 2**70])
    def test_a_derived_stream_draws_what_a_fresh_derivation_draws(self, seed):
        rng._derive_once.cache_clear()
        for _ in range(2):  # a miss, then a hit
            drawn = RandomStreams(seed).stream("net.latency").random(8)
            assert drawn.tolist() == self.from_scratch(seed, "net.latency").random(8).tolist()
        assert rng._derive_once.cache_info().misses == 1

    def test_unseeded_runtimes_draw_different_latencies(self):
        def latencies():
            runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=None, latency="uniform"))
            return [runtime.sim.rng.uniform("net.latency", 0.5, 1.5) for _ in range(4)]

        before = rng._derive_once.cache_info()
        assert latencies() != latencies()
        after = rng._derive_once.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_a_spawn_in_one_runtime_does_not_reach_the_next(self):
        # ``Generator.spawn`` advances the sequence it came from: were the
        # memo's sequence handed out, the second runtime's child would differ.
        def spawned_draws():
            runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=7))
            (child,) = runtime.api(0).random_stream("pattern.spawned").spawn(1)
            return child.random(3).tolist()

        first = spawned_draws()
        assert spawned_draws() == first
