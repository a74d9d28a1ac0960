"""``RandomStreams`` draws what plain generators draw, whatever the interleaving.

``RandomStreams.uniform`` serves its doubles from a block drawn ahead, and
every raw hand-out of a generator first rewinds it to where scalar draws
would have left it (``repro.sim.rng``'s module docstring).  The property
here holds the registry to a reference that knows nothing of blocks: one
plain ``numpy.random.Generator`` per name, built from the same derived seed
sequence and drawn one scalar at a time.  Any interleaving of ``uniform``,
``integers``, ``exponential``, ``choice`` and ``stream(name).random()``, on
shared and separate names, must give equal values call for call.

Tier-1 runs the property at Hypothesis' default example count; the nightly
job runs it with ``--hypothesis-profile=nightly``.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.net.latency import UniformLatency
from repro.sim import rng
from repro.sim.rng import RandomStreams

NAMES = ("net.latency", "workload")
SEEDS = (0, 1, 2**40 + 3)

#: One call on the registry: ``(kind, name, run length)``.  A ``uniform``
#: run may span several blocks, so a handful of runs crosses two refills.
_OPS = st.tuples(
    st.sampled_from(("uniform", "integers", "exponential", "choice", "raw")),
    st.sampled_from(NAMES),
    st.integers(min_value=1, max_value=3 * rng._BLOCK),
)


def reference(seed, name):
    """The generator of stream *name*, derived from scratch, drawn scalar."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=tuple(map(ord, name)))
    return np.random.default_rng(sequence)


def has_no_block(streams, name):
    """No outstanding block: the stream's one block list, if any, is empty."""
    return not streams._blocks.get(name) and name not in streams._block_starts


def replay(seed, ops):
    """Run *ops* on a registry and on the references, comparing every draw."""
    streams = RandomStreams(seed)
    references = {name: reference(seed, name) for name in NAMES}
    for kind, name, count in ops:
        ref = references[name]
        if kind == "uniform":
            for _ in range(count):
                assert streams.uniform(name, 0.5, 1.5) == float(ref.uniform(0.5, 1.5))
        elif kind == "integers":
            assert streams.integers(name, 0, count + 1) == int(ref.integers(0, count + 1))
            assert has_no_block(streams, name)
        elif kind == "exponential":
            assert streams.exponential(name, count) == float(ref.exponential(count))
            assert has_no_block(streams, name)
        elif kind == "choice":
            options = list(range(count))
            assert streams.choice(name, options) == options[int(ref.integers(0, count))]
            assert has_no_block(streams, name)
        else:
            assert streams.stream(name).random() == ref.random()
            assert has_no_block(streams, name)
    # Whatever happened, a raw hand-out now stands where the reference does.
    for name in NAMES:
        assert streams.stream(name).random(4).tolist() == references[name].random(4).tolist()
        assert has_no_block(streams, name)


@settings(deadline=None)
@given(seed=st.sampled_from(SEEDS), ops=st.lists(_OPS, max_size=12))
@example(  # the 32-bit buffer: ``integers`` before the first ``uniform`` and after it
    seed=0,
    ops=[
        ("integers", "net.latency", 96),
        ("uniform", "net.latency", 1),
        ("integers", "net.latency", 96),
        ("uniform", "net.latency", 2 * rng._BLOCK + 1),
    ],
)
@example(  # two refills, then a raw hand-out rewinds into the third block
    seed=1,
    ops=[
        ("uniform", "net.latency", 2 * rng._BLOCK + 5),
        ("uniform", "workload", 3),
        ("raw", "net.latency", 1),
        ("uniform", "net.latency", rng._BLOCK),
    ],
)
def test_a_registry_draws_what_plain_generators_draw(seed, ops):
    replay(seed, ops)


def test_a_uniform_only_stream_crosses_refills_on_blocks():
    streams = RandomStreams(5)
    ref = reference(5, "net.latency")
    for _ in range(2 * rng._BLOCK + 1):
        assert streams.uniform("net.latency", 0.0, 1.0) == ref.random()
    # The third block is outstanding, one double into it.
    assert len(streams._blocks["net.latency"]) == rng._BLOCK - 1
    assert "net.latency" not in streams._raw


def test_a_stream_handed_out_raw_draws_scalar_uniforms_from_then_on():
    streams = RandomStreams(5)
    streams.uniform("mixed", 0.0, 1.0)
    held = streams.stream("mixed")
    assert has_no_block(streams, "mixed")
    ref = reference(5, "mixed")
    ref.random()
    for _ in range(3):
        assert streams.uniform("mixed", 0.0, 1.0) == ref.random()
        assert has_no_block(streams, "mixed")
        assert held.random() == ref.random()


def test_a_latency_model_holding_the_block_draws_what_scalar_draws_draw():
    # ``UniformLatency`` pops one-hop draws off the stream's live block list
    # itself; across a refill and a raw hand-out it still draws, call for
    # call, what scalar ``Generator.uniform`` draws do.
    streams = RandomStreams(3)
    model = UniformLatency(streams, low=0.5, high=1.5)
    ref = reference(3, "net.latency")
    for _ in range(rng._BLOCK + 7):  # one refill
        assert model.latency(None) == float(ref.uniform(0.5, 1.5))
    assert model.latency(None, hops=2) == float(ref.uniform(0.5, 1.5)) + float(
        ref.uniform(0.5, 1.5)
    )
    held = streams.stream("net.latency")  # a raw hand-out empties the block
    assert has_no_block(streams, "net.latency")
    assert held.random() == ref.random()
    for _ in range(3):
        assert model.latency(None) == float(ref.uniform(0.5, 1.5))
        assert held.random() == ref.random()
    assert has_no_block(streams, "net.latency")
