"""Named, reproducible random streams.

Different components of the simulation (the latency model, each workload
generator, failure injection) must not share a single RNG: consuming a random
number in one component would otherwise perturb every other component and make
seeds fragile.  :class:`RandomStreams` derives an independent
:class:`numpy.random.Generator` per *named* stream from a single root seed
using NumPy's ``SeedSequence.spawn`` machinery, so

* the same root seed always yields the same per-stream sequences, and
* adding a new stream never changes existing streams' draws.

A stream's seed sequence is a pure function of ``(root seed, name)``, and a
campaign builds hundreds of runtimes on one seed, so the derivation is
memoised process-wide (:func:`_derive_once`).  Two rules keep the memo
invisible: a registry without a seed draws fresh entropy and never consults
it, and no run is handed the memo's own sequence — ``Generator.spawn``
advances the sequence it came from, so every stream starts from a copy.
"""

from __future__ import annotations

import copy
import functools
from typing import Dict, Optional

import numpy as np


def _derive(entropy: int, name: str) -> np.random.SeedSequence:
    """The seed sequence of stream *name* under root *entropy*.

    The name's code points are the child's spawn key (``map``, not a
    comprehension: no Python frame on the per-event path's first draw).
    """
    return np.random.SeedSequence(entropy=entropy, spawn_key=tuple(map(ord, name)))


#: :func:`_derive` for a seeded registry, derived once per process per
#: ``(seed, name)``.  Callers copy what it returns (see the module docstring).
_derive_once = functools.lru_cache(maxsize=1024, typed=True)(_derive)


class RandomStreams:
    """A registry of named, independently seeded NumPy generators."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*.

        The generator for a given ``(root seed, name)`` pair is always the
        same sequence, regardless of creation order of other streams.
        """
        stream = self._streams.get(name)
        if stream is None:
            if not isinstance(name, str) or not name:
                raise TypeError(f"stream name must be a non-empty string, got {name!r}")
            if self._seed is None:
                child = _derive(self._root.entropy, name)
            else:
                child = copy.copy(_derive_once(self._seed, name))
            stream = self._streams[name] = np.random.default_rng(child)
        return stream

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw one uniform sample in ``[low, high)`` from stream *name*."""
        if high < low:
            raise ValueError(f"uniform bounds reversed: [{low}, {high})")
        # The draw ``Generator.uniform(low, high)`` makes, bit for bit, without
        # its per-call scalar-argument handling.
        stream = self._streams.get(name) or self.stream(name)
        return float(low + (high - low) * stream.random())

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential sample with the given *mean* from stream *name*."""
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)`` from stream *name*."""
        return int(self.stream(name).integers(low, high))

    def choice(self, name: str, options):
        """Pick one element of *options* uniformly from stream *name*."""
        options = list(options)
        if not options:
            raise ValueError("choice() requires a non-empty sequence")
        index = int(self.stream(name).integers(0, len(options)))
        return options[index]

    def names(self):
        """Return the names of streams created so far."""
        return sorted(self._streams)
