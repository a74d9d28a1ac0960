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

:meth:`RandomStreams.uniform` is the per-message draw of the latency model,
so it serves its doubles from a block drawn ahead (``Generator.random(k)``
yields exactly the doubles ``k`` scalar ``random()`` calls would).  A stream
has one block list for its whole life, refilled and emptied in place, so a
hot caller may hold it (:meth:`RandomStreams.uniform_block`) and pop the next
double in its own frame, asking ``uniform`` only when the list is empty.  The
block is invisible to every other draw, by two rules:

* **Rewind before a raw hand-out.**  :meth:`RandomStreams.stream` — and
  through it ``integers``, ``exponential``, ``choice`` and every caller that
  holds the generator itself — first puts the generator back exactly where
  scalar draws would have left it: the state at block start, advanced by the
  doubles consumed, with the buffered 32-bit half-draw ``integers`` keeps
  restored (``advance`` drops it; ``random`` never touches it).  The block
  list is emptied.
* **Scalar after raw.**  A stream once handed out raw draws its uniforms one
  scalar at a time for the rest of its life: its holder may draw at any
  moment, and a stream that mixes kinds would otherwise rewind and refill at
  every switch.
"""

from __future__ import annotations

import copy
import functools
from typing import Dict, List, Optional

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


#: Doubles drawn ahead per block by :meth:`RandomStreams.uniform`.
_BLOCK = 64


class RandomStreams:
    """A registry of named, independently seeded NumPy generators."""

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: name -> the undrawn rest of its block, next double last; one list
        #: per name, refilled and emptied in place.
        self._blocks: Dict[str, List[float]] = {}
        #: name -> its bit generator's state at the start of that block.
        self._block_starts: Dict[str, dict] = {}
        #: The streams handed out raw: their uniforms are scalar draws from
        #: now on.
        self._raw: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> Optional[int]:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*.

        The generator for a given ``(root seed, name)`` pair is always the
        same sequence, regardless of creation order of other streams.  It is
        handed out exactly where scalar draws would have left it, and *name*
        draws scalar uniforms from then on (see the module docstring).
        """
        stream = self._raw.get(name)
        if stream is None:
            stream = self._streams.get(name)
            if stream is None:
                if not isinstance(name, str) or not name:
                    raise TypeError(f"stream name must be a non-empty string, got {name!r}")
                if self._seed is None:
                    child = _derive(self._root.entropy, name)
                else:
                    child = copy.copy(_derive_once(self._seed, name))
                stream = self._streams[name] = np.random.default_rng(child)
            elif name in self._block_starts:
                self._rewind(name)
            self._raw[name] = stream
        return stream

    def _rewind(self, name: str) -> None:
        """Put *name*'s generator where scalar draws would have left it."""
        start = self._block_starts.pop(name)
        block = self._blocks[name]
        consumed = _BLOCK - len(block)
        block.clear()
        bit_generator = self._streams[name].bit_generator
        bit_generator.state = start
        bit_generator.advance(consumed)
        # ``advance`` drops the buffered 32-bit half-draw of ``integers``,
        # which the block's doubles never touched: put it back.  (Only a
        # stream never handed out raw has a block, so the buffer is empty
        # today; the rewind is exact without leaning on that.)
        state = bit_generator.state
        state["has_uint32"] = start["has_uint32"]
        state["uinteger"] = start["uinteger"]
        bit_generator.state = state

    def uniform_block(self, name: str) -> List[float]:
        """The live list of *name*'s undrawn block doubles, next double last.

        A holder may pop the next double off it and make
        :meth:`uniform`'s arithmetic, ``float(low + (high - low) * drawn)``,
        itself; when the list is empty it asks :meth:`uniform`, which
        refills the list (or, once *name* was handed out raw and the list
        stays empty, draws a scalar).
        """
        block = self._blocks.get(name)
        if block is None:
            block = self._blocks[name] = []
        return block

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw one uniform sample in ``[low, high)`` from stream *name*."""
        if high < low:
            raise ValueError(f"uniform bounds reversed: [{low}, {high})")
        # A raw stream is asked first: it then costs what a scalar draw
        # cost before blocks, and a block pop one lookup more.
        stream = self._raw.get(name)
        if stream is not None:
            drawn = stream.random()
        else:
            block = self._blocks.get(name)
            if block:
                drawn = block.pop()
            else:
                # The next block, drawn here (no frame per refill).  A stream
                # created for it was never handed out: it stays off ``_raw``.
                stream = self._streams.get(name)
                if stream is None:
                    stream = self.stream(name)
                    del self._raw[name]
                self._block_starts[name] = stream.bit_generator.state
                fresh = stream.random(_BLOCK).tolist()
                fresh.reverse()
                if block is None:
                    block = self._blocks[name] = fresh
                else:
                    block.extend(fresh)
                drawn = block.pop()
        # The draw ``Generator.uniform(low, high)`` makes, bit for bit, without
        # its per-call scalar-argument handling.
        return float(low + (high - low) * drawn)

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
