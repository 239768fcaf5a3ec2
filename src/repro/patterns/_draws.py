"""Block draws that consume a PCG64 stream exactly as numpy's scalar calls.

The random test builders and the GA's point and resize mutation draw a few
numbers per cycle.  A scalar ``Generator`` call costs from about 0.6 µs
(``random()``) to 12 µs (``choice`` with ``p``), so they pull the raw
64-bit words of a whole call at once and decode them the way numpy's
scalar calls would have:

* ``random()`` reads one word ``w`` as ``(w >> 11) * 2**-53``;
* ``choice(k, p=p)`` reads one ``random()`` double ``u`` and returns
  ``cdf.searchsorted(u, side="right")`` for the normalized cumsum of ``p``
  (:func:`choice_cdf`);
* ``integers(0, 2**k)`` (``1 <= k <= 32``) reads one 32-bit half ``x`` and
  returns ``(x << k) >> 32``; a power-of-two range never rejects.  The
  halves come low first, high second: a draw on an empty cache takes a
  fresh word and caches its high half (``has_uint32``/``uinteger``), the
  next draw takes the cached half;
* ``integers(0, 2**k)`` (``33 <= k <= 63``) reads one whole word ``w``,
  leaves the cached half alone and returns ``w >> (64 - k)``
  (:func:`bounded_words`).

A builder reads :attr:`WordBlock.words`, works out how many it consumed and
which of them fed 32-bit draws, and commits that: the Generator ends in the
very state, cache included, that the scalar calls would have left.  Point
and resize mutation draw only the words they consume and decode the few
cycles they rewrite as Python ints (``repro.ga.operators``).
``tests/patterns/test_draws.py`` checks the four rules against numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

DOUBLE_SCALE = 2.0 ** -53
_LOW_HALF = np.uint64(0xFFFFFFFF)


def pcg64(rng: np.random.Generator) -> np.random.PCG64:
    """``rng``'s bit generator; block draws decode the PCG64 stream only."""
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(
            "block draws need a PCG64 Generator (np.random.default_rng), "
            f"got a {type(bit_generator).__name__} bit generator"
        )
    return bit_generator


def doubles(words: np.ndarray) -> np.ndarray:
    """The ``random()`` doubles of raw words."""
    return (words >> np.uint64(11)) * DOUBLE_SCALE


def choice_cdf(p: ArrayLike) -> np.ndarray:
    """The normalized cumsum of ``p`` that ``choice(len(p), p=p)`` searches."""
    cdf = np.cumsum(np.asarray(p, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


def bounded(halves: np.ndarray, bits: int) -> np.ndarray:
    """``integers(0, 2**bits)`` of each 32-bit half in ``halves``."""
    if not 1 <= bits <= 32:
        raise ValueError(f"block draws decode 1- to 32-bit ranges, not {bits}")
    return ((halves << np.uint64(bits)) >> np.uint64(32)).astype(np.int64)


def bounded_words(words: np.ndarray, bits: int) -> np.ndarray:
    """``integers(0, 2**bits)`` of each whole word in ``words``, past 32 bits."""
    if not 33 <= bits <= 63:
        raise ValueError(f"whole-word draws decode 33- to 63-bit ranges, not {bits}")
    return (words >> np.uint64(64 - bits)).astype(np.int64)


class WordBlock:
    """The next ``count`` words of a PCG64 Generator, drawn but not consumed.

    :attr:`words` holds the words; :meth:`halves` gives the 32-bit halves
    that a run of ``integers`` calls would read.  Until :meth:`commit` the
    Generator stands after the whole block.
    """

    def __init__(self, rng: np.random.Generator, count: int) -> None:
        self._bit_generator = pcg64(rng)
        self._start = self._bit_generator.state
        self.cached = bool(self._start["has_uint32"])
        self.words = self._bit_generator.random_raw(count)

    def halves(self, positions: ArrayLike) -> np.ndarray:
        """32-bit halves in draw order when the words at ``positions`` feed
        the ``integers`` calls: the cached half first (if any), then the
        low and high half of each word."""
        words = self.words[np.asarray(positions, dtype=np.intp)]
        pairs = np.empty((len(words), 2), dtype=np.uint64)
        pairs[:, 0] = words & _LOW_HALF
        pairs[:, 1] = words >> np.uint64(32)
        flat = pairs.ravel()
        if self.cached:
            flat = np.concatenate(([np.uint64(self._start["uinteger"])], flat))
        return flat

    def commit(
        self, consumed: int, positions: ArrayLike = (), used: int = 0
    ) -> None:
        """Leave the Generator after ``consumed`` words, ``used`` of whose
        :meth:`halves` (fed by the words at ``positions``) were drawn."""
        fresh = np.asarray(positions, dtype=np.intp)
        state = dict(self._start)
        state["has_uint32"] = int(self.cached) + 2 * len(fresh) - used
        if len(fresh):
            state["uinteger"] = int(self.words[fresh[-1]] >> np.uint64(32))
        self._bit_generator.state = state
        self._bit_generator.random_raw(consumed)
