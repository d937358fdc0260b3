"""Deterministic derivation of independent random streams.

Every stochastic component takes its randomness from a stream derived from
a master seed plus a path of labels, e.g. ``substream(seed, "rep", 3,
"study", 7, "noise")``.  Streams with different paths are statistically
independent, and the same (seed, path) pair always yields the same stream,
regardless of how many other streams were created before it.  This is what
makes replications parallelizable without losing bit-level reproducibility.

Each part is a 64-bit value: an integer in [0, 2**64) as it is, a label as
the first 8 bytes of its BLAKE2s hash.  An integer outside that range
raises ``ValueError``, so no two seeds share a stream.  The entropy handed
to ``SeedSequence`` is the values' 32-bit words, each value giving its low
word, then its high word when that is non-zero.  That is numpy's own
coercion of a list of Python ints (``[0]`` for 0), which it does one int
at a time; a ``uint32`` array skips it and gives the same streams.
"""

from __future__ import annotations

import hashlib

import numpy as np

_WORD = (1 << 32) - 1


def _encode(part: int | str) -> int:
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    value = int(part)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"a seed or path integer must be in [0, 2**64), got {value}")
    return value


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for the given seed and path."""
    words = []
    for part in (master_seed, *path):
        value = _encode(part)
        words.append(value & _WORD)
        if value >> 32:
            words.append(value >> 32)
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(entropy))


def spawn_seed(master_seed: int, *path: int | str) -> int:
    """Derive a 63-bit integer seed, for components that take a seed field."""
    return int(substream(master_seed, *path).integers(1 << 63))
