"""Deterministic derivation of independent random streams.

Every stochastic component takes its randomness from a stream derived from
a master seed plus a path of labels, e.g. ``substream(seed, "rep", 3,
"study", 7, "noise")``.  Streams with different paths are statistically
independent, and the same (seed, path) pair always yields the same stream,
regardless of how many other streams were created before it.  This is what
makes replications parallelizable without losing bit-level reproducibility.

Each part is a 64-bit value: an integer in [0, 2**64) as it is, a label as
the first 8 bytes of its BLAKE2s hash (computed once per label).  An integer
outside that range, or a part that is neither an integer (numpy integers
are; a ``bool`` is not) nor a string, such as the float 1.9, raises
``ValueError``, so no two seeds share a stream.  A stream is numpy's PCG64
seeded by the ``SeedSequence`` of the values' 32-bit words, each value
giving its low word, then its high word when that is non-zero.  That is
numpy's own coercion of a list of Python ints (``[0]`` for 0), which it does
one int at a time; a ``uint32`` array skips it and gives the same streams.

:func:`stream_states` derives the seeds of many streams at once, and
:func:`stream` builds the ``Generator`` of one when it is drawn from.  That
runs ``SeedSequence``'s mixing, a fixed sequence of 32-bit multiply, xor and
shift steps, as ``uint32`` array operations over all the streams, so every
stream is numpy's own, bit for bit.  :func:`substream` is the one-path case.
"""

from __future__ import annotations

import functools
import hashlib
import operator

import numpy as np

_WORD = (1 << 32) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx), its pool
# size and the PCG64 seed it generates: 4 uint64 values, 8 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_STATE_WORDS = 8


@functools.cache
def _label_value(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _encode(part: int | str) -> int:
    """The 64-bit value of one seed or path part."""
    if isinstance(part, str):
        return _label_value(part)
    try:
        value = operator.index(None if isinstance(part, bool) else part)
    except TypeError:
        raise ValueError(
            f"a seed or path part must be an integer or a string, got {part!r}") from None
    if not 0 <= value < 1 << 64:
        raise ValueError(f"a seed or path integer must be in [0, 2**64), got {value}")
    return value


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for the given seed and path: the
    one-path case of :func:`stream_states`."""
    return stream(stream_states(master_seed, *((part,) for part in path)).reshape(4))


def spawn_seed(master_seed: int, *path: int | str) -> int:
    """Derive a 63-bit integer seed, for components that take a seed field."""
    return int(substream(master_seed, *path).integers(1 << 63))


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init`` and the next ``n`` values of ``hash *= mult`` as a (n + 1, 1)
    ``uint32`` column: the constants of SeedSequence's ``n`` hashes, which do
    not depend on the data."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & _WORD)
    column = np.array(values, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``value`` with each of ``len(constants) - 1``
    consecutive hash constants, one output row per constant."""
    out = value ^ constants[:-1]
    out *= constants[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``, computed in place in ``x`` and ``y``."""
    x *= _MIX_MULT_L
    y *= _MIX_MULT_R
    x -= y
    x ^= x >> 16
    return x


def _pcg64_seeds(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for the n columns
    of ``words`` (L, n), L >= 4, each column one stream's entropy.

    The steps are ``mix_entropy``'s and ``generate_state``'s in numpy's
    order: hash the first 4 words into the pool; mix every pool word into
    every other; mix each further word into each pool word; hash the pool,
    cycled, into 8 words, paired low word first into 4 ``uint64`` values.
    Entropy under 4 words is the same as zero-padded to 4.
    """
    n_words = words.shape[0]
    extra = n_words - _POOL
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    pool = _hashmix(words[:_POOL], consts[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k:k + _POOL]))
        k += _POOL - 1
    if extra:
        hashed = _hashmix(np.repeat(words[_POOL:], _POOL, axis=0), consts[k:])
        for i in range(0, hashed.shape[0], _POOL):
            pool = _mix(pool, hashed[i:i + _POOL])
    cycled = pool[np.arange(_STATE_WORDS) % _POOL]
    state = _hashmix(cycled, _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def stream_states(master_seed: int, *axes) -> np.ndarray:
    """The PCG64 seeds of the stream of ``(master_seed, *path)`` for every path
    in ``itertools.product(*axes)``, as a ``uint64`` array of shape
    ``(*map(len, axes), 4)``; :func:`stream` builds the Generator of one.

    A fixed part of the paths is an axis of one, e.g. ``stream_states(seed,
    ("tree",), range(100))``.  Each part of an axis is encoded once, and
    paths whose parts have the same word counts (a part of 0 gives one word,
    a part of 2**32 or more two, a label one or two) are mixed together.  A
    bad part raises ``ValueError`` (see :func:`_encode`).
    """
    axes = ((master_seed,), *axes)
    shape = tuple(len(axis) for axis in axes)
    values = np.array([_encode(part) for axis in axes for part in axis], dtype=np.uint64)
    offsets = np.cumsum((0, *shape[:-1]))[:, None]
    values = values[np.indices(shape).reshape(len(shape), -1) + offsets]
    # The (low, high) word rows of each part, and a row of zeros.
    slots = np.stack([values & _WORD, values >> 32], axis=1).astype(np.uint32)
    slots = np.vstack([slots.reshape(2 * len(shape), -1), np.zeros_like(slots[:1, 0])])
    has_high = slots[1:-1:2] != 0
    states = np.empty((values.shape[1], 4), dtype=np.uint64)
    # Paths whose parts have the same word counts share one word layout: each
    # part's low word, then its high word when that is non-zero, then zeros
    # (the last slot row) up to 4 words.
    left = np.arange(values.shape[1])
    while left.size:
        layout = has_high[:, left[0]]
        same = (has_high[:, left] == layout[:, None]).all(axis=0)
        rows = [r for j, high in enumerate(layout) for r in (2 * j, 2 * j + 1)[:1 + high]]
        rows += [-1] * (_POOL - len(rows))
        states[left[same]] = _pcg64_seeds(slots[rows][:, left[same]])
        left = left[~same]
    return states.reshape(*shape[1:], 4)


@functools.cache
def _seeded_type() -> type:
    """A seed sequence whose PCG64 seed is already generated, defined on first
    use so that importing this module does not load ``numpy.random``."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            # PCG64 reads the seed's memory as it lies.
            self.state = np.ascontiguousarray(state, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seeded


def stream(state: np.ndarray) -> np.random.Generator:
    """The ``Generator`` of one row of :func:`stream_states`: bit for bit
    ``Generator(PCG64(SeedSequence(entropy)))`` for that row's entropy words."""
    return np.random.Generator(np.random.PCG64(_seeded_type()(state)))
