"""Random streams: every row of the batch kernel ``stream_states``, and
``substream``, its one-path case, is the stream of numpy's own
``SeedSequence`` of the path's entropy, and a seed or path integer outside
[0, 2**64), or a part that is not an integer or a label, is an error in
both."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catemeta.rng import spawn_seed, stream, stream_states, substream

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def ref(part):
    """A path part as one Python int of the entropy list that
    ``SeedSequence`` coerces to words itself: the reference for the words
    that ``stream_states`` forms."""
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    return int(part) & ((1 << 64) - 1)


def reference_state(seed, path):
    """The PCG64 state of numpy's own stream of ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence([ref(p) for p in (seed, *path)])
                                 ).bit_generator.state


seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
parts = st.one_of(
    st.sampled_from(EDGE_SEEDS),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.sampled_from(["", "rep", "tree", "é", "研究"]),
    st.text(max_size=8),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(seeds, st.lists(parts, max_size=6))
@example(0, [])
@example(1, ["", 0, np.int64(2**32)])
@example(2**32 - 1, [np.uint64(2**64 - 1), "é"])
@example(2**32, ["研究", 2**63, 0])
@example(2**63, [0, 0, 0, 0, 0, 0])
@example(2**64 - 1, ["rep", 3, "study", 7, "noise"])
def test_stream_is_numpys_own_coercion(seed, path):
    assert substream(seed, *path).bit_generator.state == reference_state(seed, path)


# Parts of every word count in one axis: 0 and small integers give one word,
# 2**32 and up two, labels two (or one, if the high half of the hash is 0).
MIXED = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(7), "", "rep", "研究"]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seeds, st.lists(st.lists(parts, min_size=1, max_size=4), max_size=4))
@example(0, [])                               # no tail: one stream of one word
@example(1, [[0, 1], [2]])                    # under 4 words in all
@example(2**64 - 1, [MIXED, ["study"], [0, 2**32]])
@example(7, [["rep"], range(60), ["study"], [1, 2], ["noise"]])  # 120 streams
@example(2**32, [MIXED, MIXED])              # 100 streams, mixed word counts
def test_batch_states_are_substreams(seed, axes):
    states = stream_states(seed, *axes)
    assert states.shape == (*map(len, axes), 4) and states.dtype == np.uint64
    for index in itertools.product(*(range(len(axis)) for axis in axes)):
        path = [axis[i] for axis, i in zip(axes, index)]
        assert stream(states[index]).bit_generator.state == reference_state(seed, path)


def test_stream_takes_a_strided_state():
    # PCG64 reads its seed's memory as it lies; a strided view of the state
    # would seed some other stream.
    states = np.zeros((2, 8), dtype=np.uint64)
    states[:, ::2] = stream_states(3, ["a", "b"])
    for state, label in zip(states[:, ::2], "ab"):
        assert stream(state).bit_generator.state == reference_state(3, [label])


@pytest.mark.parametrize("seed, path", [
    (2**64, ()), (-1, ()), (0, ("tree", -1)), (0, (np.int64(-1),)), (3, ("rep", 2**64 + 3)),
], ids=["seed-2**64", "seed-minus-1", "path-minus-1", "int64-minus-1", "path-2**64+3"])
def test_integer_outside_64_bits_raises(seed, path):
    # These used to be masked to 64 bits, so 2**64 gave the stream of 0
    # and -1 that of 2**64 - 1.
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        substream(seed, *path)
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        spawn_seed(seed, *path)
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        stream_states(seed, *([0, part, "x"] for part in path))


@pytest.mark.parametrize("seed, path", [
    (1.9, ()), (1.0, ()), (0, ("rep", 2.5)), (0, (np.float64(3.0),)), (0, (True,)),
    (False, ()), (0, (np.True_,)),
], ids=["seed-1.9", "seed-1.0", "path-2.5", "float64-path", "path-True", "seed-False",
        "numpy-bool-path"])
def test_non_integer_part_raises(seed, path):
    # These used to be truncated, so 1.9 gave the stream of 1, and True
    # passed as the integer 1.
    with pytest.raises(ValueError, match="must be an integer or a string"):
        substream(seed, *path)
    with pytest.raises(ValueError, match="must be an integer or a string"):
        spawn_seed(seed, *path)
    with pytest.raises(ValueError, match="must be an integer or a string"):
        stream_states(seed, *([0, part, "x"] for part in path))
