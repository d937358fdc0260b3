"""Random streams: ``substream`` forms numpy's own entropy words, and a seed
or path integer outside [0, 2**64) is an error."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catemeta.rng import spawn_seed, substream

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def ref(part):
    """A path part as one Python int of the entropy list that
    ``SeedSequence`` coerces to words itself: the reference for the words
    that ``substream`` forms."""
    if isinstance(part, str):
        digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    return int(part) & ((1 << 64) - 1)


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
    expected = np.random.default_rng(np.random.SeedSequence([ref(p) for p in (seed, *path)]))
    assert substream(seed, *path).bit_generator.state == expected.bit_generator.state


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
