"""Round-trip tests for the posting-list codec's varint streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from search_ingest_ray.codec import decode_varint, encode_varint


def test_varint_roundtrip_edges():
    v = np.array([0, 1, 127, 128, 16383, 16384, 2**32 - 1, 2**63 - 1, 2**64 - 1],
                 dtype=np.uint64)
    assert np.array_equal(decode_varint(encode_varint(v)), v)


def test_varint_empty():
    assert encode_varint(np.empty(0, dtype=np.uint64)) == b""
    assert decode_varint(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300))
def test_varint_roundtrip_property(vals):
    v = np.array(vals, dtype=np.uint64)
    assert np.array_equal(decode_varint(encode_varint(v)), v)
