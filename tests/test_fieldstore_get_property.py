"""Property tests for :meth:`FieldStore.get` on a docid-sharded sidecar.

Every column comes back in its stored Arrow type — an int64 column with
nulls stays int64 — and a value is null exactly where it is missing: a
null in the sidecar or a docid the store does not hold.  Present,
absent, repeated and empty docid requests are all checked, across one to
three docid-range shards and two chunks.
"""

import json
import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import given, settings, strategies as st

from search_ingest_ray.query.fields import FieldStore

TYPES = {"stars": pa.int64(), "lang": pa.string(), "ts": pa.timestamp("us")}

row = st.fixed_dictionaries({
    "stars": st.one_of(st.none(), st.integers(-2**62, 2**62)),
    "lang": st.one_of(st.none(), st.text(max_size=3)),
    "ts": st.one_of(st.none(), st.integers(0, 2**50)),
})


def _write_sidecar(root: str, docids: list[int], rows: list[dict],
                   nshards: int, types: dict = TYPES) -> None:
    """The ``build_index(store_fields=...)`` layout: one file per (chunk,
    docid-range shard), shard = |docid| // width."""
    width = -(-(1 << 63) // nshards)
    for i, (d, r) in enumerate(zip(docids, rows)):
        chunk, shard = i % 2, abs(d) // width
        path = os.path.join(root, "fields", f"chunk={chunk:05d}",
                            f"fshard={shard}", f"part-{i}.parquet")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(pa.table(
            {"docid": pa.array([d], pa.int64()),
             **{c: pa.array([r[c]], t) for c, t in types.items()}}), path)
    os.makedirs(os.path.join(root, "fields"), exist_ok=True)
    with open(os.path.join(root, "fields", "meta.json"), "w") as f:
        json.dump({"field_shards": nshards}, f)


def _plain(col: pa.Array) -> list:
    return (col.cast(pa.int64()) if pa.types.is_timestamp(col.type)
            else col).to_pylist()


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       docids=st.lists(st.integers(-2**62, 2**62), unique=True, min_size=1,
                       max_size=30),
       nshards=st.integers(1, 3))
def test_get_returns_stored_types_and_nulls_exactly_where_missing(
        data, docids, nshards):
    rows = data.draw(st.lists(row, min_size=len(docids),
                              max_size=len(docids)))
    absent = data.draw(st.lists(
        st.integers(-2**62, 2**62).filter(lambda d: d not in docids),
        max_size=5))
    ask = data.draw(st.lists(st.sampled_from(docids + absent),
                             max_size=40))
    stored = dict(zip(docids, rows))
    with tempfile.TemporaryDirectory() as root:
        _write_sidecar(root, docids, rows, nshards)
        fs = FieldStore(root)
        assert fs.field_types == TYPES
        for req in (ask, [], absent):
            got = fs.get(np.asarray(req, dtype=np.int64), list(TYPES))
            assert {c: v.type for c, v in got.items()} == TYPES
            for c in TYPES:
                want = [stored[d][c] if d in stored else None for d in req]
                assert _plain(got[c]) == want, c
        # the filters still see a nulled int column's missing values
        present = np.asarray(docids, dtype=np.int64)
        assert fs.mask(present, {"stars": ("exists",)}).tolist() == \
            [r["stars"] is not None for r in rows]


def test_all_null_chunk_takes_the_type_of_the_others():
    # a chunk whose column is all null may store it with the `null` type;
    # the unified footer type wins, and values from both chunks come back
    with tempfile.TemporaryDirectory() as root:
        _write_sidecar(root, [1, 2], [{"stars": 5}, {"stars": None}], 1,
                       types={"stars": pa.int64()})
        only_null = os.path.join(root, "fields", "chunk=00001", "fshard=0",
                                 "part-1.parquet")
        pq.write_table(pa.table({"docid": pa.array([2], pa.int64()),
                                 "stars": pa.nulls(1)}), only_null)
        fs = FieldStore(root)
        got = fs.get(np.array([2, 1, 3]), ["stars"])["stars"]
        assert got.type == pa.int64()
        assert got.to_pylist() == [None, 5, None]


def test_chunks_of_differing_int_width_come_back_widened():
    with tempfile.TemporaryDirectory() as root:
        _write_sidecar(root, [1], [{"stars": 5}], 1,
                       types={"stars": pa.int64()})
        narrow = os.path.join(root, "fields", "chunk=00001", "fshard=0",
                              "part-1.parquet")
        os.makedirs(os.path.dirname(narrow))
        pq.write_table(pa.table({"docid": pa.array([2], pa.int64()),
                                 "stars": pa.array([7], pa.int32())}),
                       narrow)
        got = FieldStore(root).get(np.array([2, 1]), ["stars"])["stars"]
        assert got.type == pa.int64() and got.to_pylist() == [7, 5]
