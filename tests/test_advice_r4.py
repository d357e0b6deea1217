"""Round-4 ADVICE regression tests: null/missing-docvalue alignment in
terms_set and distance_feature, composite-agg null keys, and the
frame_sample_batch non-strict corrupt-payload contract.

Each test reproduces the exact failure the round-3 advisor demonstrated
(ValueError / lexsort shape mismatch / TypeError / unguarded raise) and
asserts the ES-consistent behavior: docs missing the field are excluded,
corrupt media degrades to decoded=False."""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import build_index
from search_ingest_ray.query.searcher import Searcher
from search_ingest_ray.util import doc_id_hash

# d1 and d3 have NO stars docvalue — the advisor's repro needs >=2
# matched docs missing the msm_field (ValueError path) and exactly one
# surviving value (silent-broadcast path).
ROWS = [
    ("d0", "alpha beta gamma",  1),
    ("d1", "alpha alpha beta",  None),
    ("d2", "beta gamma delta",  2),
    ("d3", "alpha delta",       None),
    ("d4", "alpha beta beta",   1),
    ("d5", "gamma gamma alpha", 3),
]


@pytest.fixture(scope="module")
def null_field_searcher(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("nullidx")
    t = pa.table({
        "url": [r[0] for r in ROWS],
        "text": [r[1] for r in ROWS],
        "stars": pa.array([r[2] for r in ROWS], pa.int64()),
    })
    pq.write_table(t, str(d / "docs.parquet"))
    root = str(d / "idx")
    build_index([str(d / "docs.parquet")], root, analyzer="simple",
                num_term_partitions=2, store_fields=["stars"])
    return Searcher(root)


def _docids(urls):
    return {u: doc_id_hash(u) for u in urls}


def test_terms_set_excludes_docs_missing_msm_field(null_field_searcher):
    s = null_field_searcher
    # "alpha" matches d0,d1,d3,d4,d5 — two of which (d1,d3) miss stars.
    # Pre-fix this raised ValueError (vals shorter than docids).
    out = s.terms_set(["alpha", "beta"], "stars")
    ids = _docids([r[0] for r in ROWS])
    got = dict(zip(out["doc_id"].to_pylist(),
                   out["n_matched"].to_pylist()))
    # expected: docs with stars set and n_matched >= stars
    exp = {}
    for url, text, stars in ROWS:
        n = len({t for t in text.split() if t in ("alpha", "beta")})
        if stars is not None and n and n >= stars:
            exp[ids[url]] = n
    assert got == exp
    assert ids["d1"] not in got and ids["d3"] not in got


def test_terms_set_single_surviving_value_not_broadcast(
        null_field_searcher):
    # Match set where exactly ONE doc has the field: "delta" matches
    # d2 (stars=2) and d3 (null).  Pre-fix numpy broadcast the single
    # value across both docs silently.
    s = null_field_searcher
    out = s.terms_set(["delta", "gamma"], "stars")
    ids = _docids([r[0] for r in ROWS])
    got = dict(zip(out["doc_id"].to_pylist(),
                   out["n_matched"].to_pylist()))
    assert ids["d3"] not in got          # missing field -> excluded
    assert got[ids["d2"]] == 2           # delta+gamma, stars=2 -> kept


def test_distance_feature_skips_docs_missing_field(null_field_searcher):
    s = null_field_searcher
    # "alpha" matches 5 docs, 2 missing stars: pre-fix np.lexsort raised
    # "all keys need to be the same shape".
    out = s.distance_feature(["alpha"], "stars", origin=1, pivot=2, k=10)
    ids = _docids([r[0] for r in ROWS])
    got = dict(zip(out["doc_id"].to_pylist(),
                   out["score_micro"].to_pylist()))
    exp = {}
    for url, text, stars in ROWS:
        if "alpha" in text.split() and stars is not None:
            exp[ids[url]] = 1_000_000 * 2 // (2 + abs(stars - 1))
    assert got == exp


def test_agg_composite_null_keys_dropped(null_field_searcher):
    s = null_field_searcher
    full = s.agg_composite(["alpha"], ["stars"], size=10)
    keys = full["stars"].to_pylist()
    assert None not in keys
    assert keys == sorted(keys)
    # buckets: stars=1 (d0,d4), stars=3 (d5); d1/d3 nulls dropped
    assert dict(zip(keys, full["n"].to_pylist())) == {1: 2, 3: 1}
    # after-cursor over the same data: pre-fix `col > av` hit a None and
    # raised TypeError.
    page = s.agg_composite(["alpha"], ["stars"], size=10, after=(1,))
    assert page["stars"].to_pylist() == [3]
    assert page["n"].to_pylist() == [1]


def test_frame_sample_corrupt_png_falls_back_when_not_strict(ray_session):
    import ray

    from search_ingest_ray.functions.imagecodec import encode_png
    from search_ingest_ray.functions.multimodal import frame_sample_batch

    good = encode_png(np.full((4, 4, 3), 7, dtype=np.uint8))
    corrupt = good[:20] + b"\x00garbage-not-a-chunk-stream"
    assert corrupt.startswith(b"\x89PNG\r\n\x1a\n")

    ds = ray.data.from_arrow(pa.table({
        "media_id": ["ok", "bad"],
        "data": pa.array([good, corrupt], pa.binary()),
    }))
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 2}).to_arrow_refs()
    tbl = pa.concat_tables([ray.get(r) for r in out])
    by_id = {}
    for mid, dec in zip(tbl["media_id"].to_pylist(),
                        tbl["decoded"].to_pylist()):
        by_id.setdefault(mid, set()).add(dec)
    assert by_id["ok"] == {True}
    assert by_id["bad"] == {False}       # fallback rows, not a crash
    # and the fallback features are the documented content-hash shape
    bad_feats = [f for mid, f in zip(tbl["media_id"].to_pylist(),
                                     tbl["feature"].to_pylist())
                 if mid == "bad"]
    h = hashlib.blake2b(corrupt + (0).to_bytes(4, "big"),
                        digest_size=8).digest()
    assert bad_feats[0] == list(
        np.frombuffer(h, dtype=np.uint8).astype(np.float32))


def test_frame_sample_corrupt_png_raises_when_strict():
    from search_ingest_ray.functions.imagecodec import encode_png
    from search_ingest_ray.functions.multimodal import frame_sample_batch

    good = encode_png(np.full((4, 4, 3), 7, dtype=np.uint8))
    corrupt = good[:20] + b"\x00garbage-not-a-chunk-stream"
    batch = pa.table({"media_id": ["bad"],
                      "data": pa.array([corrupt], pa.binary())})
    with pytest.raises(Exception):
        frame_sample_batch(batch, strict=True, frames=2)
