"""Shard layout + sequence packing vs SQL / naive references."""

import duckdb
import numpy as np
import pyarrow as pa
import ray.data as rd

from search_ingest_ray.functions.packing import pack_sequences, shard_plan


def _tbl(n=300):
    rng = np.random.default_rng(17)
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64) * 7 + 3),
        "n_tokens": pa.array(rng.integers(1, 900, n).astype(np.int64)),
    })


def test_shard_plan_matches_sql_and_block_invariant(ray_session):
    tbl = _tbl()
    want = duckdb.sql("""
        WITH h AS (
          SELECT doc_id, n_tokens,
                 md5_number_lower('s' || CAST(doc_id AS VARCHAR))
                   % 9223372036854775808 AS h
          FROM tbl)
        SELECT doc_id, CAST(h % 8 AS BIGINT) AS shard,
               CAST(row_number() OVER (PARTITION BY h % 8 ORDER BY h,
                    doc_id) - 1 AS BIGINT) AS pos
        FROM h ORDER BY doc_id""").fetchall()
    for blocks in (1, 9):
        out = shard_plan(rd.from_arrow(tbl).repartition(blocks), 8,
                         salt="s").take_all()
        got = sorted((r["doc_id"], r["shard"], r["pos"]) for r in out)
        assert got == [tuple(r) for r in want]
    shards = {r[1] for r in want}
    assert len(shards) == 8  # every shard populated


def _naive_pack(rows, max_tokens):
    """rows: (doc_id, n_tokens) already in shard order."""
    out, b, used = [], 0, 0
    for did, nt in rows:
        if used > 0 and used + nt > max_tokens:
            b, used = b + 1, 0
        out.append((did, b, used))
        used += nt
        if used >= max_tokens:
            b, used = b + 1, 0
    return out


def test_pack_sequences_matches_naive_reference(ray_session):
    tbl = _tbl()
    L = 2048
    out = pack_sequences(rd.from_arrow(tbl).repartition(5), L, nshards=4,
                         salt="p").take_all()
    got = {r["doc_id"]: (r["shard"], r["block"], r["offset"])
           for r in out}
    # rebuild each shard's hash order with DuckDB, pack naively
    order = duckdb.sql("""
        SELECT doc_id, n_tokens,
               CAST(md5_number_lower('p' || CAST(doc_id AS VARCHAR))
                    % 9223372036854775808 % 4 AS BIGINT) AS shard
        FROM tbl
        ORDER BY shard,
                 md5_number_lower('p' || CAST(doc_id AS VARCHAR))
                   % 9223372036854775808, doc_id""").fetchall()
    for s in range(4):
        rows = [(d, n) for d, n, sh in order if sh == s]
        for did, b, off in _naive_pack(rows, L):
            assert got[did] == (s, b, off), did
    assert len(got) == tbl.num_rows


def test_pack_sequences_oversized_doc_gets_own_block(ray_session):
    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "n_tokens": pa.array([5000, 10, 20], pa.int64())})
    out = pack_sequences(rd.from_arrow(tbl), 1024, nshards=1).take_all()
    by_id = {r["doc_id"]: r for r in out}
    big = by_id[1]
    assert big["offset"] == 0
    others = [r for r in out if r["doc_id"] != 1]
    # the oversized doc is ALONE in its block (greedy packing never
    # reorders around it), and small docs open their blocks at offset 0
    assert all(r["block"] != big["block"] for r in others)
    assert all(r["offset"] == 0 or r["offset"] in (10, 20)
               for r in others)


def test_pack_invariants(ray_session):
    """Structural invariants, any hash order: per-block fill ≤ L unless
    the block is a single oversized doc; offsets are the within-block
    token cumsum; block ids are consecutive from 0 per shard."""
    tbl = _tbl(200)
    L = 1024
    out = pack_sequences(rd.from_arrow(tbl), L, nshards=3,
                         salt="inv").take_all()
    lens = dict(zip(tbl["doc_id"].to_pylist(),
                    tbl["n_tokens"].to_pylist()))
    from collections import defaultdict
    blocks = defaultdict(list)
    for r in out:
        blocks[(r["shard"], r["block"])].append(
            (r["offset"], lens[r["doc_id"]]))
    per_shard = defaultdict(set)
    for (s, b), docs in blocks.items():
        per_shard[s].add(b)
        docs.sort()
        total = sum(n for _, n in docs)
        assert total <= L or len(docs) == 1
        run = 0
        for off, n in docs:
            assert off == run
            run += n
    for s, bs in per_shard.items():
        assert bs == set(range(len(bs))), s


def test_chunk_plan_batch_edges():
    import numpy as np
    import pyarrow as pa

    from search_ingest_ray.functions.packing import chunk_plan_batch
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        # 0 tokens → no chunks; 5 < stride → one short chunk; exact
        # multiple; one over; long doc
        "n_tokens": pa.array([0, 5, 96, 97, 300], pa.int64()),
    })
    out = chunk_plan_batch(batch, max_tokens=128, stride=96)
    rows = list(zip(out["doc_id"].to_pylist(), out["chunk_idx"].to_pylist(),
                    out["start_tok"].to_pylist(), out["n_toks"].to_pylist()))
    want = [
        (2, 0, 0, 5),
        (3, 0, 0, 96),
        (4, 0, 0, 97), (4, 1, 96, 1),
        (5, 0, 0, 128), (5, 1, 96, 128), (5, 2, 192, 108),
        (5, 3, 288, 12),
    ]
    assert rows == want
    # every token of every doc is covered by at least one chunk
    for did, n in zip((2, 3, 4, 5), (5, 96, 97, 300)):
        cov = set()
        for d, _, s, k in rows:
            if d == did:
                cov.update(range(s, s + k))
        assert cov == set(range(n)), did
    # all-empty batch
    empty = chunk_plan_batch(pa.table({
        "doc_id": pa.array([9], pa.int64()),
        "n_tokens": pa.array([0], pa.int64())}), max_tokens=8, stride=8)
    assert empty.num_rows == 0
    # a string key under another name keeps its name and type
    urls = chunk_plan_batch(pa.table({
        "url": pa.array(["u/a", "u/b", "u/c"], pa.string()),
        "n_tokens": pa.array([0, 5, 300], pa.int64())}),
        max_tokens=128, stride=96, key_col="url")
    assert urls.schema.field("url").type == pa.string()
    assert "doc_id" not in urls.column_names
    assert list(zip(urls["url"].to_pylist(),
                    urls["chunk_idx"].to_pylist(),
                    urls["start_tok"].to_pylist(),
                    urls["n_toks"].to_pylist())) == [
        ("u/b", 0, 0, 5),
        ("u/c", 0, 0, 128), ("u/c", 1, 96, 128), ("u/c", 2, 192, 108),
        ("u/c", 3, 288, 12),
    ]
    empty_urls = chunk_plan_batch(pa.table({
        "url": pa.array(["u/z"], pa.string()),
        "n_tokens": pa.array([0], pa.int64())}),
        max_tokens=8, stride=8, key_col="url")
    assert empty_urls.num_rows == 0
    assert empty_urls.schema == urls.schema
