"""Exchange payload diet: spill files ship dictionary-encoded terms,
uint8 salts and no tpart column; `_read_spill` normalizes legacy
(pre-diet) spills so one exchange directory can mix generations across a
resumed build."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc

from search_ingest_ray.index.build import _read_spill


def _write_ipc(path, table):
    with pa.OSFile(path, "wb") as sink:
        with pa.ipc.new_file(sink, table.schema) as w:
            w.write_table(table)


def test_read_spill_normalizes_legacy_and_new(tmp_path):
    # legacy generation: plain string term, int32 salt, redundant tpart
    legacy = pa.table({
        "term": pa.array(["a", "b", "a"], pa.string()),
        "docid": pa.array([1, 2, 3], pa.int64()),
        "tf": pa.array([1, 1, 2], pa.int32()),
        "dl": pa.array([5, 5, 5], pa.int32()),
        "salt": pa.array([0, 0, 0], pa.int32()),
        "tpart": pa.array([7, 7, 7], pa.int32()),
    })
    # diet generation: dictionary term, uint8 salt, no tpart
    diet = pa.table({
        "term": pc.dictionary_encode(pa.array(["b", "c"], pa.string())),
        "docid": pa.array([4, 5], pa.int64()),
        "tf": pa.array([3, 1], pa.int32()),
        "dl": pa.array([6, 6], pa.int32()),
        "salt": pa.array([0, 0], pa.uint8()),
    })
    p1 = str(tmp_path / "legacy.arrow")
    p2 = str(tmp_path / "diet.arrow")
    _write_ipc(p1, legacy)
    _write_ipc(p2, diet)

    t1, t2 = _read_spill(p1), _read_spill(p2)
    # both normalize to the same schema, so the reduce-side concat works
    assert t1.schema == t2.schema
    assert "tpart" not in t1.column_names
    assert pa.types.is_uint8(t1.schema.field("salt").type)
    assert pa.types.is_dictionary(t1.schema.field("term").type)

    group = pa.concat_tables([t1, t2]).combine_chunks()
    col = group.column("term").combine_chunks()
    # unified dictionary is deduplicated — one code per distinct term
    # (duplicate entries would split a term's posting list in two)
    assert sorted(col.dictionary.to_pylist()) == ["a", "b", "c"]
    assert len(col.dictionary) == len(set(col.dictionary.to_pylist()))
    decoded = pc.cast(col, pa.string()).to_pylist()
    assert decoded == ["a", "b", "a", "b", "c"]
    assert group["docid"].to_pylist() == [1, 2, 3, 4, 5]


def test_read_spill_parquet_fallback(tmp_path):
    import pyarrow.parquet as pq
    legacy = pa.table({
        "term": pa.array(["x"], pa.string()),
        "docid": pa.array([9], pa.int64()),
        "tf": pa.array([1], pa.int32()),
        "dl": pa.array([1], pa.int32()),
        "salt": pa.array([2], pa.int32()),
        "tpart": pa.array([0], pa.int32()),
    })
    p = str(tmp_path / "old.parquet")
    pq.write_table(legacy, p)
    t = _read_spill(p)
    assert "tpart" not in t.column_names
    assert pa.types.is_dictionary(t.schema.field("term").type)
    assert t["salt"].to_pylist() == [2]


def test_high_salt_survives_uint8_payload(ray_session, tmp_path,
                                          monkeypatch):
    """hot_salt may legally be up to 256; salts ≥ 128 must survive the
    spill cast (uint8, not int8 — int8 would overflow at 128).  The bound
    set to 0 puts this small build on the exchange."""
    import pyarrow.parquet as pq
    from search_ingest_ray.index import build
    from search_ingest_ray.index.build import build_index
    from search_ingest_ray.query.searcher import Searcher
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)

    n = 80
    texts = [f"hot filler{i % 7}" for i in range(n)]  # 'hot' in every doc
    p = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({"url": [f"d{i}" for i in range(n)],
                             "text": texts}), p)
    kw = dict(analyzer="simple", num_term_partitions=4, chunk_files=1,
              hot_df_threshold=20)
    root_hi = str(tmp_path / "idx_hi")
    root_lo = str(tmp_path / "idx_lo")
    build_index([p], root_hi, hot_salt=200, **kw)   # salts span 0..199
    build_index([p], root_lo, hot_salt=1, **kw)
    d1, s1 = Searcher(root_hi).search_terms(["hot"], k=20)
    d2, s2 = Searcher(root_lo).search_terms(["hot"], k=20)
    assert d1.tolist() == d2.tolist()
    assert np.allclose(s1, s2)


def test_ray_exchange_multi_block_dictionaries(ray_session, tmp_path,
                                               monkeypatch):
    """The ray sort exchange concatenates blocks whose dictionary columns
    carry DIFFERENT per-block dictionaries; identity vs the fs path on a
    multi-file corpus proves Arrow unification through Ray's shuffle.  The
    bound set to 0 puts this small build on the exchange."""
    import pyarrow.parquet as pq
    from search_ingest_ray.index import build
    from search_ingest_ray.index.build import build_index
    from search_ingest_ray.query.searcher import Searcher
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(300)]
    paths = []
    for f in range(8):  # 8 files → several blocks through the sort
        texts = [" ".join(rng.choice(vocab, size=rng.integers(10, 60)))
                 + " hot" for _ in range(150)]
        p = str(tmp_path / f"d{f}.parquet")
        pq.write_table(pa.table({
            "url": [f"f{f}d{i}" for i in range(150)], "text": texts}), p)
        paths.append(p)
    kw = dict(analyzer="simple", num_term_partitions=6, chunk_files=4,
              hot_df_threshold=300, hot_salt=4)
    r1, r2 = str(tmp_path / "fs"), str(tmp_path / "ray")
    build_index(paths, r1, shuffle="fs", **kw)
    build_index(paths, r2, shuffle="ray", **kw)
    s1, s2 = Searcher(r1), Searcher(r2)
    for q in (["hot"], ["w1", "w2"], ["hot", "w3", "w17"]):
        d1, sc1 = s1.search_terms(q, k=25)
        d2, sc2 = s2.search_terms(q, k=25)
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(sc1, sc2)


def test_spill_bytes_per_posting_budget(ray_session, tmp_path):
    """Plan-shape guard for the payload diet: exchange spill files must
    stay under a per-posting byte budget (pre-diet payload measured
    ~32.5 B/posting on the bench corpus; the diet ~17.6 B).  A
    regression that re-ships strings, int64 docids or the tpart column
    would blow straight past 24."""
    import glob
    import pyarrow.parquet as pq
    from search_ingest_ray.index.build import _spill_exchange_block

    rng = np.random.default_rng(11)
    vocab = np.array([f"term{i:04d}" for i in range(500)])
    n = 120_000
    tbl = pa.table({
        "term": pa.array(rng.choice(vocab, size=n)),
        "docid": pa.array(rng.integers(0, 4000, size=n, dtype=np.int64)
                          * 982451653),
        "tf": pa.array(rng.integers(1, 5, size=n, dtype=np.int32)),
        "dl": pa.array(rng.integers(50, 500, size=n, dtype=np.int32)),
    })
    d = str(tmp_path / "ex")
    _spill_exchange_block(tbl, exchange_dir=d, num_partitions=8,
                          hot_salt=4, hot_ref=None)
    total = sum(os.path.getsize(p)
                for p in glob.glob(d + "/**/*.arrow", recursive=True))
    per_posting = total / n
    # this uniform-random batch measures 19.2 B/posting with the diet
    # alone and 13.2 with the default lz4 buffer compression (pre-diet
    # payload was ~32.5; real Zipf corpora compress further).  16
    # catches a regression of either the diet or the compression
    # default.
    assert per_posting < 16.0, f"{per_posting:.1f} B/posting — diet regressed?"
