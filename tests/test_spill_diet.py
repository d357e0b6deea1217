"""Exchange payload diet: spill files ship dictionary-encoded terms and
docids, uint8 salts and no tpart column; the reduce's concat of a
partition's spill files unifies their per-file dictionaries."""

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


def test_spill_dictionaries_unify_on_concat(tmp_path):
    # two diet spills of one partition, each with its own dictionaries
    def diet(terms, docids):
        return pa.table({
            "term": pc.dictionary_encode(pa.array(terms, pa.string())),
            "docid": pc.dictionary_encode(pa.array(docids, pa.int64())),
            "tf": pa.array([1] * len(terms), pa.int32()),
            "dl": pa.array([5] * len(terms), pa.int32()),
            "salt": pa.array([0] * len(terms), pa.uint8()),
        })
    p1 = str(tmp_path / "a.arrow")
    p2 = str(tmp_path / "b.arrow")
    _write_ipc(p1, diet(["a", "b", "a"], [1, 2, 3]))
    _write_ipc(p2, diet(["b", "c"], [4, 5]))

    t1, t2 = _read_spill(p1), _read_spill(p2)
    assert t1.schema == t2.schema
    group = pa.concat_tables([t1, t2]).combine_chunks()
    col = group.column("term").combine_chunks()
    # unified dictionary is deduplicated — one code per distinct term
    # (duplicate entries would split a term's posting list in two)
    assert sorted(col.dictionary.to_pylist()) == ["a", "b", "c"]
    assert len(col.dictionary) == len(set(col.dictionary.to_pylist()))
    decoded = pc.cast(col, pa.string()).to_pylist()
    assert decoded == ["a", "b", "a", "b", "c"]
    assert pc.cast(group["docid"], pa.int64()).to_pylist() == [1, 2, 3, 4, 5]


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


def test_exchange_multi_block_dictionaries(ray_session, tmp_path,
                                           monkeypatch):
    """Each spill file carries its own term and docid dictionaries; the
    reduce concatenates a partition's files, so identity with the one-task
    path on a multi-file corpus proves the concat unifies them.  The
    bound set to 0 puts the second build on the exchange."""
    import pyarrow.parquet as pq
    from search_ingest_ray.index import build
    from search_ingest_ray.index.build import build_index
    from search_ingest_ray.query.searcher import Searcher

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(300)]
    paths = []
    for f in range(8):  # 8 files → several spill files per partition
        texts = [" ".join(rng.choice(vocab, size=rng.integers(10, 60)))
                 + " hot" for _ in range(150)]
        p = str(tmp_path / f"d{f}.parquet")
        pq.write_table(pa.table({
            "url": [f"f{f}d{i}" for i in range(150)], "text": texts}), p)
        paths.append(p)
    kw = dict(analyzer="simple", num_term_partitions=6, chunk_files=4,
              hot_df_threshold=300, hot_salt=4)
    r1, r2 = str(tmp_path / "task"), str(tmp_path / "fs")
    m1 = build_index(paths, r1, **kw)
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    m2 = build_index(paths, r2, **kw)
    assert m1["exchange"]["mode"] == "task"
    assert m2["exchange"]["mode"] == "fs"
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
    # alone and 13.2 with the spill's lz4 buffer compression (pre-diet
    # payload was ~32.5; real Zipf corpora compress further).  16
    # catches a regression of either the diet or the compression.
    assert per_posting < 16.0, f"{per_posting:.1f} B/posting — diet regressed?"


def test_profile_tool_reads_a_spilled_partition(tmp_path):
    """``tools/profile_stage2.py one_build`` loads one tpart directory of
    spill files and runs the segment build on it."""
    import importlib.util
    from search_ingest_ray.index.build import _spill_exchange_block

    spec = importlib.util.spec_from_file_location(
        "profile_stage2", os.path.join(os.path.dirname(__file__), os.pardir,
                                       "tools", "profile_stage2.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    rng = np.random.default_rng(3)
    n = 5_000
    tbl = pa.table({
        "term": pa.array(rng.choice([f"t{i}" for i in range(50)], size=n)),
        "docid": pa.array(rng.integers(0, 300, size=n, dtype=np.int64)),
        "tf": pa.array(np.ones(n, np.int32)),
        "dl": pa.array(np.full(n, 20, np.int32)),
    })
    ex = tmp_path / "ex"
    for half in (tbl.slice(0, n // 2), tbl.slice(n // 2)):  # two spills
        _spill_exchange_block(half, exchange_dir=str(ex), num_partitions=2,
                              hot_salt=1, hot_ref=None)
    d = sorted(ex.iterdir())[0]
    assert len(list(d.glob("*.arrow"))) == 2
    r = tool.one_build(str(d), str(tmp_path / "seg"))
    assert 0 < r["rows"] < n
    assert os.path.exists(tmp_path / "seg" / d.name / "segment.parquet")
