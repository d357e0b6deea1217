"""Delta-segment epochs (mode="delta") + MultiEpochSearcher: per-epoch cost
is O(delta) (only delta docs tokenized/indexed; old versions of changed
docs tokenized for exact stats) and query results are rank- AND
score-identical to a from-scratch rebuild of the final snapshot."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import build_index
from search_ingest_ray.pipelines.epochs import apply_delta_epoch, epoch_chain, snapshot_dir
from search_ingest_ray.query.multi import MultiEpochSearcher
from search_ingest_ray.query.searcher import Searcher
from search_ingest_ray.util import doc_id_hash

N = 80
KW = dict(id_col="url", analyzer="simple", num_term_partitions=2,
          num_buckets=8, hot_df_threshold=10**9)


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("deltabase")
    rng = np.random.default_rng(21)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(6, 20)))
             for _ in range(N)]
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(N)],
        "text": texts,
    }), str(d / "base.parquet"))
    return str(d)


def _delta(tmp_path, name, rows):
    dd = str(tmp_path / name)
    os.makedirs(dd, exist_ok=True)
    urls, texts, epochs_, actions = zip(*rows)
    pq.write_table(pa.table({
        "url": list(urls), "text": list(texts),
        "epoch": pa.array(list(epochs_), pa.int64()),
        "action": list(actions),
    }), os.path.join(dd, "d.parquet"))
    return [os.path.join(dd, "d.parquet")]


def _reference_searcher(root, tmp_path, tag):
    """Full rebuild over the FINAL snapshot — the exactness oracle."""
    latest = max(e for e, _ in epoch_chain(root))
    snap_files = sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(snapshot_dir(root, latest))
        for f in fs if f.endswith(".parquet"))
    fresh = str(tmp_path / f"fresh_{tag}")
    build_index(snap_files, fresh, id_col="url", analyzer="simple",
                num_term_partitions=2, hot_df_threshold=10**9)
    return Searcher(fresh)


def test_delta_chain_matches_full_rebuild(ray_session, base_dir, tmp_path):
    root = str(tmp_path / "idx")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    # epoch 1: update u3 + u8, delete u5, create u100/u101
    apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u3", "fresh alpha w1", 1, "updated"),
        ("u8", "fresh beta w2 w2", 1, "updated"),
        ("u5", "", 1, "deleted"),
        ("u100", "fresh gamma w1 w3", 1, "created"),
        ("u101", "w4 w4 w4", 1, "created"),
    ]), 1, mode="delta", **KW)
    # epoch 2: update the epoch-1-created u100, delete the updated u3,
    # update an untouched base doc u0
    apply_delta_epoch(root, _delta(tmp_path, "d2", [
        ("u100", "fresh delta w5", 2, "updated"),
        ("u3", "", 2, "deleted"),
        ("u0", "fresh epsilon w6", 2, "updated"),
    ]), 2, mode="delta", **KW)

    chain = epoch_chain(root)
    assert [m for _, m in chain] == ["full", "delta", "delta"]

    ms = MultiEpochSearcher(root)
    ref = _reference_searcher(root, tmp_path, "a")
    assert ms.stats["n_docs"] == ref.stats["n_docs"]
    assert abs(ms.params.avgdl - ref.params.avgdl) < 1e-9

    for q in (["fresh"], ["w1"], ["w2", "w3"], ["alpha"], ["epsilon"],
              ["w4"], ["w5", "w6", "fresh"], ["w10", "w11"]):
        d1, sc1 = ms.search_terms(q, k=30)
        d2, sc2 = ref.search_terms(q, k=30)
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(sc1, sc2), q

    # semantic spot-checks
    d, _ = ms.search_terms(["epsilon"], k=5)
    assert set(d.tolist()) == {doc_id_hash("u0")}
    d, _ = ms.search_terms(["delta"], k=5)
    assert set(d.tolist()) == {doc_id_hash("u100")}
    d, _ = ms.search_terms(["alpha"], k=50)
    assert doc_id_hash("u3") not in set(d.tolist())  # deleted in e2


def test_delete_only_delta(ray_session, base_dir, tmp_path):
    root = str(tmp_path / "idx2")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u1", "", 1, "deleted"),
        ("u2", "", 1, "deleted"),
    ]), 1, mode="delta", **KW)
    ms = MultiEpochSearcher(root)
    ref = _reference_searcher(root, tmp_path, "b")
    assert ms.stats["n_docs"] == ref.stats["n_docs"] == N - 2
    for q in (["w1"], ["w2", "w3"]):
        d1, sc1 = ms.search_terms(q, k=30)
        d2, sc2 = ref.search_terms(q, k=30)
        assert d1.tolist() == d2.tolist()
        assert np.allclose(sc1, sc2)


def test_delta_epoch_cost_is_o_delta(ray_session, base_dir, tmp_path):
    """The delta epoch's own index holds ONLY the delta docs (manifest
    proves no full re-tokenize / full exchange happened)."""
    root = str(tmp_path / "idx3")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    m = apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u3", "tiny update", 1, "updated"),
    ]), 1, mode="delta", **KW)
    assert m["stats"]["n_docs"] == 1  # only the delta doc was indexed
    rows = sum(c["rows"] for c in m["chunks"].values())
    assert rows == 1


def test_delta_chain_filters_and_phrase_match_full_rebuild(ray_session,
                                                           tmp_path):
    """Filtered BM25, phrase and docstore retrieval over a delta chain are
    identical to a full rebuild with the same artifacts."""
    d = tmp_path / "fbase"
    os.makedirs(d)
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(30)],
        "text": [f"alpha beta doc{i}" if i % 2 else f"beta gamma doc{i}"
                 for i in range(30)],
        "lang": ["en" if i % 3 else "de" for i in range(30)],
    }), str(d / "b.parquet"))
    kw = dict(id_col="url", analyzer="simple", num_term_partitions=2,
              num_buckets=4, hot_df_threshold=10**9,
              with_positions=True, store_fields=["lang"])
    root = str(tmp_path / "idx5")
    apply_delta_epoch(root, None, 0, base_paths=[str(d / "b.parquet")], **kw)
    dd = str(tmp_path / "fd1")
    os.makedirs(dd)
    pq.write_table(pa.table({
        "url": ["u4", "u7", "u200"],
        "text": ["alpha beta fresh", "", "beta alpha gamma"],
        "lang": ["fr", "en", "de"],
        "epoch": pa.array([1, 1, 1], pa.int64()),
        "action": ["updated", "deleted", "created"],
    }), os.path.join(dd, "d.parquet"))
    apply_delta_epoch(root, [os.path.join(dd, "d.parquet")], 1,
                      mode="delta", **kw)
    ms = MultiEpochSearcher(root)

    snap_files = sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(snapshot_dir(root, 1))
        for f in fs if f.endswith(".parquet"))
    fresh = str(tmp_path / "fresh_filters")
    build_index(snap_files, fresh, id_col="url", analyzer="simple",
                num_term_partitions=2, hot_df_threshold=10**9,
                with_positions=True, store_fields=["lang"])
    ref = Searcher(fresh)

    for flt in (None, {"lang": "de"}, {"lang": ("in", ["en"])}):
        d1, sc1 = ms.search_terms(["alpha", "beta"], k=40, filters=flt)
        d2, sc2 = ref.search_terms(["alpha", "beta"], k=40, filters=flt)
        assert d1.tolist() == d2.tolist(), flt
        assert np.allclose(sc1, sc2), flt

    for ph, slop in (("alpha beta", 0), ("beta gamma", 0),
                     ("alpha fresh", 1), ("beta doc3", 0)):
        d1, sc1 = ms.match_phrase(ph, k=40, slop=slop)
        d2, sc2 = ref.match_phrase(ph, k=40, slop=slop)
        assert d1.tolist() == d2.tolist(), (ph, slop)
        assert np.allclose(sc1, sc2), (ph, slop)

    # docstore across the chain: live-epoch value wins
    got = ms.get_fields(np.array([doc_id_hash("u4"), doc_id_hash("u1")]),
                        ["lang"])
    assert got["lang"].to_pylist() == ["fr", "en"]
    # filters resolve against the LIVE epoch's value (u4 is fr now)
    d1, _ = ms.search_terms(["fresh"], k=5, filters={"lang": "fr"})
    assert set(d1.tolist()) == {doc_id_hash("u4")}
    d2, _ = ms.search_terms(["fresh"], k=5, filters={"lang": "de"})
    assert len(d2) == 0
    # DELETED docs resolve to null / never match (full-rebuild parity):
    # u7 was deleted in epoch 1 but its stale fields row exists in epoch 0
    dead_got = ms.get_fields(np.array([doc_id_hash("u7")]), ["lang"])
    assert dead_got["lang"].to_pylist() == [None]
    assert not ms.fields_mask(np.array([doc_id_hash("u7")]),
                              {"lang": "en"}).any()


def test_delta_chain_get_fields_types_match_single_epoch(ray_session,
                                                         tmp_path):
    """Chain docstore retrieval returns each column in the type
    single-epoch ``Searcher.get_fields`` gives, with the same values as a
    full rebuild — for live, deleted, unknown and empty selections."""
    d = tmp_path / "tbase"
    os.makedirs(d)
    n = 12
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(n)],
        "text": [f"alpha doc{i}" for i in range(n)],
        "stars": pa.array([None if i % 3 == 0 else i for i in range(n)],
                          pa.int64()),
        "lang": pa.array([None if i % 4 == 0 else "en" for i in range(n)],
                         pa.string()),
        "ts": pa.array([None if i % 5 == 0 else 1_700_000_000_000_000 + i
                        for i in range(n)], pa.timestamp("us")),
    }), str(d / "b.parquet"))
    fields = ["stars", "lang", "ts"]
    kw = dict(id_col="url", analyzer="simple", num_term_partitions=2,
              num_buckets=4, hot_df_threshold=10**9, store_fields=fields)
    root = str(tmp_path / "idx_types")
    apply_delta_epoch(root, None, 0, base_paths=[str(d / "b.parquet")], **kw)
    dd = str(tmp_path / "td1")
    os.makedirs(dd)
    pq.write_table(pa.table({
        "url": ["u1", "u2", "u300"],
        "text": ["alpha fresh", "", "alpha new"],
        "stars": pa.array([None, 2, 7], pa.int64()),
        "lang": pa.array(["fr", "en", None], pa.string()),
        "ts": pa.array([5, 6, None], pa.timestamp("us")),
        "epoch": pa.array([1, 1, 1], pa.int64()),
        "action": ["updated", "deleted", "created"],
    }), os.path.join(dd, "d.parquet"))
    apply_delta_epoch(root, [os.path.join(dd, "d.parquet")], 1,
                      mode="delta", **kw)
    ms = MultiEpochSearcher(root)
    single = Searcher(root, epoch=0)
    snap_files = sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(snapshot_dir(root, 1))
        for f in fs if f.endswith(".parquet"))
    fresh = str(tmp_path / "fresh_types")
    build_index(snap_files, fresh, id_col="url", analyzer="simple",
                num_term_partitions=2, hot_df_threshold=10**9,
                store_fields=fields)
    ref = Searcher(fresh)

    want_types = {c: v.type for c, v in single.get_fields(
        np.empty(0, dtype=np.int64), fields).items()}
    assert want_types == {"stars": pa.int64(), "lang": pa.string(),
                          "ts": pa.timestamp("us")}

    def ids(*urls):
        return np.array([doc_id_hash(u) for u in urls], dtype=np.int64)

    selections = {
        "live": ids("u0", "u1", "u300", "u3", "u4", "u5"),
        "all_dead": ids("u2"),
        "dead_and_unknown": np.concatenate([ids("u2"), [12345]]),
        "empty": np.empty(0, dtype=np.int64),
    }
    for name, sel in selections.items():
        got = ms.get_fields(sel, fields)
        assert {c: v.type for c, v in got.items()} == want_types, name
        exp = ref.get_fields(sel, fields)
        assert {c: v.to_pylist() for c, v in got.items()} == \
            {c: v.to_pylist() for c, v in exp.items()}, name
    assert ms.get_fields(ids("u1"), ["stars"])["stars"].to_pylist() == [None]


def test_compaction_restores_single_epoch(ray_session, base_dir, tmp_path):
    """A mode='full' epoch after deltas collapses the chain (compaction)."""
    root = str(tmp_path / "idx4")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u7", "compacted zeta", 1, "updated"),
    ]), 1, mode="delta", **KW)
    apply_delta_epoch(root, _delta(tmp_path, "d2", [
        ("u9", "compacted eta", 2, "updated"),
    ]), 2, mode="full", **KW)
    chain = epoch_chain(root)
    assert chain == [(2, "full")]
    ms = MultiEpochSearcher(root)
    d, _ = ms.search_terms(["zeta"], k=5)
    assert set(d.tolist()) == {doc_id_hash("u7")}
    d, _ = ms.search_terms(["eta"], k=5)
    assert set(d.tolist()) == {doc_id_hash("u9")}
    # a one-epoch chain is the single-epoch path: bit-equal ids and scores
    s = Searcher(root, epoch=2)
    for terms, k in ((["w1", "w2", "w3"], 10), (["w4", "w4", "w7"], 10),
                     (["w2", "eta"], 5), (["zeta", "w5"], 10 * N)):
        d1, sc1 = ms.search_terms(terms, k=k)
        d2, sc2 = s.search_terms(terms, k=k)
        assert d1.tolist() == d2.tolist(), terms
        assert sc1.tobytes() == sc2.tobytes(), terms
        if k > N:
            assert 0 < d1.size < k


def test_delta_chain_bool_matches_full_rebuild(ray_session, base_dir,
                                               tmp_path):
    """search_bool over a chain == search_bool on the full rebuild — the
    shared bool_combine fed by chain-suppressed postings."""
    root = str(tmp_path / "idx5")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u3", "w1 w2 w3 boolfresh", 1, "updated"),
        ("u5", "", 1, "deleted"),
        ("u102", "w1 w1 w2 boolfresh", 1, "created"),
    ]), 1, mode="delta", **KW)
    ms = MultiEpochSearcher(root)
    ref = _reference_searcher(root, tmp_path, "bool")
    cases = [
        (["w1", "w2"], ["w3"], ["w4"]),
        (["boolfresh"], [], []),
        ([], ["w1", "w5"], ["w2"]),
        (["w1", "w2", "w3"], [], []),
    ]
    for must, should, must_not in cases:
        d1, m1 = ms.search_bool(must, should=should, must_not=must_not,
                                k=40)
        d2, m2 = ref.search_bool(must, should=should, must_not=must_not,
                                 k=40)
        assert d1.tolist() == d2.tolist(), (must, should, must_not)
        assert m1.tolist() == m2.tolist(), (must, should, must_not)


def test_ten_epoch_chain_matches_full_rebuild_then_compacts(
        ray_session, base_dir, tmp_path):
    """LONG chain stress: 10 consecutive delta epochs (updates, deletes,
    inserts, re-inserts of deleted ids) — the dead-set masks, df patches
    and cumulative stats must stay exact across the whole chain (scores
    bit-identical to a from-scratch rebuild of the final snapshot), and
    compact_chain must roll all 10 into one full epoch with identical
    results."""
    from search_ingest_ray.pipelines.epochs import compact_chain
    rng = np.random.default_rng(77)
    vocab = [f"w{i}" for i in range(30)]
    root = str(tmp_path / "idx10")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    alive = set(range(N))
    nxt = N
    for e in range(1, 11):
        rows = []
        upd = rng.choice(sorted(alive), size=4, replace=False)
        for u in upd:
            rows.append((f"u{u}", " ".join(rng.choice(vocab, size=10)),
                         e, "updated"))
        if len(alive) > 10:
            dele = int(rng.choice(sorted(alive - set(upd.tolist()))))
            rows.append((f"u{dele}", "x", e, "deleted"))
            alive.discard(dele)
        if e % 3 == 0:   # insert a brand-new doc
            rows.append((f"u{nxt}", " ".join(rng.choice(vocab, size=12)),
                         e, "created"))
            alive.add(nxt)
            nxt += 1
        if e == 7:       # re-insert a previously deleted id
            dead = sorted(set(range(N)) - alive)
            if dead:
                rows.append((f"u{dead[0]}",
                             " ".join(rng.choice(vocab, size=9)),
                             e, "updated"))
                alive.add(dead[0])
        apply_delta_epoch(root, _delta(tmp_path, f"d10_{e}", rows), e,
                          mode="delta", **KW)

    chain = epoch_chain(root)
    assert [m for _, m in chain] == ["full"] + ["delta"] * 10
    ms = MultiEpochSearcher(root)
    ref = _reference_searcher(root, tmp_path, "ten")
    assert int(ms.stats["n_docs"]) == ref.params.n_docs == len(alive)
    # exact cumulative avgdl == the rebuild's (total_tokens / n_docs)
    assert abs(float(ms.stats["total_tokens"]) / int(ms.stats["n_docs"])
               - ref.params.avgdl) < 1e-9
    queries = [["w1", "w7"], ["w3"], ["w12", "w20", "w4"], ["w9", "w2"]]
    for terms in queries:
        d1, s1 = ms.search_terms(terms, k=25)
        d2, s2 = ref.search_terms(terms, k=25)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)

    compact_chain(root, **{k: v for k, v in KW.items()
                           if k != "num_buckets"})
    assert epoch_chain(root) == [(11, "full")]
    ms2 = MultiEpochSearcher(root)
    for terms in queries:
        d1, s1 = ms2.search_terms(terms, k=25)
        d2, s2 = ref.search_terms(terms, k=25)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=0)


def test_delta_epoch_runs_no_ray_data_and_one_task_per_touched_bucket(
        ray_session, base_dir, tmp_path, ray_counts):
    from search_ingest_ray.util import stable_partition_column
    root = str(tmp_path / "idx_tasks")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    rows = [("u3", "tiny update", 1, "updated"),
            ("u9", "", 1, "deleted"),
            ("u500", "brand new w1", 1, "created")]
    touched = set(stable_partition_column(
        pa.array([r[0] for r in rows]), KW["num_buckets"]).tolist())
    ray_counts.update(executions=0, tasks=0)
    m = apply_delta_epoch(root, _delta(tmp_path, "d1", rows), 1,
                          mode="delta", **KW)
    assert ray_counts["executions"] == 0
    assert 0 < ray_counts["tasks"] <= len(touched) + 1
    assert m["tasks"] == len(touched) + 1
    assert set(m["stage_walls"]) == {"snapshot_s", "old_stats_s",
                                     "segment_s"}
    # a replayed (committed) epoch starts nothing
    ray_counts["tasks"] = 0
    apply_delta_epoch(root, _delta(tmp_path, "d1", rows), 1, mode="delta",
                      **KW)
    assert ray_counts == {"executions": 0, "tasks": 0}


def _old_version_reference(root, epoch, delta_paths, analyzer, html):
    """(sorted dead docids, n_old, Σ dl) of the previous versions of the
    delta's ids, with dl = the analyzer's token count of each doc."""
    from search_ingest_ray.analyzer import get_analyzer
    from search_ingest_ray.corpus import extract_text
    ids = set(pq.read_table(delta_paths, columns=["url"])["url"].to_pylist())
    files = sorted(os.path.join(r, f)
                   for r, _, fs in os.walk(snapshot_dir(root, epoch - 1))
                   for f in fs if f.endswith(".parquet"))
    prev = pa.concat_tables([pq.read_table(f) for f in files])
    analyze = get_analyzer(analyzer)
    dead, dl = [], 0
    for row in prev.to_pylist():
        if row["url"] not in ids:
            continue
        text = extract_text(row["html"]) if html else row["text"]
        dead.append(doc_id_hash(row["url"]))
        dl += len(analyze(text)) if text else 0
    return sorted(dead), len(dead), dl


@pytest.mark.parametrize("analyzer,html", [("simple", False),
                                           ("standard", True)])
def test_postings_doc_lengths_equal_analyzer_token_counts(
        ray_session, tmp_path, analyzer, html):
    """The bucket tasks take each old version's length from its emitted
    postings (0 without postings); it must equal the analyzer's token
    count, including non-ASCII and empty documents."""
    from search_ingest_ray.corpus import generate_pages, wrap_html
    from search_ingest_ray.util import read_json
    base = generate_pages(60, seed=3)
    texts = base["text"].to_pylist()
    texts[4] = "Ünïcode façade İstanbul straße ÆØÅ naïve"
    texts[7] = ""
    texts[8] = "... --- !!!"
    base = base.set_column(base.schema.get_field_index("text"), "text",
                           pa.array(texts, pa.string()))
    base = base.set_column(base.schema.get_field_index("html"), "html",
                           pa.array([wrap_html(t) for t in texts],
                                    pa.binary()))
    urls = base["url"].to_pylist()
    bp = str(tmp_path / "base.parquet")
    pq.write_table(base, bp)
    kw = dict(id_col="url", analyzer=analyzer, num_buckets=4,
              html_col="html" if html else None)
    root = str(tmp_path / "idx")
    apply_delta_epoch(root, None, 0, base_paths=[bp], **kw)
    changes = [
        [urls[4], urls[7], urls[8], urls[10], "new-1"],
        [urls[4], urls[20], urls[21], "new-1", urls[30]],
    ]
    for e, ids in enumerate(changes, start=1):
        new = [f"Ëpoch {e} café text {i}" if i % 2 else "" for i in
               range(len(ids))]
        actions = ["updated"] * (len(ids) - 1) + ["deleted"]
        dp = str(tmp_path / f"d{e}.parquet")
        pq.write_table(pa.table({
            "url": ids, "warc_ts": pa.array([base["warc_ts"][0]] * len(ids)),
            "html": pa.array([wrap_html(t) for t in new], pa.binary()),
            "text": new, "lang": ["en"] * len(ids),
            "epoch": pa.array([e] * len(ids), pa.int64()),
            "action": actions}), dp)
        want = _old_version_reference(root, e, dp, analyzer, html)
        apply_delta_epoch(root, [dp], e, mode="delta", **kw)
        ed = os.path.join(root, "epochs", f"e{e:04d}")
        meta = read_json(os.path.join(ed, "delta_meta.json"))
        dead = np.load(os.path.join(ed, "dead_docids.npy")).tolist()
        assert (dead, meta["n_old"], meta["sum_dl_old"]) == want


def test_delta_over_the_task_bound_is_applied_as_full(
        ray_session, base_dir, tmp_path, monkeypatch, ray_counts):
    """The full rewrite folds the previous snapshot in the one execution
    that writes the new snapshot; the build adds its stage 1.  Column
    names come from the Parquet footers, so no ``schema()`` runs the
    tagged read or the fold."""
    from search_ingest_ray.pipelines import epochs
    root = str(tmp_path / "idx_big")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    monkeypatch.setattr(epochs, "_TASK_DELTA_BYTES", 1)
    ray_counts["executions"] = 0
    apply_delta_epoch(root, _delta(tmp_path, "d1", [
        ("u3", "oversized alpha", 1, "updated"),
        ("u5", "", 1, "deleted"),
        ("u300", "oversized beta", 1, "created"),
    ]), 1, mode="delta", **KW)
    assert ray_counts["executions"] == 2
    assert epoch_chain(root) == [(1, "full")]
    ms = MultiEpochSearcher(root)
    ref = _reference_searcher(root, tmp_path, "big")
    assert ms.stats["n_docs"] == ref.stats["n_docs"] == N
    for q in (["oversized"], ["w1", "w2"], ["alpha"]):
        d1, sc1 = ms.search_terms(q, k=30)
        d2, sc2 = ref.search_terms(q, k=30)
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(sc1, sc2), q


def test_delta_epoch_checks_its_build_options(ray_session, base_dir,
                                              tmp_path):
    """A delta epoch ignores only the named Ray Data build options: a
    misspelt option raises TypeError, as build_index does, and analysis
    settings that differ from the chain's index_meta.json raise ValueError
    before anything is written."""
    root = str(tmp_path / "idx_opts")
    apply_delta_epoch(root, None, 0,
                      base_paths=[os.path.join(base_dir, "base.parquet")],
                      **KW)
    d1 = _delta(tmp_path, "d1", [("u3", "opts alpha", 1, "updated")])
    with pytest.raises(TypeError, match="num_term_partition"):
        apply_delta_epoch(root, d1, 1, mode="delta",
                          **{**KW, "num_term_partition": 2})
    with pytest.raises(ValueError, match="index_meta"):
        apply_delta_epoch(root, d1, 1, mode="delta",
                          **{**KW, "store_fields": ["text"]})
    assert not os.path.exists(os.path.join(root, "epochs", "e0001"))
    assert not os.path.exists(snapshot_dir(root, 1))
    # ``shuffle`` is no build option: refused, as build_index refuses it
    with pytest.raises(TypeError, match="shuffle"):
        apply_delta_epoch(root, d1, 1, mode="delta",
                          **{**KW, "shuffle": "fs"})
    # the Ray Data build's own options are accepted and ignored
    m = apply_delta_epoch(root, d1, 1, mode="delta",
                          **{**KW, "hot_salt": 4, "chunk_files": 2})
    assert m["status"] == "done" and m["stats"]["n_docs"] == 1
    assert epoch_chain(root) == [(0, "full"), (1, "delta")]
