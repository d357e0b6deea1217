"""Tests for the training-data-pipeline operators: dedup (exact, MinHash,
SimHash), similarity search, text analysis, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

from search_ingest_ray.functions.dedup import (
    exact_dedup, hamming64, minhash_candidate_pairs, simhash64,
    simhash_candidates,
)
from search_ingest_ray.functions.similarity import ann_lsh, knn_cosine
from search_ingest_ray.functions.textstats import (
    STOPWORDS, fingerprint_batch, langid_batch, quality_batch,
    token_count_batch,
)
from search_ingest_ray.functions.multimodal import (
    frame_sample_batch, image_feature_batch,
)


@pytest.fixture
def rd(ray_session):
    import ray.data as rd
    return rd


# Tokenizer edge cases, one more input of every brute-force text-signal
# test: null, empty, whitespace-only, one-token and newline-only docs;
# lines that start with a bullet or end with an ellipsis; '#', mixed case,
# 'İ' (whose full-case lowercase splits a token) and non-ASCII words.
EDGE_TEXTS = [
    None,
    "",
    "  \t ",
    "merge",
    "\n",
    "• merge the scan\n* window data\n- customer data...\n•plain line…\n...",
    "## Heading #tag ... x...y… The And OF…",
    "- MiXeD CaSe MERGE Scan the The THE",
    "aİb İstanbul straße café naïve",
    "the spark is slow on the batch join and the data of the window",
]


def _edge_batch(first_id: int = 100) -> pa.Table:
    """EDGE_TEXTS with its ``text`` column split into two chunks."""
    half = len(EDGE_TEXTS) // 2
    return pa.table({
        "doc_id": pa.array(range(first_id, first_id + len(EDGE_TEXTS)),
                           pa.int64()),
        "text": pa.chunked_array([EDGE_TEXTS[:half], EDGE_TEXTS[half:]],
                                 pa.string()),
    })


def test_exact_dedup_first_wins(rd):
    ds = rd.from_items([
        {"doc_id": 3, "text": "same text"},
        {"doc_id": 1, "text": "same text"},
        {"doc_id": 2, "text": "other"},
    ])
    out = exact_dedup(ds).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [1, 2]


def test_minhash_similar_docs_are_candidates(rd):
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    near = base.replace("lazy", "sleepy")
    far = "completely different content about ray data pipelines " * 6
    ds = rd.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": far},
    ])
    pairs = minhash_candidate_pairs(ds, num_perm=32, bands=16).to_pandas()
    got = {tuple(r) for r in pairs[["a", "b"]].values.tolist()}
    assert (1, 2) in got
    assert (1, 3) not in got and (2, 3) not in got


def test_dedup_clusters_transitive(rd):
    from search_ingest_ray.functions.dedup import dedup_clusters
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    near1 = base.replace("lazy", "sleepy")          # ~ base
    near2 = near1.replace("quick", "rapid")         # ~ near1 (chain to base)
    far = "completely different content about ray data pipelines " * 6
    ds = rd.from_items([
        {"doc_id": 10, "text": base},
        {"doc_id": 11, "text": near1},
        {"doc_id": 12, "text": near2},
        {"doc_id": 13, "text": far},
        {"doc_id": 14, "text": far},                # exact dup of 13
    ])
    out = dedup_clusters(ds, num_perm=32, bands=16,
                         jaccard_threshold_micro=500_000).to_pandas()
    lab = dict(zip(out["doc_id"], out["cluster"]))
    # transitive chain collapses to the min id even if (10,12) was never
    # a direct candidate pair
    assert lab[10] == lab[11] == lab[12] == 10
    assert lab[13] == lab[14] == 13
    assert lab[13] != lab[10]
    assert len(out) == 5


def test_dedup_clusters_distributed_matches_driver(rd):
    """Forcing the edge-count threshold to 0 routes through the
    distributed label-propagation path; clusters must be identical to
    the driver union-find path (incl. a doc in no candidate pair)."""
    from search_ingest_ray.functions.dedup import dedup_clusters
    base = "the quick brown fox jumps over the lazy dog again and again " * 5
    near1 = base.replace("lazy", "sleepy")
    near2 = near1.replace("quick", "rapid")
    far = "completely different content about ray data pipelines " * 6
    lonely = "a singleton document sharing nothing with anything else " * 4
    rows = [
        {"doc_id": 10, "text": base},
        {"doc_id": 11, "text": near1},
        {"doc_id": 12, "text": near2},
        {"doc_id": 13, "text": far},
        {"doc_id": 14, "text": far},
        {"doc_id": 15, "text": lonely},
    ]
    kw = dict(num_perm=32, bands=16, jaccard_threshold_micro=500_000)
    drv = dedup_clusters(rd.from_items(rows), **kw).to_pandas()
    dist = dedup_clusters(rd.from_items(rows), max_driver_edges=0,
                          cc_num_partitions=4, **kw).to_pandas()
    d1 = dict(zip(drv["doc_id"], drv["cluster"]))
    d2 = dict(zip(dist["doc_id"], dist["cluster"]))
    assert d1 == d2 and len(dist) == 6
    assert d2[10] == d2[11] == d2[12] == 10
    assert d2[13] == d2[14] == 13
    assert d2[15] == 15


def test_simhash_near_dup(rd):
    base = "alpha beta gamma delta epsilon zeta eta theta " * 8
    near = base.replace("theta", "thota", 1)  # one token differs
    far = "totally unrelated words here about something else " * 8
    assert hamming64(simhash64(base), simhash64(near)) <= 12
    assert hamming64(simhash64(base), simhash64(far)) > 20
    ds = rd.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": far},
    ])
    pairs = simhash_candidates(ds, max_hamming=12, chunks=16).to_pandas()
    got = {tuple(r) for r in pairs[["a", "b"]].values.tolist()}
    assert (1, 2) in got


def test_knn_cosine_exact(rd):
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((50, 8)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(50), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    out = knn_cosine(ds, [vecs[7]], k=5).to_pandas()
    # brute force oracle
    m = vecs.astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    q = m[7]
    cos = m @ q
    expect = np.lexsort((np.arange(50), -cos))[:5]
    assert out.sort_values("rank")["vec_id"].tolist() == expect.tolist()
    assert out.sort_values("rank")["vec_id"].iloc[0] == 7


def test_ann_ivf_full_probe_equals_brute_force(rd):
    from search_ingest_ray.functions.similarity import ann_ivf
    rng = np.random.default_rng(8)
    vecs = rng.standard_normal((80, 12)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(80), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    exact = knn_cosine(ds, [vecs[5], vecs[17]], k=7).to_pandas()
    ivf = ann_ivf(rd.from_arrow(tbl), [vecs[5], vecs[17]], k=7,
                  nlist=8, nprobe=8).to_pandas()
    for qi in (0, 1):
        e = exact[exact.query_id == qi].sort_values("rank")
        a = ivf[ivf.query_id == qi].sort_values("rank")
        assert e["vec_id"].tolist() == a["vec_id"].tolist()
        assert np.allclose(e["cos"].to_numpy(), a["cos"].to_numpy())


def test_ann_ivf_clustered_recall(rd):
    """Well-separated clusters: nprobe=1 finds the query's own cluster."""
    from search_ingest_ray.functions.similarity import ann_ivf
    rng = np.random.default_rng(9)
    centers = np.eye(4, 16) * 10.0
    vecs = np.concatenate([
        centers[c] + 0.05 * rng.standard_normal((25, 16))
        for c in range(4)]).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    out = ann_ivf(rd.from_arrow(tbl), [vecs[3]], k=5,
                  nlist=4, nprobe=1).to_pandas()
    assert out.sort_values("rank")["vec_id"].iloc[0] == 3  # finds itself
    # all 5 hits come from the query's own cluster (ids 0..24)
    assert (out["vec_id"] < 25).all()


def test_embedding_near_dup_recall_and_precision(rd):
    """Clustered fixture: every brute-force pair with cos ≥ threshold must
    be found (recall 1 via multi-table banding), and every emitted pair
    must truly have cos ≥ threshold (exact verify ⇒ precision 1)."""
    from search_ingest_ray.functions.similarity import embedding_near_dup
    rng = np.random.default_rng(21)
    base = rng.standard_normal((30, 16))
    dups = base[:12] + 0.02 * rng.standard_normal((12, 16))
    vecs = np.vstack([base, dups])
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float64())),
    })
    thr = 0.97
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = m @ m.T
    iu = np.triu_indices(len(vecs), k=1)
    oracle = {(int(a), int(b)) for a, b in
              zip(iu[0][sims[iu] >= thr], iu[1][sims[iu] >= thr])}
    assert len(oracle) >= 10  # fixture actually plants near-dups
    out = embedding_near_dup(rd.from_arrow(tbl), threshold=thr,
                             nbits=5, ntables=6).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(out.a, out.b)}
    assert got >= oracle, f"missed {oracle - got}"
    for a, b in got:  # exact verification: no false positives
        assert sims[a, b] >= thr


def test_embedding_near_dup_blockwise_identical(rd):
    """The blockwise gram (memory bound) emits the same pair set as one
    big matmul (block larger than any bucket)."""
    from search_ingest_ray.functions.similarity import embedding_near_dup
    rng = np.random.default_rng(22)
    base = rng.standard_normal((20, 8))
    vecs = np.vstack([base, base[:8] + 0.01 * rng.standard_normal((8, 8))])
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float64())),
    })
    kw = dict(threshold=0.95, nbits=2, ntables=3)
    big = embedding_near_dup(rd.from_arrow(tbl), block=4096, **kw).to_pandas()
    small = embedding_near_dup(rd.from_arrow(tbl), block=4, **kw).to_pandas()
    key = lambda df: sorted(zip(df.a, df.b))  # noqa: E731
    assert key(big) == key(small)


def test_ann_lsh_multiprobe_recall_vs_brute_force(rd):
    """Multiprobe recovers neighbors that fall one hyperplane flip away:
    recall@5 vs knn_cosine must be high on a clustered fixture, and the
    top hit must agree with brute force."""
    rng = np.random.default_rng(23)
    centers = np.eye(5, 24) * 8.0
    vecs = np.concatenate([
        centers[c] + 0.1 * rng.standard_normal((20, 24))
        for c in range(5)]).astype(np.float64)
    tbl = pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float64())),
    })
    queries = [vecs[7], vecs[33], vecs[88]]
    exact = knn_cosine(rd.from_arrow(tbl), queries, k=5).to_pandas()
    approx = ann_lsh(rd.from_arrow(tbl), queries, k=5, nbits=6,
                     multiprobe=3).to_pandas()
    hits = total = 0
    for qi in range(3):
        e = exact[exact.query_id == qi].sort_values("rank")["vec_id"].tolist()
        a = set(approx[approx.query_id == qi]["vec_id"].tolist())
        assert e[0] in a  # brute-force top-1 recovered
        hits += len(set(e) & a)
        total += len(e)
    assert hits / total >= 0.8


def test_ann_lsh_finds_self(rd):
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((100, 16)).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(range(100), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    out = ann_lsh(rd.from_arrow(tbl), [vecs[3]], k=5, nbits=4).to_pandas()
    assert 3 in out["vec_id"].tolist()  # the query's own bucket contains it


def test_token_count_and_quality():
    batch = pa.table({"doc_id": [1, 2], "text": ["The quick fox", ""]})
    out = token_count_batch(batch)
    assert out["n_tokens"].to_pylist() == [3, 0]
    q = quality_batch(batch)
    assert q["text_len"].to_pylist() == [13, 0]
    assert q["stopword_ratio_micro"][0].as_py() == int(np.floor(1 / 3 * 1e6))

    from search_ingest_ray.analyzer import tokenize_simple
    edge = _edge_batch()
    q = quality_batch(edge)
    assert (token_count_batch(edge)["n_tokens"].to_pylist()
            == q["n_tokens"].to_pylist())
    for i, t in enumerate(EDGE_TEXTS):
        t = t or ""
        toks = tokenize_simple(t)
        denom = max(1, len(toks))
        assert q["text_len"][i].as_py() == len(t)
        assert q["n_tokens"][i].as_py() == len(toks)
        assert q["stopword_ratio_micro"][i].as_py() == int(np.floor(
            sum(x in STOPWORDS for x in toks) / denom * 1e6)), t
        assert q["mean_token_len_micro"][i].as_py() == int(np.floor(
            sum(map(len, toks)) / denom * 1e6)), t


def test_langid_heuristic():
    batch = pa.table({"text": [
        "the quick brown fox jumps over the lazy dog",
        "der hund und die katze ist nicht schön für straße",
        "el niño y la música es para los años",
    ]})
    out = langid_batch(batch)
    assert out["lang_pred"].to_pylist() == ["en", "de", "es"]


def test_fingerprint_whitespace_insensitive():
    b1 = pa.table({"text": ["Hello,  World! Foo"]})
    b2 = pa.table({"text": ["hello world foo"]})
    f1 = fingerprint_batch(b1)["fingerprint"][0].as_py()
    f2 = fingerprint_batch(b2)["fingerprint"][0].as_py()
    assert f1 == f2
    f3 = fingerprint_batch(pa.table({"text": ["hello world bar"]}))["fingerprint"][0].as_py()
    assert f1 != f3


def test_image_feature_stage_plumbing(rd):
    ds = rd.from_items([{"media_id": str(i), "data": bytes([i]) * 100}
                        for i in range(10)])
    out = ds.map_batches(image_feature_batch, batch_format="pyarrow",
                         batch_size=4).to_pandas()
    assert len(out) == 10
    assert set(out.columns) == {"media_id", "width", "height", "n_bytes",
                                "sha", "decoded", "feature"}
    assert (out["n_bytes"] == 100).all()
    assert not out["decoded"].any()   # raw bytes aren't a decodable image
    # deterministic across runs
    out2 = ds.map_batches(image_feature_batch, batch_format="pyarrow",
                          batch_size=4).to_pandas()
    assert out.sort_values("media_id")["sha"].tolist() == \
        out2.sort_values("media_id")["sha"].tolist()


def test_frame_sample_stage_explodes(rd):
    ds = rd.from_items([{"media_id": "v1", "data": b"xyz" * 50}])
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 3}).to_pandas()
    assert len(out) == 3
    assert out["frame"].tolist() == [0, 1, 2]


def test_scrub_batch_masks_and_counts():
    import pyarrow as pa

    from search_ingest_ray.functions.scrub import scrub_batch
    t = pa.table({
        "doc_id": [0, 1, 2],
        "text": ["mail a.b+c@ex.co and x@y.io now",
                 "call 555-123-4567 or 555-000-1111",
                 "clean"],
    })
    out = scrub_batch(t)
    assert out["text_scrubbed"].to_pylist() == [
        "mail <EMAIL> and <EMAIL> now",
        "call <PHONE> or <PHONE>",
        "clean"]
    assert out["n_redactions"].to_pylist() == [2, 2, 0]


def test_repetition_top_bigram_vs_bruteforce():
    from collections import Counter

    from search_ingest_ray.analyzer import tokenize_simple
    from search_ingest_ray.functions.textstats import repetition_batch
    texts = ["a b a b a b c",          # 'a b' ×3 of 6 bigrams
             "x",                      # <2 tokens → 0
             "",                       # empty → 0
             "one two three four",     # all distinct → 1/3
             "spam spam spam spam"]    # 'spam spam' ×3 of 3
    batch = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for batch, texts in ((batch, texts), (_edge_batch(), EDGE_TEXTS)):
        out = repetition_batch(batch)
        for i, t in enumerate(texts):
            toks = tokenize_simple(t or "")
            bgs = Counter(zip(toks, toks[1:]))
            nbg = max(len(toks) - 1, 0)
            want = (max(bgs.values()) * 1_000_000) // nbg if bgs else 0
            assert out["n_bigrams"][i].as_py() == nbg
            assert out["top_bigram_micro"][i].as_py() == want, t
    # no cross-doc bigram bleed: doc boundaries mask adjacent pairs
    b2 = pa.table({"doc_id": [0, 1], "text": ["q q", "q q"]})
    r2 = repetition_batch(b2)
    assert r2["top_bigram_micro"].to_pylist() == [1_000_000, 1_000_000]


def test_weighted_partial_batch_exact():
    from search_ingest_ray.functions.textstats import weighted_partial_batch
    batch = pa.table({"lang": ["en", "de", "en", "en"],
                      "v": [10, 20, 30, 40],
                      "w": [1, 2, 3, 0]})
    out = weighted_partial_batch(batch, group_col="lang", val_col="v",
                                 weight_col="w").sort_by("lang")
    assert out["lang"].to_pylist() == ["de", "en"]
    assert out["w_sum"].to_pylist() == [2, 4]
    assert out["wv_sum"].to_pylist() == [40, 10 + 90 + 0]


def _kgram_sets(texts, k):
    from search_ingest_ray.analyzer import tokenize_simple
    out = []
    for t in texts:
        toks = tokenize_simple(t or "")
        if len(toks) < k:
            toks = toks + [""] * (k - len(toks))
        out.append({" ".join(toks[i:i + k])
                    for i in range(len(toks) - k + 1)})
    return out


def test_decontaminate_vs_bruteforce(rd):
    texts = ["alpha beta gamma delta", "beta gamma delta epsilon",
             "zeta eta theta", "alpha beta gamma", "iota kappa",
             "x", ""]
    ids = [0, 7, 14, 3, 5, 9, 11]   # ids 0,14 are benchmark (mod 7)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    from search_ingest_ray.functions.decontam import decontaminate
    out = decontaminate(ds, mod=7, k=3).to_pandas().sort_values("doc_id")
    sets = dict(zip(ids, _kgram_sets(texts, 3)))
    bench = set().union(*(sets[i] for i in ids if i % 7 == 0))
    for _, row in out.iterrows():
        s = sets[row["doc_id"]]
        assert row["doc_id"] % 7 != 0
        assert row["n_ngrams"] == len(s)
        assert row["n_shared"] == len(s & bench)
        assert row["contaminated"] == int(bool(s & bench))
    assert set(out["doc_id"]) == {i for i in ids if i % 7 != 0}


def test_dup_ngram_stats_vs_bruteforce(rd):
    texts = ["a b c d e f", "a b c d e g", "h i j k l m",
             "a b c d e f", "short"]
    ids = list(range(5))
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    from search_ingest_ray.functions.decontam import dup_ngram_stats
    out = dup_ngram_stats(ds, k=5, num_partitions=4) \
        .to_pandas().sort_values("doc_id")
    sets = _kgram_sets(texts, 5)
    from collections import Counter
    cnt = Counter(g for s in sets for g in s)
    for i, row in zip(ids, out.itertuples()):
        s = sets[i]
        ndup = sum(1 for g in s if cnt[g] >= 2)
        assert row.n_distinct == len(s)
        assert row.n_dup == ndup, texts[i]
        assert row.dup_micro == ndup * 1_000_000 // max(len(s), 1)


def test_decontaminate_plan_is_shuffle_free(rd):
    """Scale-shape guard: the decontamination pipeline must stream through
    map_batches only — the benchmark set is broadcast, never shuffled."""
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(40)),
        "text": [f"alpha beta w{i} gamma delta" for i in range(40)],
    }))
    from search_ingest_ray.functions.decontam import decontaminate
    st = decontaminate(ds, mod=7, k=3).materialize().stats()
    assert "Sort" not in st and "Aggregate" not in st, st


def test_dup_ngram_plan_has_two_exchanges(rd):
    """Scale-shape guard: dup_ngram_stats shuffles exactly twice — once on
    the n-gram hash, once on the doc partition — both as coarse
    partition-keyed sorts, with no native Aggregate operator."""
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(30)),
        "text": [f"a b c d e f g{i % 3}" for i in range(30)],
    }))
    from search_ingest_ray.functions.decontam import dup_ngram_stats
    import re
    st = dup_ngram_stats(ds, k=5, num_partitions=4).materialize().stats()
    assert "Aggregate" not in st, st
    sorts = re.findall(r"Operator \d+ Sort", st)
    assert len(sorts) == 2, st


def test_ivf_fit_uniform_sample_on_sorted_corpus(rd):
    """VERDICT-r3 #8: a corpus SORTED by cluster must still train a
    quantizer that covers every cluster.  The fixture front-loads one
    cluster with more rows than the training sample, so the old
    ``limit(sample)`` fit saw only cluster 0 (its centroids all sat on
    cluster 0; the other clusters' max centroid-cosine was ~0 across
    orthogonal clusters) — the seeded ``random_sample`` fit covers all
    four.  Both halves asserted: the biased fit FAILS the coverage bar
    the uniform fit passes."""
    from search_ingest_ray.functions.similarity import (
        _normalize, ivf_fit, kmeans_fit)
    rng = np.random.default_rng(21)
    centers = np.eye(4, 16) * 10.0
    parts = [centers[0] + 0.05 * rng.standard_normal((600, 16))] + [
        centers[c] + 0.05 * rng.standard_normal((80, 16))
        for c in (1, 2, 3)]
    vecs = np.concatenate(parts).astype(np.float32)  # sorted by cluster
    tbl = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float32())),
    })
    sample = 256  # < 600 rows of cluster 0 at the head

    def coverage(cent):
        cn = _normalize(centers)
        return (cn @ cent.T).max(axis=1)  # best centroid cos per cluster

    biased = kmeans_fit(vecs[:sample].astype(np.float64), nlist=4)
    assert (coverage(biased) > 0.9).sum() == 1  # limit() saw one cluster

    cent = ivf_fit(rd.from_arrow(tbl), nlist=4, sample=sample)
    assert (coverage(cent) > 0.9).all()  # uniform sample covers all four


# -- C4-style span dedup ------------------------------------------------------


def _span_dedup_brute(rows, k=3):
    """Brute-force C4 span dedup: first global occurrence of each span
    (ordered by (doc_id, span_no)) survives."""
    from search_ingest_ray.analyzer import tokenize_simple
    spans = []  # (doc_id, span_no, span)
    for doc_id, text in rows:
        toks = tokenize_simple(text or "")
        ns = (len(toks) + k - 1) // k
        for j in range(ns):
            spans.append((doc_id, j, " ".join(toks[j * k:(j + 1) * k])))
    seen = {}
    for d, s, sp in sorted(spans):
        seen.setdefault(sp, (d, s))
    out = {}
    for doc_id, text in rows:
        out[doc_id] = {"n_spans": 0, "kept": []}
    for d, s, sp in sorted(spans):
        out[d]["n_spans"] += 1
        if seen[sp] == (d, s):
            out[d]["kept"].append(sp)
    return {d: (v["n_spans"], len(v["kept"]), " ".join(v["kept"]))
            for d, v in out.items()}


def test_span_dedup_matches_bruteforce(rd):
    from search_ingest_ray.functions.dedup import span_dedup
    rows = [
        (0, "alpha beta gamma delta epsilon zeta"),   # 2 full spans
        (1, "alpha beta gamma other words here tail"),  # span 0 dups doc 0
        (2, "alpha beta gamma delta epsilon zeta"),   # loses ALL spans
        (3, ""),                                       # zero tokens
        (4, "delta epsilon zeta alpha beta gamma x"),  # both spans dup + tail
    ]
    ds = rd.from_items([{"doc_id": d, "text": t} for d, t in rows])
    got = {r["doc_id"]: (r["n_spans"], r["n_kept"], r["text_clean"])
           for r in span_dedup(ds, span_tokens=3, num_partitions=4)
           .take_all()}
    assert got == _span_dedup_brute(rows, 3)
    # doc 2 is an exact duplicate of doc 0 → fully emptied
    assert got[2] == (2, 0, "")
    # zero-token doc still emits a row
    assert got[3] == (0, 0, "")


def test_span_dedup_within_doc_repeat(rd):
    """A span repeated WITHIN one doc keeps only its first occurrence."""
    from search_ingest_ray.functions.dedup import span_dedup
    rows = [(7, "a b c a b c a b c")]
    ds = rd.from_items([{"doc_id": d, "text": t} for d, t in rows])
    (r,) = span_dedup(ds, span_tokens=3, num_partitions=2).take_all()
    assert (r["n_spans"], r["n_kept"], r["text_clean"]) == (3, 1, "a b c")


# -- RefinedWeb frequency-threshold line dedup --------------------------------


def test_line_dedup_threshold_removes_all_copies(rd):
    """A line in ≥ min_docs DISTINCT docs is removed from EVERY doc (no
    first-wins survivor); below threshold every copy stays."""
    from search_ingest_ray.functions.dedup import line_dedup
    rows = [
        (0, "nav bar x unique zero tail"),   # "nav bar x" in docs 0,1,2
        (1, "nav bar x unique one tails"),
        (2, "nav bar x"),                     # loses its only line
        (3, "pair line y unique three t"),   # "pair line y" in docs 3,4 only
        (4, "pair line y unique four tt"),
        (5, ""),                              # zero tokens
    ]
    ds = rd.from_items([{"doc_id": d, "text": t} for d, t in rows])
    got = {r["doc_id"]: (r["n_spans"], r["n_kept"], r["text_clean"])
           for r in line_dedup(ds, span_tokens=3, min_docs=3,
                               num_partitions=4).take_all()}
    assert got[0] == (2, 1, "unique zero tail")    # boilerplate cut from ALL
    assert got[1] == (2, 1, "unique one tails")
    assert got[2] == (1, 0, "")                    # no surviving copy anywhere
    assert got[3] == (2, 2, "pair line y unique three t")  # df=2 < 3 → kept
    assert got[4] == (2, 2, "pair line y unique four tt")
    assert got[5] == (0, 0, "")


def test_line_dedup_within_doc_repeats_count_once(rd):
    """Doc-frequency is DISTINCT docs: a line repeated 3× inside one doc has
    df=1 and survives intact (where span_dedup would cut the repeats)."""
    from search_ingest_ray.functions.dedup import line_dedup
    rows = [(7, "a b c a b c a b c")]
    ds = rd.from_items([{"doc_id": d, "text": t} for d, t in rows])
    (r,) = line_dedup(ds, span_tokens=3, min_docs=2,
                      num_partitions=2).take_all()
    assert (r["n_spans"], r["n_kept"], r["text_clean"]) == (
        3, 3, "a b c a b c a b c")


# -- Gopher rules -------------------------------------------------------------


def test_gopher_rules_signals():
    from search_ingest_ray.functions.textstats import gopher_rules_batch
    batch = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([
            "the cat sat with all of that and have been fine here today",
            "- bullet one\n- bullet two\nplain line ends here...",
            "## ### x...y...z...",
            "",
        ]),
    })
    out = gopher_rules_batch(batch, min_words=5, min_required=2)
    r = {i: {c: out[c][i].as_py() for c in out.column_names}
         for i in range(4)}
    # doc 0: clean English-ish, required hits: the/with/of/that/and/have = 6
    assert r[0]["n_required_hits"] == 6
    assert r[0]["pass_gopher"] == 1
    assert r[0]["symbol_word_micro"] == 0
    # doc 1: 2 of 3 lines bullet-started, 1 of 3 ellipsis-ended
    assert r[1]["bullet_line_micro"] == 666_666
    assert r[1]["ellipsis_line_micro"] == 333_333
    # doc 2: 5 '#' + 3 '...' over 3 words → ratio 8/3 → fails symbol rule
    assert r[2]["symbol_word_micro"] == 2_666_666
    assert r[2]["pass_gopher"] == 0
    # doc 3: empty → everything 0, fails word count
    assert r[3]["n_words"] == 0 and r[3]["pass_gopher"] == 0

    # every signal vs a per-doc reference over the edge cases
    from search_ingest_ray.analyzer import tokenize_simple
    from search_ingest_ray.functions.textstats import GOPHER_REQUIRED

    def micro(num, denom):
        return int(np.floor(num / max(1, denom) * 1e6))

    out = gopher_rules_batch(_edge_batch(), min_words=3, min_required=1)
    for i, t in enumerate(EDGE_TEXTS):
        t = t or ""
        toks = tokenize_simple(t)
        lines = t.split("\n")
        want = {
            "n_words": len(toks),
            "mean_word_len_micro": micro(sum(map(len, toks)), len(toks)),
            "alpha_word_micro": micro(
                sum(any(c.isalpha() for c in x) for x in toks), len(toks)),
            "n_required_hits": len(set(toks) & set(GOPHER_REQUIRED)),
            "symbol_word_micro": micro(
                t.count("#") + t.count("...") + t.count("…"), len(toks)),
            "bullet_line_micro": micro(
                sum(ln.startswith(("-", "*", "•")) for ln in lines),
                len(lines)),
            "ellipsis_line_micro": micro(
                sum(ln.endswith(("...", "…")) for ln in lines), len(lines)),
        }
        got = {c: out[c][i].as_py() for c in want}
        assert got == want, t
        assert out["pass_gopher"][i].as_py() == int(
            3 <= want["n_words"]
            and 3_000_000 <= want["mean_word_len_micro"] <= 10_000_000
            and want["symbol_word_micro"] < 100_000
            and want["bullet_line_micro"] < 900_000
            and want["ellipsis_line_micro"] < 300_000
            and want["alpha_word_micro"] >= 800_000
            and want["n_required_hits"] >= 1), t


def test_gopher_rules_alpha_ratio():
    from search_ingest_ray.functions.textstats import gopher_rules_batch
    batch = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        # 2 alpha words of 8 → 25% < 80% → fail
        "text": pa.array(["the 12 34 56 78 90 11 with"]),
    })
    out = gopher_rules_batch(batch, min_words=2, min_required=2)
    assert out["alpha_word_micro"][0].as_py() == 250_000
    assert out["pass_gopher"][0].as_py() == 0


def test_fused_signal_scorer_matches_unfused_kernels(ray_session):
    """CorpusSignalScorer (one tokenize pass) must equal the unfused
    quality/repetition/langid/decontam/content-hash kernels value for
    value — the corpus_filter oracle depends on it."""
    from search_ingest_ray.functions.decontam import (CorpusSignalScorer,
                                                      DecontamScorer)
    from search_ingest_ray.functions.dedup import content_hash_batch
    from search_ingest_ray.functions.textstats import repetition_batch

    texts = [
        "the quick brown fox jumps over the lazy dog and the cat",
        "le chat et le chien sont dans la maison avec le pain",
        "",  # empty doc
        "spam spam spam spam spam spam spam",  # degenerate repetition
        "a b",  # shorter than the shingle k
        "the and of to in is was that it for benchmark shared trigram here",
    ]
    ids = list(range(0, 97 * len(texts), 97))  # id 0 is a benchmark doc
    batch = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string())})

    # benchmark set: doc 0's distinct 3-grams (mod 97 slice)
    from search_ingest_ray.functions.dedup import ShingleHasher
    bench = np.unique(ShingleHasher(3).doc_shingles(texts[0]))

    for batch in (batch, _edge_batch(first_id=97)):
        fused = CorpusSignalScorer(bench, mod=97, k=3)(batch)

        q = quality_batch(batch)
        r = repetition_batch(batch)
        lang = langid_batch(batch)
        d = DecontamScorer(bench, k=3)(batch)
        ch = content_hash_batch(batch)

        ids = batch["doc_id"].to_pylist()
        assert fused["n_tokens"].to_pylist() == q["n_tokens"].to_pylist()
        assert (fused["stopword_ratio_micro"].to_pylist()
                == q["stopword_ratio_micro"].to_pylist())
        assert (fused["top_bigram_micro"].to_pylist()
                == r["top_bigram_micro"].to_pylist())
        assert fused["lang_pred"].to_pylist() == lang["lang_pred"].to_pylist()
        assert (fused["contaminated"].to_pylist()
                == d["contaminated"].to_pylist())
        assert (fused["content_hash"].to_pylist()
                == ch["content_hash"].to_pylist())
        assert fused["is_bench"].to_pylist() == [int(i % 97 == 0)
                                                 for i in ids]
        if ids[0] == 0:
            assert fused["contaminated"].to_pylist()[0] == 1  # self-overlap


def _emb_tbl(vecs):
    return pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v for v in vecs], pa.list_(pa.float64())),
    })


def _shadow_keep(vecs, thr, groups=None):
    """Reference shadowing rule: drop i iff some j<i (same group) has
    cos >= thr."""
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = m @ m.T
    keep = []
    for i in range(len(vecs)):
        shadowed = any(sims[i, j] >= thr and
                       (groups is None or groups[i] == groups[j])
                       for j in range(i))
        if not shadowed:
            keep.append(i)
    return keep


def test_semantic_dedup_single_cluster_equals_global_rule(rd):
    """nlist=1 puts everything in one cluster: the result must be the
    global shadowing rule, at any block size."""
    from search_ingest_ray.functions.similarity import semantic_dedup
    rng = np.random.default_rng(31)
    base = rng.standard_normal((25, 12))
    vecs = np.vstack([base, base[:10] + 0.02 * rng.standard_normal((10, 12))])
    want = _shadow_keep(vecs, 0.97)
    assert 25 <= len(want) < len(vecs)   # fixture drops some, keeps base
    for block in (4096, 4):
        out = semantic_dedup(rd.from_arrow(_emb_tbl(vecs)), 0.97,
                             nlist=1, block=block).to_pandas()
        assert sorted(out.vec_id) == want, block


def test_semantic_dedup_clustered_matches_per_cluster_rule(rd):
    """Well-separated clusters: the quantizer must recover them, and the
    result equals the shadowing rule applied per TRUE cluster."""
    from search_ingest_ray.functions.similarity import (ivf_assign, ivf_fit,
                                                        semantic_dedup)
    rng = np.random.default_rng(33)
    cents = np.eye(4, 16) * 10
    groups = np.repeat(np.arange(4), 20)
    vecs = cents[groups] + 0.3 * rng.standard_normal((80, 16))
    # plant within-cluster dups
    vecs[5] = vecs[0] + 0.001
    vecs[25] = vecs[21] + 0.001
    ds = rd.from_arrow(_emb_tbl(vecs))
    fitted = ivf_fit(ds, nlist=4, sample=80)
    assigned = {r["vec_id"]: r["ivf_list"] for r in
                ivf_assign(ds, fitted).take_all()}
    # quantizer recovered the true partition (cluster ids may permute)
    for g in range(4):
        ids = {assigned[i] for i in np.flatnonzero(groups == g)}
        assert len(ids) == 1, g
    thr = 0.995
    want = _shadow_keep(vecs, thr, groups=groups)
    out = semantic_dedup(ds, thr, nlist=4, sample=80).to_pandas()
    assert sorted(out.vec_id) == want
    assert 5 not in out.vec_id.values and 25 not in out.vec_id.values
    assert set(out.columns) == {"vec_id", "embedding"}


def test_percolate_matches_brute_force(rd):
    """PercolateStage bitmask matching == per-doc set-intersection count."""
    from search_ingest_ray.functions.textstats import PercolateStage, percolate
    from search_ingest_ray.analyzer import tokenize_simple
    docs = [
        (1, "merge sort and scan the table"),
        (2, "a window over events"),
        (3, "spark is slow on batch join workloads"),
        (4, "customer data and more customer data"),
        (5, "nothing relevant here"),
        (6, None),
        (7, ""),
        (8, "merge merge merge"),          # repeated term counts once
    ]
    queries = [
        (1, ["merge", "scan", "sort"], 2),
        (2, ["window"], 1),
        (3, ["spark", "slow", "batch", "join"], 3),
        (4, ["customer", "data"], 2),
        (5, ["merge", "merge", "scan"], 2),  # dup terms in the query dedup
    ]
    tbl = pa.table({"doc_id": pa.array([d for d, _ in docs], pa.int64()),
                    "text": pa.array([t for _, t in docs], pa.string())})
    edge = _edge_batch()
    for tbl, docs in ((tbl, docs),
                      (edge, list(zip(edge["doc_id"].to_pylist(),
                                      EDGE_TEXTS)))):
        out = percolate(rd.from_arrow(tbl), queries).to_pandas()
        got = {(r.doc_id, r.query_id): r.n_matched
               for r in out.itertuples()}
        want = {}
        for did, txt in docs:
            toks = set(tokenize_simple(txt or ""))
            for qid, terms, mm in queries:
                n = len(set(terms) & toks)
                if n >= mm:
                    want[(did, qid)] = n
        assert got == want
    # vocab-width guard
    import pytest
    with pytest.raises(ValueError):
        PercolateStage([(1, [f"t{i}" for i in range(600)], 1)])


def test_unigram_ppl_matches_bruteforce(rd):
    import math
    from collections import Counter

    from search_ingest_ray.analyzer import tokenize_simple
    from search_ingest_ray.functions.textstats import unigram_ppl
    docs = [
        {"doc_id": 0, "text": "the quick brown fox the the"},
        {"doc_id": 1, "text": "the quick zebra"},
        {"doc_id": 2, "text": ""},            # empty → ce_micro 0
        {"doc_id": 3, "text": "qqq zzz"},     # all OOV at vocab_k=3
    ]
    edge = _edge_batch()
    edge_docs = [{"doc_id": i, "text": t}
                 for i, t in zip(edge["doc_id"].to_pylist(), EDGE_TEXTS)]
    got_by_input = []
    for ds, docs_in in ((rd.from_items(docs), docs),
                        (rd.from_arrow(edge), edge_docs)):
        out = unigram_ppl(ds, vocab_k=3).take_all()
        got = {r["doc_id"]: (r["n_tokens"], r["ce_micro"]) for r in out}
        # brute force: top-3 vocab by (count desc, word asc), add-one
        # unigram
        cnt = Counter(w for d in docs_in
                      for w in tokenize_simple(d["text"] or ""))
        vocab = dict(sorted(cnt.items(),
                            key=lambda kv: (-kv[1], kv[0]))[:3])
        total, v = sum(vocab.values()), len(vocab)
        ln_norm = math.log(total + v + 1)
        for d in docs_in:
            toks = tokenize_simple(d["text"] or "")
            ssum = sum(int(math.floor(
                (ln_norm - math.log(vocab.get(w, 0) + 1)) * 1e6))
                for w in toks)
            ce = ssum // len(toks) if toks else 0
            assert got[d["doc_id"]] == (len(toks), ce), d
        got_by_input.append(got)
    # ranking sanity: the all-common doc is lower-surprisal than all-OOV
    got = got_by_input[0]
    assert got[0][1] < got[3][1]


def test_hashed_linear_score_matches_bruteforce(rd):
    from search_ingest_ray.analyzer import tokenize_simple
    from search_ingest_ray.functions.textstats import (CLS_DIM, CLS_MIX,
                                                       hashed_linear_score)
    from search_ingest_ray.util import tok_hash_sql
    docs = [
        {"doc_id": 0, "text": "the quick brown fox the the"},
        {"doc_id": 1, "text": "merge scan window"},
        {"doc_id": 2, "text": ""},               # token-less → 0 / drop
        {"doc_id": 3, "text": "zzz zzz zzz"},    # repeated token
    ]
    edge = _edge_batch()
    edge_docs = [{"doc_id": i, "text": t}
                 for i, t in zip(edge["doc_id"].to_pylist(), EDGE_TEXTS)]
    for ds, docs in ((rd.from_items(docs), docs),
                     (rd.from_arrow(edge), edge_docs)):
        out = hashed_linear_score(ds).take_all()
        got = {r["doc_id"]: (r["n_tokens"], r["score_milli"], r["keep"])
               for r in out}
        assert len(got) == len(docs)
        for d in docs:
            toks = tokenize_simple(d["text"] or "")
            s = sum((tok_hash_sql(w) % CLS_DIM) * CLS_MIX % 2001 - 1000
                    for w in toks)
            assert got[d["doc_id"]] == (len(toks), s, s > 0), d


def test_compression_ratio_discriminates():
    import pyarrow as pa

    from search_ingest_ray.functions.textstats import compression_ratio_batch
    import numpy as np
    rng = np.random.default_rng(3)
    noise = "".join(chr(rng.integers(33, 127)) for _ in range(2000))
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["spam " * 400,                      # repetitive
                 ("the quick brown fox jumps over the lazy dog and then "
                  "discusses merge strategies for distributed indexes. ")
                 * 20,                               # prose
                 noise,                              # incompressible
                 None],                              # null → 0 bytes
    })
    out = compression_ratio_batch(batch)
    r = dict(zip(out["doc_id"].to_pylist(),
                 out["compression_micro"].to_pylist()))
    assert r[1] < r[2] < r[3]
    assert r[3] > 800_000          # noise barely compresses
    assert r[1] < 50_000           # pure repetition collapses
    nb = dict(zip(out["doc_id"].to_pylist(), out["n_bytes"].to_pylist()))
    assert nb[4] == 0
    # deterministic across calls
    again = compression_ratio_batch(batch)
    assert out.equals(again)


def test_doc_keywords_vs_bruteforce(ray_session, sf_dir):
    import math
    import os
    from collections import Counter

    import pyarrow.parquet as pq

    from search_ingest_ray.analyzer import tokenize_simple
    from search_ingest_ray.functions.textstats import KeywordExtractor
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    texts = t["text"].to_pylist()
    n = t.num_rows
    df: Counter = Counter()
    for txt in texts:
        df.update(set(tokenize_simple(txt or "")))
    ext = KeywordExtractor(dict(df), n, top=3)
    # independent reference for the first 50 docs and the edge cases,
    # whose terms outside the corpus read df 1
    edge = _edge_batch()
    for batch, ids, texts in (
            (t.slice(0, 50), t["doc_id"].to_pylist()[:50], texts[:50]),
            (edge, edge["doc_id"].to_pylist(), EDGE_TEXTS)):
        out = ext(batch)
        want = []
        for did, txt in zip(ids, texts):
            c = Counter(tokenize_simple(txt or ""))
            sc = sorted((-math.floor(tf * math.log(
                1 + (n - df.get(term, 1) + 0.5) / (df.get(term, 1) + 0.5))
                * 1e6), term) for term, tf in c.items())[:3]
            for r, (neg, term) in enumerate(sc, 1):
                want.append((did, r, term, -neg))
        got = list(zip(out["doc_id"].to_pylist(), out["rank"].to_pylist(),
                       out["term"].to_pylist(),
                       out["score_micro"].to_pylist()))
        assert got == want


def test_incremental_dedup_vs_bruteforce(ray_session, tmp_path):
    import hashlib

    import pyarrow as pa
    import ray.data as rd

    from search_ingest_ray.functions.dedup import (incremental_dedup,
                                                   write_seen_hashes)
    # previous crawl: 4 docs; new crawl: 8 docs — 2 exact-text dups of
    # the state, 1 internal pair that is NOT in the state (both kept:
    # incremental dedup filters against PRIOR state only; within-batch
    # dedup is exact_dedup's job)
    prev = pa.table({
        "doc_id": pa.array([100, 101, 102, 103], pa.int64()),
        "text": ["alpha one", "beta two", "gamma three", "delta four"],
    })
    new = pa.table({
        "doc_id": pa.array(list(range(8)), pa.int64()),
        "text": ["alpha one",      # dup of state
                 "fresh a", "fresh b",
                 "gamma three",    # dup of state
                 "fresh c", "twin", "twin",   # internal pair, kept
                 None],            # null text: hash of "" — not in state
    })
    state = str(tmp_path / "state")
    write_seen_hashes(rd.from_arrow(prev), state, num_buckets=4)
    out = incremental_dedup(rd.from_arrow(new), state)
    rows = sorted(r["doc_id"] for r in out.take_all())
    assert rows == [1, 2, 4, 5, 6, 7]
    # survivors' hashes match the md5-low64 family
    got = {r["doc_id"]: r["content_hash"] for r in out.take_all()}
    for did, txt in zip(new["doc_id"].to_pylist(),
                        new["text"].to_pylist()):
        if did in got:
            h = int.from_bytes(
                hashlib.md5((txt or "").encode()).digest()[8:],
                "little") % (1 << 63)
            assert got[did] == h, did
    # power-of-two guard
    import pytest as _pytest
    with _pytest.raises(ValueError):
        write_seen_hashes(rd.from_arrow(prev), str(tmp_path / "s2"),
                          num_buckets=12)


def test_incremental_near_dup_vs_bruteforce(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from search_ingest_ray.functions.dedup import (
        MinHashEmitter, incremental_near_dup_filter, write_minhash_state)
    # state: 3 docs; new: exact dup (all bands collide), a NEAR dup
    # (shares most shingles -> >=1 band collides with high probability
    # for 8 bands of 4 perms), and fresh docs
    prev = pa.table({
        "doc_id": pa.array([100, 101, 102], pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog today",
                 "completely different content about merge strategies",
                 "third document with unrelated words entirely here"],
    })
    new = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog today",
                 "the quick brown fox jumps over the lazy dog tonight",
                 "fresh totally novel text with nothing shared at all",
                 "another new page mentioning scan windows and joins"],
    })
    state = str(tmp_path / "mh_state")
    write_minhash_state(rd.from_arrow(prev), state, num_perm=32, bands=8,
                        num_buckets=8)
    out = incremental_near_dup_filter(rd.from_arrow(new), state)
    got = sorted(r["doc_id"] for r in out.take_all())
    # brute-force reference: emit band keys for both sides with the SAME
    # emitter and drop new docs sharing any (band, band_hash)
    em = MinHashEmitter(num_perm=32, bands=8)
    pk = em(prev)
    nk = em(new)
    state_keys = set(zip(pk["band"].to_pylist(),
                         pk["band_hash"].to_pylist()))
    want = sorted({d for d, b, h in zip(nk["id"].to_pylist(),
                                        nk["band"].to_pylist(),
                                        nk["band_hash"].to_pylist())
                   if not any((b2, h2) in state_keys
                              for b2, h2 in [(b, h)])}
                  - {d for d, b, h in zip(nk["id"].to_pylist(),
                                          nk["band"].to_pylist(),
                                          nk["band_hash"].to_pylist())
                     if (b, h) in state_keys})
    assert got == want
    # the exact dup was dropped; the fresh docs survived
    assert 0 not in got and 2 in got and 3 in got
