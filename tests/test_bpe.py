"""BPE training/encoding vs an independent full-recount reference."""

import duckdb
import numpy as np
import pyarrow as pa
import ray.data as rd

from search_ingest_ray.functions.bpe import (
    BPEEncodeStage, _merge_word, bpe_merge_loop, pair_counts, train_bpe,
    word_counts)


def _naive_bpe(words, counts, n_merges):
    """Reference: full pair recount every iteration (no incremental
    bookkeeping), same merge convention and tie-break."""
    from collections import Counter
    seqs = [tuple(w) for w in words]
    merges = []
    for _ in range(n_merges):
        pn = Counter()
        for seq, c in zip(seqs, counts):
            for p in zip(seq, seq[1:]):
                pn[p] += c
        if not pn:
            break
        best = min(pn, key=lambda p: (-pn[p], p))
        merges.append(best)
        seqs = [_merge_word(s, *best) for s in seqs]
    return merges


def _corpus_tbl():
    rng = np.random.default_rng(3)
    vocab = ["the", "cat", "catalog", "caterpillar", "dog", "dogma",
             "low", "lower", "lowest", "newer", "wider", "new", "banana"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(3, 12)))
             for _ in range(120)]
    return pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                     "text": pa.array(texts)})


def test_merge_word_convention():
    assert _merge_word(tuple("aaa"), "a", "a") == ("aa", "a")
    assert _merge_word(tuple("abab"), "a", "b") == ("ab", "ab")
    assert _merge_word(("x",), "a", "b") == ("x",)


def test_incremental_loop_equals_full_recount():
    rng = np.random.default_rng(5)
    words = ["banana", "bandana", "ananas", "cabana", "aaa", "abcabc",
             "zzz", "zaza", "bb"]
    counts = rng.integers(1, 50, len(words)).tolist()
    for k in (1, 5, 20, 100):
        assert bpe_merge_loop(words, counts, k) == \
            _naive_bpe(words, counts, k), k


def test_pair_counts_matches_sql(ray_session):
    tbl = _corpus_tbl()
    got = sorted((r["left"], r["right"], r["n"]) for r in
                 pair_counts(rd.from_arrow(tbl).repartition(5)).take_all())
    want = duckdb.sql("""
        WITH toks AS (
          SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
          FROM tbl),
        wc AS (SELECT w, count(*) AS c FROM toks GROUP BY w),
        px AS (SELECT w, c, unnest(range(length(w) - 1)) AS i FROM wc
               WHERE length(w) >= 2)
        SELECT substr(w, CAST(i + 1 AS INT), 1) AS l,
               substr(w, CAST(i + 2 AS INT), 1) AS r,
               CAST(sum(c) AS BIGINT) AS n
        FROM px GROUP BY 1, 2 ORDER BY 1, 2""").fetchall()
    assert got == [tuple(r) for r in want]


def test_train_bpe_end_to_end_equals_reference(ray_session):
    tbl = _corpus_tbl()
    ds = rd.from_arrow(tbl).repartition(4)
    got = train_bpe(ds, n_merges=25)
    wc = sorted(((r["word"], r["c"]) for r in word_counts(ds).take_all()),
                key=lambda x: (-x[1], x[0]))
    want = _naive_bpe([w for w, _ in wc], [c for _, c in wc], 25)
    assert got == want
    # first merge is the global argmax pair — cross-check against SQL
    l, r = duckdb.sql("""
        WITH toks AS (
          SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS w
          FROM tbl),
        wc AS (SELECT w, count(*) AS c FROM toks GROUP BY w),
        px AS (SELECT w, c, unnest(range(length(w) - 1)) AS i FROM wc
               WHERE length(w) >= 2)
        SELECT substr(w, CAST(i + 1 AS INT), 1),
               substr(w, CAST(i + 2 AS INT), 1)
        FROM px GROUP BY 1, 2
        ORDER BY sum(c) DESC, 1, 2 LIMIT 1""").fetchone()
    assert got[0] == (l, r)


def test_encode_stage_matches_sequential_apply(ray_session):
    tbl = _corpus_tbl()
    ds = rd.from_arrow(tbl)
    merges = train_bpe(ds, n_merges=15)
    out = {r["doc_id"]: r["n_bpe"] for r in ds.map_batches(
        BPEEncodeStage(merges), batch_format="pyarrow").take_all()}
    # reference: replay merges in training order over each word
    from search_ingest_ray.analyzer import tokenize_simple
    for did, txt in zip(tbl["doc_id"].to_pylist(),
                        tbl["text"].to_pylist()):
        n = 0
        for w in tokenize_simple(txt):
            seq = tuple(w)
            for a, b in merges:
                seq = _merge_word(seq, a, b)
            n += len(seq)
        assert out[did] == n, did


def test_encode_lowest_rank_equals_training_order_replay():
    # the inference rule (apply lowest-rank applicable merge) must agree
    # with replaying the full table in training order
    merges = [("a", "b"), ("ab", "c"), ("b", "c"), ("x", "abc")]
    st = BPEEncodeStage(merges=merges)
    for w in ("abc", "xabc", "bcbc", "ababc", "xyz"):
        seq = tuple(w)
        for a, b in merges:
            seq = _merge_word(seq, a, b)
        assert st._encode(w) == seq, w
