"""Training-data hygiene: benchmark decontamination + duplicate-n-gram
scoring.

Two corpus-hygiene operators standard in LLM training-data pipelines
(GPT-3 appendix C's eval-set n-gram decontamination; Lee et al. 2022,
"Deduplicating Training Data Makes Language Models Better"), absent from
the reference (its dedup surface is upsert-by-id,
/root/reference/src/search-ingest/elastic.cr:431-449):

- :func:`decontaminate` — flag corpus docs sharing any word-k-gram with a
  small, fixed benchmark/eval set.  The benchmark n-gram hash set is
  computed once on the driver, carried by the scoring task, and probed
  per batch with a searchsorted membership test — NO shuffle; the corpus
  streams through a single task-based map_batches.  At 100 TB the eval
  set stays MB-sized (it is an eval set), so broadcast is the right
  shape.
- :func:`dup_ngram_stats` — per-doc count/fraction of its DISTINCT
  k-grams that occur in ≥2 distinct docs corpus-wide.  Shuffle key is the
  64-bit n-gram hash, never text: per-doc-distinct (hash, doc) pairs →
  hash-partitioned run-length scan emits one (doc, n_distinct, n_dup)
  partial per (partition, doc) → one small groupby-sum per doc.  Both
  shuffled streams are ≤ 8 bytes × token count; the final groupby is one
  row per (partition, doc).

Hashing is :class:`~.dedup.ShingleHasher` (md5-low64 token hashes +
position-weighted polynomial mix mod 2^64) so the DuckDB oracles in
``__ray_entry__`` reproduce both operators in pure SQL — counts agree
exactly even under (astronomically unlikely) hash collisions because both
sides use the identical hash.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from ..stages.fold import _PART_COL, _tag_partition
from .dedup import ShingleHasher

# -- shared per-batch shingle explosion ---------------------------------------


def _batch_distinct_shingles(hasher: ShingleHasher, batch: pa.Table,
                             text_col: str, id_col: str):
    """Per-doc DISTINCT shingle hashes for one batch → (uint64 values
    concatenated, per-doc counts, int64 doc ids)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch[text_col].to_pylist()
    vals = [np.unique(hasher.doc_shingles(t)) for t in texts]
    counts = np.array([v.size for v in vals], dtype=np.int64)
    flat = (np.concatenate(vals) if vals
            else np.empty(0, dtype=np.uint64))
    return flat, counts, ids


# -- decontamination -----------------------------------------------------------


class DecontamScorer:
    """map_batches stage: per doc, how many of its distinct k-grams
    appear in the benchmark set.  Build it once on the driver: the sorted
    benchmark array travels with the instance, which Ray Data runs as a
    task and ships to the object store once per operator; each batch is
    a vectorized searchsorted probe."""

    def __init__(self, bench, k: int = 3, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.bench = np.sort(np.asarray(bench, dtype=np.uint64))
        self.hasher = ShingleHasher(k)
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        flat, counts, ids = _batch_distinct_shingles(
            self.hasher, batch, self.text_col, self.id_col)
        if flat.size:
            idx = np.searchsorted(self.bench, flat)
            idx[idx == self.bench.size] = 0
            hit = (self.bench[idx] == flat) if self.bench.size else \
                np.zeros(flat.size, dtype=bool)
        else:
            hit = np.empty(0, dtype=bool)
        doc_of = np.repeat(np.arange(len(ids)), counts)
        shared = np.bincount(doc_of, weights=hit,
                             minlength=len(ids)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(ids),
            "n_ngrams": pa.array(counts),
            "n_shared": pa.array(shared),
            "contaminated": pa.array((shared > 0).astype(np.int64)),
        })


def benchmark_ngram_hashes(ds, *, mod: int = 97, k: int = 3,
                           text_col: str = "text",
                           id_col: str = "doc_id") -> np.ndarray:
    """Distinct k-gram hashes of the benchmark slice (``id % mod == 0``).

    Driver-side materialization is intentional and bounded: an eval set is
    small and fixed by construction (the thing one decontaminates AGAINST),
    so its n-gram set is broadcast state, not a dataset."""
    hasher = ShingleHasher(k)

    def _emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ids % mod == 0))
        flat, _, _ = _batch_distinct_shingles(hasher, sub, text_col, id_col)
        return pa.table({"h": pa.array(np.unique(flat).view(np.int64))})

    parts = ds.map_batches(_emit, batch_format="pyarrow").take_all()
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.array([r["h"] for r in parts],
                              dtype=np.int64).view(np.uint64))


def decontaminate(ds, *, mod: int = 97, k: int = 3, text_col: str = "text",
                  id_col: str = "doc_id"):
    """Score every NON-benchmark doc against the benchmark slice's k-gram
    set.  Returns Dataset(doc_id, n_ngrams, n_shared, contaminated)."""
    scorer = DecontamScorer(
        benchmark_ngram_hashes(ds, mod=mod, k=k, text_col=text_col,
                               id_col=id_col),
        k=k, text_col=text_col, id_col=id_col)

    def _drop_bench(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % mod != 0))

    return (ds.map_batches(_drop_bench, batch_format="pyarrow")
              .map_batches(scorer, batch_format="pyarrow"))


class CorpusSignalScorer:
    """ONE tokenize pass for every scalar signal family of the
    training-data corpus filter: quality (length / stopword ratio),
    Gopher repetition, language-ID, benchmark decontamination, and the
    exact-dedup content hash — the fused form of the
    quality_batch → repetition_batch → langid_batch → DecontamScorer →
    content_hash_batch chain: one ``tokenize_simple_batch`` stream per
    batch feeds the textstats reductions and the shingle probe
    (:class:`~.dedup.ShingleHasher`, over the per-process md5-low64 token
    cache).  Built once on the driver with the benchmark hash array and
    run as a Ray Data task.

    Emits per-doc SCALARS only (ids, counts, micro-ratios, hashes —
    never text), so the output is safe to ``materialize()`` as the
    branch point of the filter's vote streams: at 10^12-doc scale it is
    ~50 B/doc in the object store, while branching the un-materialized
    dataset would re-run the tokenize pass once per vote family.

    Values are bit-identical to the unfused stages (same kernels, same
    integer micro-unit arithmetic), so the corpus_filter SQL oracle is
    unchanged."""

    def __init__(self, bench, mod: int = 97, k: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.bench = np.sort(np.asarray(bench, dtype=np.uint64))
        self.hasher = ShingleHasher(k)
        self.mod = mod
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..analyzer import tokenize_simple_batch
        from .dedup import content_hash_batch
        from .textstats import lang_pred, stopword_micro, top_bigram_stats
        ids = batch[self.id_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        toks, n_tokens = tokenize_simple_batch(batch[self.text_col])
        n = len(n_tokens)
        _, top_micro = top_bigram_stats(toks, n_tokens)

        # decontam probe over per-doc DISTINCT k-grams (same shape as
        # DecontamScorer.__call__), each doc's tokens sliced from the
        # shared stream
        words = toks.to_pylist()
        ends = np.cumsum(n_tokens).tolist()
        vals = [np.unique(self.hasher.shingles_from_tokens(words[e - c:e]))
                for e, c in zip(ends, n_tokens.tolist())]
        counts = np.array([v.size for v in vals], dtype=np.int64)
        flat = (np.concatenate(vals) if vals
                else np.empty(0, dtype=np.uint64))
        if flat.size and self.bench.size:
            idx = np.searchsorted(self.bench, flat)
            idx[idx == self.bench.size] = 0
            hit = self.bench[idx] == flat
        else:
            hit = np.zeros(flat.size, dtype=bool)
        shared = np.bincount(np.repeat(np.arange(n), counts), weights=hit,
                             minlength=n).astype(np.int64)

        ch = content_hash_batch(batch.select([self.text_col]),
                                text_col=self.text_col)["content_hash"]
        return pa.table({
            self.id_col: pa.array(ids),
            "n_tokens": pa.array(n_tokens),
            "stopword_ratio_micro": pa.array(stopword_micro(toks, n_tokens)),
            "top_bigram_micro": pa.array(top_micro),
            "lang_pred": lang_pred(toks, n_tokens),
            "is_bench": pa.array((ids % self.mod == 0).astype(np.int64)),
            "contaminated": pa.array((shared > 0).astype(np.int64)),
            "content_hash": ch.combine_chunks(),
        })


# -- duplicate-n-gram fraction -------------------------------------------------


def _ngram_pairs_batch(batch: pa.Table, *, k: int, text_col: str,
                       id_col: str) -> pa.Table:
    """doc → one row per DISTINCT k-gram (h:int64-view, doc_id)."""
    flat, counts, ids = _batch_distinct_shingles(ShingleHasher(k), batch,
                                                 text_col, id_col)
    return pa.table({
        "h": pa.array(flat.view(np.int64)),
        id_col: pa.array(np.repeat(ids, counts)),
    })


def _dup_scan_partition(group: pa.Table, *, id_col: str = "doc_id",
                        min_docs: int = 2) -> pa.Table:
    """One hash partition: run-length scan over sorted hashes → per-doc
    (n_distinct, n_dup) partials.  Rows are per-doc-distinct upstream, so
    a run of length L = L distinct docs sharing that n-gram."""
    group = group.combine_chunks()
    h = group["h"].to_numpy(zero_copy_only=False)
    d = group[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(h, kind="stable")
    h, d = h[order], d[order]
    n = h.size
    if n == 0:
        return pa.table({id_col: pa.array([], pa.int64()),
                         "n_distinct": pa.array([], pa.int64()),
                         "n_dup": pa.array([], pa.int64())})
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = h[1:] != h[:-1]
    run_id = np.cumsum(new) - 1
    run_len = np.bincount(run_id)
    dup_row = run_len[run_id] >= min_docs
    docs, codes = np.unique(d, return_inverse=True)
    return pa.table({
        id_col: pa.array(docs),
        "n_distinct": pa.array(np.bincount(codes, minlength=docs.size)
                               .astype(np.int64)),
        "n_dup": pa.array(np.bincount(codes, weights=dup_row,
                                      minlength=docs.size).astype(np.int64)),
    })


def dup_ngram_stats(ds, *, k: int = 5, text_col: str = "text",
                    id_col: str = "doc_id", num_partitions: int = 32):
    """Per-doc duplicate-n-gram stats: Dataset(doc_id, n_distinct, n_dup,
    dup_micro) where ``dup_micro = n_dup·10⁶ // n_distinct`` — the Lee et
    al. cross-doc duplication signal in exact integer micro-units."""
    pairs = ds.map_batches(
        _ngram_pairs_batch, batch_format="pyarrow",
        fn_kwargs=dict(k=k, text_col=text_col, id_col=id_col))
    tagged = pairs.map_batches(
        functools.partial(_tag_partition, key_cols=["h"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    partials = tagged.groupby(_PART_COL).map_groups(
        functools.partial(_dup_scan_partition, id_col=id_col),
        batch_format="pyarrow")
    # doc-keyed combine via the repo's hash-partitioned vectorized-fold
    # shape: 32 coarse partitions + one Arrow group_by per partition is
    # ~5x cheaper than Ray's native Aggregate on the full doc_id key
    # space (measured 25s → sub-second CPU at sf0.1)
    ptag = partials.map_batches(
        functools.partial(_tag_partition, key_cols=[id_col],
                          num_partitions=num_partitions),
        batch_format="pyarrow")

    def _combine(group: pa.Table) -> pa.Table:
        g = (group.select([id_col, "n_distinct", "n_dup"])
             .group_by(id_col)
             .aggregate([("n_distinct", "sum"), ("n_dup", "sum")]))
        nd = g["n_distinct_sum"].to_numpy(zero_copy_only=False)
        du = g["n_dup_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: g[id_col],
            "n_distinct": pa.array(nd.astype(np.int64)),
            "n_dup": pa.array(du.astype(np.int64)),
            "dup_micro": pa.array((du * 1_000_000 //
                                   np.maximum(nd, 1)).astype(np.int64)),
        })

    return ptag.groupby(_PART_COL).map_groups(_combine,
                                              batch_format="pyarrow")
