"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Ray Data shapes (all shuffle on a SMALL derived key, never on raw text):

- exact:   content hash in map_batches → hash-partitioned vectorized
           first-wins fold (O(P) Python calls, not O(#distinct hashes))
- minhash: shingle→minhash per batch (vectorized) → explode to
           (band, band_hash, id) rows → hash-partitioned vectorized pair
           emission (Python touches only multi-member buckets) → native
           groupby count for cross-band pair dedup
- simhash: 64-bit weighted token-hash signature (batch-vectorized with a
           per-process token-hash cache); near-dup candidates via banding on
           bit slices (any equal slice ⇒ hamming ≤ chunks-1 by pigeonhole),
           verified by exact vectorized hamming distance

The reference's dedup surface is upsert-by-id + skip-replication
(/root/reference/src/search-ingest/elastic.cr:431-449, 214-218); these
operators extend it to content-level dedup for training corpora.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analyzer import tokenize_simple
from ..stages.fold import (_PART_COL, _tag_partition, keys_with_sum,
                           partitioned_fold)
from ..util import chaos_kill_once, tok_hash_sql

# -- exact dedup -------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _hash_con():
    import duckdb
    return duckdb.connect()


def md5_low64(values: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """uint64 md5 low64 (≡ DuckDB's ``md5_number_lower``, the same hash as
    :func:`tok_hash_sql`) of every string, nulls read as ''.  Computed by
    DuckDB's vectorized C++ md5 kernel over the zero-copy-registered Arrow
    column, so no per-row Python hashing runs."""
    con = _hash_con()
    con.register("_md5_src", pa.table({"t": values}))
    try:
        h = con.execute("SELECT md5_number_lower(coalesce(t, '')) AS h "
                        "FROM _md5_src").arrow()["h"]
    finally:
        con.unregister("_md5_src")
    return h.to_numpy()


def content_hash_batch(batch: pa.Table, *, text_col: str = "text",
                       out_col: str = "content_hash") -> pa.Table:
    """Stable 63-bit content hash of the raw text: :func:`md5_low64`
    masked to 63 bits."""
    h = md5_low64(batch[text_col]) & np.uint64(0x7FFFFFFFFFFFFFFF)
    return batch.append_column(out_col, pa.array(h.astype(np.int64)))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int = 32):
    """Keep the lowest-id row per identical text (hash-partitioned
    first-wins, vectorized per partition).  Returns the deduplicated
    Dataset (original columns)."""
    hashed = ds.map_batches(content_hash_batch, batch_format="pyarrow",
                            fn_kwargs={"text_col": text_col})
    out = partitioned_fold(hashed, ["content_hash"], [id_col], keep="first",
                           num_partitions=num_partitions)
    return out.select_columns(ds.schema().names)


# -- C4-style duplicate-span removal -----------------------------------------
#
# Raffel et al. 2020 (C4): "we discarded all but one of any three-sentence
# span occurring more than once in the data set".  Here the unit is a
# consecutive non-overlapping ``span_tokens``-token span of the simple
# analyzer's output (the synthetic corpus has no sentence punctuation); the
# FIRST global occurrence (min (doc_id, span_no)) survives, every other
# occurrence is cut from its document, and documents are reassembled from
# their surviving spans.


def _span_rows_batch(batch: pa.Table, *, text_col: str, id_col: str,
                     span_tokens: int, num_partitions: int) -> pa.Table:
    """Explode docs into span rows (doc_id, span_no, span, hash-partition)
    plus ONE sentinel row per doc (span_no = -1, a per-doc negative 'hash'
    that can never collide with md5-low64's non-negative values) so
    zero-token docs — and docs that lose every span — still reach
    reassembly and emit an output row."""
    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    doc_ids: list[np.ndarray] = []
    span_nos: list[np.ndarray] = []
    spans: list[str] = []
    for i, t in enumerate(texts):
        toks = tokenize_simple(t or "")
        ns = (len(toks) + span_tokens - 1) // span_tokens
        doc_ids.append(np.full(ns + 1, ids[i], dtype=np.int64))
        span_nos.append(np.arange(-1, ns, dtype=np.int64))
        spans.append("")  # sentinel
        spans.extend(" ".join(toks[j * span_tokens:(j + 1) * span_tokens])
                     for j in range(ns))
    did = np.concatenate(doc_ids) if doc_ids else np.empty(0, np.int64)
    sno = np.concatenate(span_nos) if span_nos else np.empty(0, np.int64)
    span_arr = pa.array(spans, pa.string())
    # vectorized md5-low64 of the span text (DuckDB C++ kernel, same hash
    # family as content_hash_batch); sentinels overwritten with -(doc_id+1)
    con = _hash_con()
    con.register("_spn_src", pa.table({"t": span_arr}))
    try:
        h = con.execute(
            "SELECT (md5_number_lower(t) % 9223372036854775808)::BIGINT AS h"
            " FROM _spn_src").arrow()["h"].combine_chunks()
    finally:
        con.unregister("_spn_src")
    h = h.to_numpy(zero_copy_only=False).copy()
    sent = sno < 0
    h[sent] = -(did[sent] + 1)
    part = (h % num_partitions).astype(np.int32)  # numpy %: result in [0, P)
    return pa.table({"doc_id": pa.array(did), "span_no": pa.array(sno),
                     "span": span_arr, "h": pa.array(h),
                     _PART_COL: pa.array(part)})


def _span_mark_partition(group: pa.Table) -> pa.Table:
    """Winner marking for one span-hash partition: sort by (h, span,
    doc_id, span_no); the first row of each distinct (h, span) run keeps —
    grouping on the span TEXT as well makes the result exact even under a
    64-bit hash collision.  Sentinel rows have unique negative hashes, so
    they form singleton runs and always keep."""
    from ..stages.fold import _run_firsts_mask
    group = group.combine_chunks()
    if group.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "span_no": pa.array([], pa.int64()),
                         "span": pa.array([], pa.string()),
                         "keep": pa.array([], pa.bool_())})
    group = group.take(pc.sort_indices(
        group, sort_keys=[("h", "ascending"), ("span", "ascending"),
                          ("doc_id", "ascending"), ("span_no", "ascending")]))
    keep = _run_firsts_mask(group, ["h", "span"])
    return pa.table({"doc_id": group["doc_id"], "span_no": group["span_no"],
                     "span": group["span"], "keep": pa.array(keep)})


def _span_reassemble_partition(group: pa.Table) -> pa.Table:
    """Reassemble one doc-partition: per doc, concat surviving spans in
    span order (one vectorized ListArray + binary_join — no per-doc
    Python).  Emits (doc_id, n_spans, n_kept, text_clean)."""
    group = group.combine_chunks()
    if group.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_spans": pa.array([], pa.int64()),
                         "n_kept": pa.array([], pa.int64()),
                         "text_clean": pa.array([], pa.string())})
    group = group.take(pc.sort_indices(
        group, sort_keys=[("doc_id", "ascending"), ("span_no", "ascending")]))
    ids = group["doc_id"].to_numpy(zero_copy_only=False)
    sno = group["span_no"].to_numpy(zero_copy_only=False)
    keep = group["keep"].to_numpy(zero_copy_only=False)
    docs = np.unique(ids)  # sorted; every doc present via its sentinel
    real = sno >= 0
    n_spans = np.bincount(np.searchsorted(docs, ids[real]),
                          minlength=len(docs))
    kept = keep & real
    kept_idx = np.flatnonzero(kept)
    n_kept = np.bincount(np.searchsorted(docs, ids[kept_idx]),
                         minlength=len(docs))
    offsets = np.zeros(len(docs) + 1, dtype=np.int32)
    np.cumsum(n_kept, out=offsets[1:])
    kept_spans = group["span"].take(pa.array(kept_idx)).combine_chunks()
    lists = pa.ListArray.from_arrays(pa.array(offsets), kept_spans)
    text_clean = pc.binary_join(lists, " ")
    return pa.table({"doc_id": pa.array(docs),
                     "n_spans": pa.array(n_spans.astype(np.int64)),
                     "n_kept": pa.array(n_kept.astype(np.int64)),
                     "text_clean": text_clean})


def span_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               span_tokens: int = 3, num_partitions: int = 32):
    """C4-style duplicate-span removal over a document Dataset.

    Two partition-keyed exchanges, both carrying ~corpus-sized span text
    (inherent: winner election needs span co-location, reassembly needs
    doc co-location); every per-partition step is one vectorized
    sort/mask/join call.  At 100 TB prefer emitting the (doc_id, span_no,
    keep) decision stream (skip reassembly) when downstream can consume
    masks — reassembly is provided because the C4 contract is cleaned
    text.  Returns (doc_id, n_spans, n_kept, text_clean), one row per
    input doc (zero-token docs emit n_spans=0, text_clean='')."""
    rows = ds.map_batches(
        functools.partial(_span_rows_batch, text_col=text_col, id_col=id_col,
                          span_tokens=span_tokens,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    marked = rows.groupby(_PART_COL).map_groups(_span_mark_partition,
                                                batch_format="pyarrow")
    tagged = marked.map_batches(
        functools.partial(_tag_partition, key_cols=["doc_id"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return tagged.groupby(_PART_COL).map_groups(
        lambda g: _span_reassemble_partition(g.drop_columns([_PART_COL])),
        batch_format="pyarrow")


# -- RefinedWeb/CCNet-style frequency-threshold line removal -----------------
#
# Penedo et al. 2023 (RefinedWeb) / Wenzek et al. 2020 (CCNet): a LINE that
# occurs in many documents is boilerplate (nav bars, cookie banners, footers)
# and is removed from EVERY document — no copy survives, unlike span_dedup's
# C4 first-wins election.  The synthetic corpus has no newlines, so the
# "line" unit is the same fixed-token span as span_dedup; on real web text
# pass pre-split lines.


def _line_mark_partition(group: pa.Table, *, min_docs: int) -> pa.Table:
    """Winner marking for one span-hash partition: a (h, span) run whose
    DISTINCT doc count is ≥ ``min_docs`` is dropped from every doc (keep =
    False on ALL its rows).  Grouping on the span text as well keeps the
    result exact under a 64-bit hash collision.  Sentinel rows (unique
    negative per-doc hashes) form singleton runs and always keep.  One
    sort + two adjacent-compare masks + one reduceat — no per-row Python."""
    group = group.combine_chunks()
    if group.num_rows == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "span_no": pa.array([], pa.int64()),
                         "span": pa.array([], pa.string()),
                         "keep": pa.array([], pa.bool_())})
    group = group.take(pc.sort_indices(
        group, sort_keys=[("h", "ascending"), ("span", "ascending"),
                          ("doc_id", "ascending"), ("span_no", "ascending")]))
    from ..stages.fold import _run_firsts_mask
    grp_first = _run_firsts_mask(group, ["h", "span"])
    doc_first = _run_firsts_mask(group, ["h", "span", "doc_id"])
    starts = np.flatnonzero(grp_first)
    # distinct docs per (h, span) run = doc-first markers summed per run
    df = np.add.reduceat(doc_first.astype(np.int64), starts)
    run_keep = df < min_docs
    # broadcast the run verdict back to rows
    run_id = np.cumsum(grp_first) - 1
    keep = run_keep[run_id]
    return pa.table({"doc_id": group["doc_id"], "span_no": group["span_no"],
                     "span": group["span"], "keep": pa.array(keep)})


def line_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
               span_tokens: int = 3, min_docs: int = 2,
               num_partitions: int = 32):
    """RefinedWeb-style boilerplate-line removal over a document Dataset:
    every occurrence of a line (fixed-token span) present in ≥ ``min_docs``
    distinct documents is cut, and documents are reassembled from their
    surviving lines.

    Same two partition-keyed exchanges as :func:`span_dedup` (span
    co-location for the doc-frequency count, doc co-location for
    reassembly); the only new work per partition is one reduceat over
    adjacent-compare masks.  Returns (doc_id, n_spans, n_kept,
    text_clean), one row per input doc."""
    rows = ds.map_batches(
        functools.partial(_span_rows_batch, text_col=text_col, id_col=id_col,
                          span_tokens=span_tokens,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    marked = rows.groupby(_PART_COL).map_groups(
        functools.partial(_line_mark_partition, min_docs=min_docs),
        batch_format="pyarrow")
    tagged = marked.map_batches(
        functools.partial(_tag_partition, key_cols=["doc_id"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return tagged.groupby(_PART_COL).map_groups(
        lambda g: _span_reassemble_partition(g.drop_columns([_PART_COL])),
        batch_format="pyarrow")


# -- shared vectorized pair emission ----------------------------------------


def _bucket_runs(group: pa.Table, key_cols: list[str], min_size: int = 2):
    """Sort one hash partition by bucket key and return (table, starts, ends)
    of runs with ≥ ``min_size`` members (pair emission wants ≥2 — the only
    buckets that can emit pairs; ANN probe scoring wants every run)."""
    group = group.combine_chunks()
    group = group.take(pc.sort_indices(
        group, sort_keys=[(k, "ascending") for k in key_cols] + [("id", "ascending")]))
    n = group.num_rows
    if n == 0:
        return group, np.empty(0, np.int64), np.empty(0, np.int64)
    same = np.ones(n - 1, dtype=bool)
    for k in key_cols:
        col = group[k]
        a, b = col.slice(0, n - 1), col.slice(1, n)
        same &= pc.fill_null(pc.equal(a, b), False).to_numpy(zero_copy_only=False)
    bounds = np.concatenate([[0], np.flatnonzero(~same) + 1, [n]])
    starts, ends = bounds[:-1], bounds[1:]
    keep = (ends - starts) >= min_size
    return group, starts[keep], ends[keep]


_PAIRS_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _minhash_pairs_partition(group: pa.Table, *, key_cols) -> pa.Table:
    """Emit candidate (a < b) pairs for every multi-member bucket in one
    hash partition.  Python loops only over buckets that actually collide;
    pair materialization per bucket is numpy index arithmetic."""
    group, starts, ends = _bucket_runs(group, list(key_cols))
    if len(starts) == 0:
        return _PAIRS_SCHEMA.empty_table()
    ids = group["id"].to_numpy(zero_copy_only=False)
    out_a, out_b = [], []
    for s, e in zip(starts, ends):
        run = np.unique(ids[s:e])  # ids sorted & deduped within bucket
        m = len(run)
        if m < 2:
            continue
        iu = np.triu_indices(m, k=1)
        out_a.append(run[iu[0]])
        out_b.append(run[iu[1]])
    if not out_a:
        return _PAIRS_SCHEMA.empty_table()
    return pa.table({"a": pa.array(np.concatenate(out_a)),
                     "b": pa.array(np.concatenate(out_b))})


def _distinct_pairs(cand, extra_min: str | None = None,
                    num_partitions: int = 32):
    """Cross-band/bucket pair dedup, hash-partitioned on the pair key
    with one vectorized Arrow group_by per partition (the same fold shape
    as :func:`partitioned_fold` — measured ~5x cheaper than Ray's native
    Aggregate over the full (a, b) key space on many small blocks).
    ``extra_min``: also carry min(extra) per pair."""
    tagged = cand.map_batches(
        functools.partial(_tag_partition, key_cols=["a", "b"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")

    def _fold(group: pa.Table) -> pa.Table:
        if extra_min is None:
            return (group.select(["a", "b"]).group_by(["a", "b"])
                    .aggregate([([], "count_all")])
                    .select(["a", "b"]))
        g = (group.select(["a", "b", extra_min])
             .group_by(["a", "b"]).aggregate([(extra_min, "min")]))
        return g.rename_columns(["a", "b", extra_min])

    return tagged.groupby(_PART_COL).map_groups(_fold,
                                                batch_format="pyarrow")


# -- MinHash + LSH -----------------------------------------------------------

_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
    return a, b


# md5-low64 token hashes (SQL parity: ``md5_number_lower``), cached per
# process: a Ray task worker is reused across tasks, so every shingle and
# simhash stage it runs shares one cache over the heavy-tailed vocabulary
_TOK_HASHES: dict[str, int] = {}


def _tok_hash(tok: str) -> int:
    h = _TOK_HASHES.get(tok)
    if h is None:
        h = tok_hash_sql(tok)
        if len(_TOK_HASHES) < 2_000_000:
            _TOK_HASHES[tok] = h
    return h


class ShingleHasher:
    """Vectorized word-k-gram hasher over the per-process md5-low64 token
    cache: per-token hashes are computed once per DISTINCT token, then
    k-gram shingle hashes are a strided position-weighted polynomial mix
    in numpy (wraps mod 2^64).  Shared by MinHash emission, benchmark
    decontamination and duplicate-n-gram scoring so all three reproduce
    in pure-SQL oracles."""

    MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                    0x165667B19E3779F9, 0x27D4EB2F165667C5,
                    0x85EBCA6B2C2B2AE3], dtype=np.uint64)

    def __init__(self, k: int):
        assert k <= len(self.MIX)
        self.k = k

    def doc_shingles(self, text: str) -> np.ndarray:
        """All k-gram hashes of ``text`` (simple-analyzed, padded with ''
        tokens up to length k so every doc yields ≥1 shingle)."""
        return self.shingles_from_tokens(tokenize_simple(text or ""))

    def shingles_from_tokens(self, toks: list) -> np.ndarray:
        """Same, from a precomputed token list (the fused corpus-filter
        stage tokenizes once and feeds every signal family)."""
        if len(toks) < self.k:
            toks = list(toks) + [""] * (self.k - len(toks))
        h = np.fromiter((_tok_hash(t) for t in toks), dtype=np.uint64,
                        count=len(toks))
        # k-gram polynomial mix: position-weighted sum over the window
        # (order-sensitive, wraps mod 2^64) — vectorized over all windows
        nsh = len(toks) - self.k + 1
        acc = np.zeros(nsh, dtype=np.uint64)
        for j in range(self.k):
            acc += h[j:j + nsh] * self.MIX[j]
        return acc


class MinHashEmitter:
    """map_batches stage: doc → ``bands`` rows (band, band_hash, id).

    Build it once on the driver and pass the instance to ``map_batches``:
    the permutation parameters travel with it and Ray Data runs it as a
    task.  The whole emit→band→pair pipeline is reproducible by the
    pure-SQL DuckDB oracle in ``__ray_entry__``."""

    _SHINGLE_MIX = ShingleHasher.MIX   # oracle constants alias

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 num_perm: int = 64, bands: int = 16, shingle_k: int = 3,
                 seed: int = 7):
        assert num_perm % bands == 0
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.k = num_perm, bands, shingle_k
        self.rows_per_band = num_perm // bands
        self.a, self.b = _perm_params(num_perm, seed)
        self._shingler = ShingleHasher(shingle_k)
        # band signature → 63-bit hash mix constants
        self._band_mix = np.arange(1, self.rows_per_band + 1,
                                   dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        # (n, bands) band hashes, fully vectorized per doc
        band_hashes = np.empty((n, self.bands), dtype=np.int64)
        a, b = self.a, self.b
        for i, t in enumerate(texts):
            sh = self._shingler.doc_shingles(t) % _MERSENNE
            sig = ((a[:, None] * sh[None, :] + b[:, None]) % _MERSENNE).min(axis=1)
            bandsig = sig.reshape(self.bands, self.rows_per_band)
            mixed = (bandsig * self._band_mix[None, :]).sum(axis=1,
                                                            dtype=np.uint64)
            band_hashes[i] = (mixed & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return pa.table({
            "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
            "band_hash": pa.array(band_hashes.ravel()),
            "id": pa.array(np.repeat(ids, self.bands)),
        })


def minhash_candidate_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                            num_perm: int = 64, bands: int = 16,
                            shingle_k: int = 3, seed: int = 7,
                            num_partitions: int = 32):
    """LSH candidate duplicate pairs (a < b), deduplicated across bands.

    Pipeline: emit (band, band_hash, id) → hash-partition on the bucket key
    → vectorized pair emission per partition → native distinct aggregate.
    No per-bucket or per-pair Python UDF calls."""
    emitted = ds.map_batches(
        MinHashEmitter(text_col, id_col, num_perm, bands, shingle_k, seed),
        batch_format="pyarrow")
    tagged = emitted.map_batches(
        functools.partial(_tag_partition, key_cols=["band", "band_hash"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    cand = tagged.groupby(_PART_COL).map_groups(
        functools.partial(_minhash_pairs_partition,
                          key_cols=("band", "band_hash")),
        batch_format="pyarrow")
    return _distinct_pairs(cand)


def dedup_clusters(ds, text_col: str = "text", id_col: str = "doc_id",
                   num_perm: int = 32, bands: int = 8, shingle_k: int = 3,
                   seed: int = 7, jaccard_threshold_micro: int = 500_000,
                   max_driver_edges: int = 2_000_000,
                   cc_num_partitions: int = 16, cc_max_iters: int = 64):
    """Duplicate CLUSTERING — the canonicalization step a training-data
    dedup pipeline runs after candidate generation:

    1. LSH candidate pairs (:func:`minhash_candidate_pairs`, distributed
       banded emission);
    2. exact token-SET Jaccard verification per candidate pair
       (integer-exact: keep iff ``1e6·|A∩B| ≥ thr·|A∪B|``);
    3. connected components over the verified edges;
    4. every document labeled with its cluster = the MIN doc id of its
       component (singletons label themselves).

    Scale shape: the candidate-pair dataset is materialized in the
    OBJECT STORE (spillable) and counted; the driver union-find path is
    entered only when the edge count fits under ``max_driver_edges`` —
    that is the enforced bound on everything the driver gathers (pairs
    plus candidate-touched token sets, both LSH-collision-sized).  Above
    the bound the structural fallback runs instead: distributed pair
    verification (hash-partitioned token-set attach, no driver gather)
    and iterative min-label propagation (alternate edge⋈label joins and
    groupby-min) until fixpoint — O(component diameter) rounds, every
    step a Dataset exchange.  Both paths produce identical labels.

    Returns a Dataset of (``id_col``, ``cluster``)."""
    pairs_ds = minhash_candidate_pairs(
        ds, text_col=text_col, id_col=id_col, num_perm=num_perm,
        bands=bands, shingle_k=shingle_k, seed=seed).materialize()
    if pairs_ds.count() > max_driver_edges:
        return _cluster_distributed_cc(
            ds, pairs_ds, text_col=text_col, id_col=id_col,
            thr=int(jaccard_threshold_micro),
            num_partitions=cc_num_partitions, max_iters=cc_max_iters)
    return _cluster_driver_cc(ds, pairs_ds, text_col=text_col,
                              id_col=id_col,
                              thr=int(jaccard_threshold_micro))


def _cluster_driver_cc(ds, pairs_ds, *, text_col: str, id_col: str,
                       thr: int):
    """Driver-side union-find path: only entered when the dispatcher has
    ALREADY asserted the edge count ≤ ``max_driver_edges``, so the two
    driver gathers below (pairs, candidate token sets) are bounded."""
    import pyarrow.compute as pc

    from ..analyzer import tokenize_simple

    pairs = pairs_ds.take_all()
    edges = [(int(r["a"]), int(r["b"])) for r in pairs]
    cand_ids = sorted({i for e in edges for i in e})

    # token sets for candidate-touched docs only (pruned distributed scan)
    tok_sets: dict[int, frozenset] = {}
    if cand_ids:
        cand_arr = pa.array(cand_ids, pa.int64())

        def _tokens(batch: pa.Table) -> pa.Table:
            keep = pc.is_in(batch[id_col], value_set=cand_arr)
            t = batch.filter(keep)
            ids = t[id_col].to_pylist()
            toks = [sorted(set(tokenize_simple(x or "")))
                    for x in t[text_col].to_pylist()]
            return pa.table({
                id_col: pa.array(ids, pa.int64()),
                "toks": pa.array(toks, pa.list_(pa.string())),
            })

        for r in ds.map_batches(_tokens,
                                batch_format="pyarrow").take_all():
            tok_sets[int(r[id_col])] = frozenset(r["toks"])

    # exact verification (integer-exact; mirrors the SQL oracle)
    verified = []
    for a, b in edges:
        sa, sb = tok_sets[a], tok_sets[b]
        union = len(sa | sb)
        if union == 0 or 1_000_000 * len(sa & sb) >= thr * union:
            verified.append((a, b))

    # union-find over verified edges; component label = min doc id
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in verified:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    label = {x: find(x) for x in {i for e in verified for i in e}}

    import ray
    keys = np.array(sorted(label), dtype=np.int64)
    vals = np.array([label[k] for k in keys], dtype=np.int64)
    map_ref = ray.put((keys, vals))

    def _assign(batch: pa.Table) -> pa.Table:
        ks, vs = ray.get(map_ref)
        ids = batch[id_col].to_numpy().astype(np.int64)
        out = ids.copy()
        if ks.size:
            pos = np.searchsorted(ks, ids)
            pos_c = np.minimum(pos, ks.size - 1)
            hit = ks[pos_c] == ids
            out[hit] = vs[pos_c[hit]]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "cluster": pa.array(out, pa.int64())})

    return ds.select_columns([id_col]).map_batches(
        _assign, batch_format="pyarrow")


_TOKS_T = pa.list_(pa.string())
_TOKH_T = pa.list_(pa.uint64())   # distributed-CC token-hash sets


def _cluster_distributed_cc(ds, pairs_ds, *, text_col: str, id_col: str,
                            thr: int, num_partitions: int, max_iters: int):
    """Structural fallback when the verified-edge set may exceed driver
    memory: nothing about the edge set is ever gathered to the driver.

    - Pair verification: the candidate-node set is derived as a Dataset
      (distinct endpoints), candidate docs are selected by LEFT-SEMI hash
      join (no broadcast), and the token-set attach runs as two
      hash-partitioned union+map_groups stages — first keyed by ``a``
      (attach A's tokens to each pair), then keyed by ``b`` (attach B's
      tokens and verify inline).  Acero joins reject list payloads, so
      the attach uses the same ``_tag_partition`` exchange as the pair
      emitter rather than ``Dataset.join``.  Token sets travel as sorted
      UNIQUE uint64 md5-low64 hashes (``tok_hash_sql``, the minhash-oracle
      hash) instead of strings — the per-partition attach is a
      searchsorted gather and the Jaccard verify is ONE lexsort +
      adjacent-equality count over all pairs at once, no per-pair Python.
      (Exactness caveat vs the string-set driver path: a 64-bit token
      collision inside one doc pair could flip a verdict — ~n²/2⁶⁵ per
      pair, immaterial at any real corpus size; the bounded driver path
      keeps exact strings for the SQL oracle.)
    - Connected components: iterative MIN-LABEL PROPAGATION — each round
      is one int64 hash join (directed edges ⋈ labels) plus one
      groupby-min; labels are monotone non-increasing, so Σlabel is a
      cheap fixpoint detector.  Rounds ≤ component diameter.
    """
    import pyarrow.compute as pc
    import ray  # noqa: F401 — Dataset ops only

    from ..analyzer import tokenize_simple
    from ..util import tok_hash_sql

    # --- candidate nodes (distinct pair endpoints), as a Dataset --------
    def _endpoints(batch: pa.Table) -> pa.Table:
        both = pa.chunked_array([batch["a"].combine_chunks(),
                                 batch["b"].combine_chunks()])
        return pa.table({"node": pc.unique(both).cast(pa.int64())})

    cand_nodes = (pairs_ds.map_batches(_endpoints, batch_format="pyarrow")
                  .groupby("node").count().select_columns(["node"]))

    # --- token sets for candidate docs only (left-semi join prune) ------
    cand_docs = ds.select_columns([id_col, text_col]).join(
        cand_nodes, "left_semi", num_partitions,
        on=(id_col,), right_on=("node",))

    def _toks(batch: pa.Table) -> pa.Table:
        cache: dict[str, int] = {}

        def th(tok: str) -> int:
            h = cache.get(tok)
            if h is None:
                h = cache[tok] = tok_hash_sql(tok)
            return h

        toks = [np.unique(np.fromiter(
                    (th(t) for t in set(tokenize_simple(x or ""))),
                    dtype=np.uint64))
                for x in batch[text_col].to_pylist()]
        return pa.table({"node": batch[id_col].cast(pa.int64()),
                         "toks": pa.array([t for t in toks], _TOKH_T)})

    # materialized once (object store): consumed by BOTH attach stages
    toksets = cand_docs.map_batches(_toks,
                                    batch_format="pyarrow").materialize()

    def _node_runs(tok_rows: pa.Table):
        """(sorted node ids, run starts, run lens, flat hash buffer) for a
        partition's token-set rows — the searchsorted gather side."""
        nodes = tok_rows["k"].to_numpy().astype(np.int64)
        lists = tok_rows["toks"].combine_chunks()
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        buf = lists.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        order = np.argsort(nodes, kind="stable")
        return (nodes[order], offs[:-1][order],
                (offs[1:] - offs[:-1])[order], buf)

    def _gather_runs(buf, starts, lens):
        """buf slices [starts[r], starts[r]+lens[r]) concatenated."""
        total = int(lens.sum())
        if total == 0:
            return buf[:0]
        cum0 = np.concatenate([[0], np.cumsum(lens)[:-1]])
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(cum0, lens) + np.repeat(starts, lens))
        return buf[idx]

    def _lookup(nodes_sorted, keys):
        """searchsorted membership: (position, found-mask)."""
        pos = np.searchsorted(nodes_sorted, keys)
        pos_c = np.minimum(pos, max(len(nodes_sorted) - 1, 0))
        found = (nodes_sorted[pos_c] == keys) if len(nodes_sorted) \
            else np.zeros(len(keys), dtype=bool)
        return pos_c, found

    # --- stage A: attach toks(a) to every pair, co-partitioned by a -----
    def _pairs_keyed_a(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"k": batch["a"].cast(pa.int64()),
                         "a": batch["a"].cast(pa.int64()),
                         "b": batch["b"].cast(pa.int64()),
                         "toks": pa.nulls(n, _TOKH_T)})

    def _toksets_keyed(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"k": batch["node"],
                         "a": pa.nulls(n, pa.int64()),
                         "b": pa.nulls(n, pa.int64()),
                         "toks": batch["toks"]})

    stage_a_in = (pairs_ds.map_batches(_pairs_keyed_a,
                                       batch_format="pyarrow")
                  .union(toksets.map_batches(_toksets_keyed,
                                             batch_format="pyarrow"))
                  .map_batches(functools.partial(_tag_partition,
                                                 key_cols=["k"],
                                                 num_partitions=num_partitions),
                               batch_format="pyarrow"))

    def _attach_a(g: pa.Table) -> pa.Table:
        is_tok = pc.is_null(g["a"])
        nodes, starts, lens, buf = _node_runs(g.filter(is_tok))
        p = g.filter(pc.invert(is_tok))
        a = p["a"].to_numpy().astype(np.int64)
        b = p["b"].to_numpy().astype(np.int64)
        pos, found = _lookup(nodes, a)
        ga_lens = np.where(found, lens[pos], 0)
        flat = _gather_runs(buf, starts[pos], ga_lens)
        toks_a = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(ga_lens)]), pa.int32()),
            pa.array(flat, pa.uint64()))
        return pa.table({"k": pa.array(b, pa.int64()),
                         "a": pa.array(a, pa.int64()),
                         "b": pa.array(b, pa.int64()),
                         "toks_a": toks_a})

    with_toks_a = stage_a_in.groupby(_PART_COL).map_groups(
        _attach_a, batch_format="pyarrow")

    # --- stage B: attach toks(b), verify Jaccard inline, emit edges -----
    def _toksets_keyed_b(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"k": batch["node"],
                         "a": pa.nulls(n, pa.int64()),
                         "b": pa.nulls(n, pa.int64()),
                         "toks_a": pa.nulls(n, _TOKH_T),
                         "toks": batch["toks"]})

    def _pairs_keyed_b(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({"k": batch["k"], "a": batch["a"],
                         "b": batch["b"], "toks_a": batch["toks_a"],
                         "toks": pa.nulls(n, _TOKH_T)})

    stage_b_in = (with_toks_a.map_batches(_pairs_keyed_b,
                                          batch_format="pyarrow")
                  .union(toksets.map_batches(_toksets_keyed_b,
                                             batch_format="pyarrow"))
                  .map_batches(functools.partial(_tag_partition,
                                                 key_cols=["k"],
                                                 num_partitions=num_partitions),
                               batch_format="pyarrow"))

    def _verify_b(g: pa.Table) -> pa.Table:
        is_tok = pc.is_null(g["a"])
        nodes, starts, lens, buf = _node_runs(g.filter(is_tok))
        p = g.filter(pc.invert(is_tok))
        a = p["a"].to_numpy().astype(np.int64)
        b = p["b"].to_numpy().astype(np.int64)
        alists = p["toks_a"].combine_chunks()
        aoffs = alists.offsets.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        abuf = alists.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        la = aoffs[1:] - aoffs[:-1]
        pos, found = _lookup(nodes, b)
        lb = np.where(found, lens[pos], 0)
        bflat = _gather_runs(buf, starts[pos], lb)
        npairs = len(a)
        # one lexsort over (pair, token) of BOTH sides; tokens are unique
        # per side, so an adjacent duplicate == one common token
        pid = np.concatenate([np.repeat(np.arange(npairs), la),
                              np.repeat(np.arange(npairs), lb)])
        tok = np.concatenate([abuf, bflat])
        order = np.lexsort((tok, pid))
        pid_s, tok_s = pid[order], tok[order]
        dup = (np.diff(pid_s) == 0) & (np.diff(tok_s) == 0)
        inter = np.bincount(pid_s[1:][dup], minlength=npairs)
        union = la + lb - inter
        keep = (union == 0) | (1_000_000 * inter >= thr * union)
        return pa.table({"a": pa.array(a[keep], pa.int64()),
                         "b": pa.array(b[keep], pa.int64())})

    verified = stage_b_in.groupby(_PART_COL).map_groups(
        _verify_b, batch_format="pyarrow").materialize()

    ids_only = ds.select_columns([id_col]).map_batches(
        lambda t: pa.table({id_col: t[id_col].cast(pa.int64())}),
        batch_format="pyarrow")

    if verified.count() == 0:
        return ids_only.map_batches(
            lambda t: pa.table({id_col: t[id_col],
                                "cluster": t[id_col]}),
            batch_format="pyarrow")

    # --- min-label propagation over verified edges ----------------------
    def _both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["a"].combine_chunks()
        b = batch["b"].combine_chunks()
        return pa.table({"src": pa.chunked_array([a, b]),
                         "dst": pa.chunked_array([b, a])})

    directed = verified.map_batches(_both_dirs,
                                    batch_format="pyarrow").materialize()

    labels = (directed.map_batches(
        lambda t: pa.table({"node": pc.unique(t["src"].combine_chunks())}),
        batch_format="pyarrow")
        .groupby("node").count()
        .map_batches(lambda t: pa.table({"node": t["node"],
                                         "label": t["node"]}),
                     batch_format="pyarrow")
        .materialize())

    def _exact_label_sum(lbl_ds) -> int:
        """Fixpoint detector: Σlabel with PYTHON-INT precision.  Labels are
        63-bit doc-id hashes, so an int64 aggregate wraps after a handful
        of rows — a wrapped sum could (at ~2^-64/round) collide across a
        round and stop propagation early.  Per-block sums are computed as
        arbitrary-precision ints inside map_batches and shipped as strings;
        the driver adds the (tiny, one-per-block) partials exactly."""
        parts = lbl_ds.map_batches(
            lambda t: pa.table({"s": pa.array(
                [str(sum(t["label"].to_pylist()))], pa.string())}),
            batch_format="pyarrow").take_all()
        return sum(int(r["s"]) for r in parts)

    prev_sum = _exact_label_sum(labels)
    for _ in range(max_iters):
        msgs = (directed.join(labels, "inner", num_partitions,
                              on=("src",), right_on=("node",))
                .map_batches(lambda t: pa.table({"node": t["dst"],
                                                 "label": t["label"]}),
                             batch_format="pyarrow"))
        labels = (labels.union(msgs).groupby("node").min("label")
                  .map_batches(lambda t: pa.table(
                      {"node": t["node"],
                       "label": t["min(label)"]}),
                      batch_format="pyarrow")
                  .materialize())
        cur_sum = _exact_label_sum(labels)
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"label propagation did not converge in {max_iters} rounds "
            "(pathological duplicate-chain diameter); raise cc_max_iters")

    # --- final assignment: left-outer join, singletons label themselves -
    joined = ids_only.join(labels, "left_outer", num_partitions,
                           on=(id_col,), right_on=("node",))

    def _final(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch[id_col],
            "cluster": pc.coalesce(batch["label"], batch[id_col]),
        })

    return joined.map_batches(_final, batch_format="pyarrow")


# -- SimHash -----------------------------------------------------------------

# 16-bit popcount table for vectorized hamming distance (numpy<2 lacks
# bitwise_count)
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    out = _POP16[(x & np.uint64(0xFFFF)).astype(np.int64)].astype(np.int64)
    for s in (16, 32, 48):
        out += _POP16[((x >> np.uint64(s)) & np.uint64(0xFFFF)).astype(np.int64)]
    return out


_SIMHASH_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def simhash_batch(batch: pa.Table, *, text_col: str = "text",
                  out_col: str = "simhash") -> pa.Table:
    """64-bit SimHash over simple-analyzed tokens weighted by tf,
    batch-vectorized; appends ``out_col``.

    Per-token md5-low64 hashes (SQL parity: ``md5_number_lower``) come
    from the per-process token cache (the vocabulary is heavy-tailed);
    the accumulate step is one np.add.at over a (docs × 64) matrix per
    batch instead of a per-token 64-wide Python loop."""
    from collections import Counter
    texts = batch[text_col].to_pylist()
    n = len(texts)
    doc_idx, tok_hashes, tfs = [], [], []
    for i, t in enumerate(texts):
        c = Counter(tokenize_simple(t or ""))
        doc_idx.extend([i] * len(c))
        tok_hashes.extend(_tok_hash(tok) for tok in c)
        tfs.extend(c.values())
    if tok_hashes:
        hs = np.array(tok_hashes, dtype=np.uint64)
        w = np.array(tfs, dtype=np.int64)
        d = np.array(doc_idx, dtype=np.int64)
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int64)
        contrib = (2 * bits - 1) * w[:, None]
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, d, contrib)
        sh = ((acc > 0).astype(np.uint64) * _SIMHASH_BITS[None, :]) \
            .sum(axis=1, dtype=np.uint64)
    else:
        sh = np.zeros(n, dtype=np.uint64)
    return batch.append_column(out_col, pa.array(sh.astype(np.int64)))


def simhash64(text: str) -> int:
    """64-bit SimHash of one text (scalar wrapper of :func:`simhash_batch`)."""
    t = pa.table({"text": [text]})
    return int(simhash_batch(t)["simhash"][0].as_py()) & ((1 << 64) - 1)


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_SIM_PAIRS_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("hamming", pa.int64())])


def _simhash_pairs_partition(group: pa.Table, *, key_cols,
                             max_hamming: int) -> pa.Table:
    """Vectorized near-dup pair emission for one hash partition: pairwise
    XOR + table-lookup popcount per multi-member bucket."""
    group, starts, ends = _bucket_runs(group, list(key_cols))
    if len(starts) == 0:
        return _SIM_PAIRS_SCHEMA.empty_table()
    ids = group["id"].to_numpy(zero_copy_only=False)
    shs = group["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    out_a, out_b, out_h = [], [], []
    for s, e in zip(starts, ends):
        run_ids = ids[s:e]
        run_sh = shs[s:e]
        # dedup ids within bucket (same id can land twice via chunk ties)
        uniq, idx = np.unique(run_ids, return_index=True)
        m = len(uniq)
        if m < 2:
            continue
        sh = run_sh[idx]
        iu = np.triu_indices(m, k=1)
        ham = _popcount64(sh[iu[0]] ^ sh[iu[1]])
        keep = ham <= max_hamming
        out_a.append(uniq[iu[0][keep]])
        out_b.append(uniq[iu[1][keep]])
        out_h.append(ham[keep])
    if not out_a:
        return _SIM_PAIRS_SCHEMA.empty_table()
    return pa.table({"a": pa.array(np.concatenate(out_a)),
                     "b": pa.array(np.concatenate(out_b)),
                     "hamming": pa.array(np.concatenate(out_h))})


def simhash_candidates(ds, text_col: str = "text", id_col: str = "doc_id",
                       max_hamming: int = 7, chunks: int = 8,
                       num_partitions: int = 32):
    """Near-dup candidate pairs by SimHash banding: ``chunks`` equal bit
    slices of the 64-bit signature — any pair within hamming < ``chunks``
    shares at least one slice (pigeonhole), so recall is complete for
    ``max_hamming`` ≤ chunks-1; candidates verified by exact hamming."""
    assert 64 % chunks == 0
    bits = 64 // chunks
    mask = np.uint64((1 << bits) - 1)
    hashed = ds.map_batches(simhash_batch, batch_format="pyarrow",
                            fn_kwargs={"text_col": text_col})

    def explode(batch: pa.Table) -> pa.Table:
        sh = batch["simhash"].to_numpy().astype(np.uint64)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = len(sh)
        chunk = np.repeat(np.arange(chunks, dtype=np.int32), n)
        chunk_val = np.concatenate(
            [((sh >> np.uint64(bits * c)) & mask).astype(np.int64)
             for c in range(chunks)])
        return pa.table({
            "chunk": pa.array(chunk),
            "chunk_val": pa.array(chunk_val),
            "id": pa.array(np.tile(ids, chunks)),
            "simhash": pa.array(np.tile(sh.astype(np.int64), chunks)),
        })

    exploded = hashed.map_batches(explode, batch_format="pyarrow")
    tagged = exploded.map_batches(
        functools.partial(_tag_partition, key_cols=["chunk", "chunk_val"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    cand = tagged.groupby(_PART_COL).map_groups(
        functools.partial(_simhash_pairs_partition,
                          key_cols=("chunk", "chunk_val"),
                          max_hamming=max_hamming),
        batch_format="pyarrow")
    return _distinct_pairs(cand, extra_min="hamming")


# -- incremental (cross-epoch) exact dedup -----------------------------------


def _publish_state(rows, state_dir: str, partition_col: str, meta: dict,
                   chaos_stage: str) -> str:
    """Write ``rows`` (hive-partitioned on ``partition_col``) and then
    ``_STATE_META.json`` into the temp sibling ``<state_dir>.tmp``, and
    rename that over ``state_dir``.  A crash anywhere before the rename
    leaves ``state_dir`` as it was, so a rerun that finds no meta
    rewrites the state whole instead of appending a second copy of the
    rows to a half-written directory."""
    import json
    import os
    import shutil

    tmp = state_dir.rstrip("/") + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    rows.write_parquet(tmp, partition_cols=[partition_col])
    os.makedirs(tmp, exist_ok=True)
    chaos_kill_once(chaos_stage)
    with open(os.path.join(tmp, "_STATE_META.json"), "w") as f:
        f.write(json.dumps(meta))
    shutil.rmtree(state_dir, ignore_errors=True)
    os.replace(tmp, state_dir)
    return state_dir


def write_seen_hashes(ds, state_dir: str, *, text_col: str = "text",
                      num_buckets: int = 32) -> str:
    """Persist the corpus's content-hash SET as a hash-bucketed parquet
    layout (``bucket=B/*.parquet``, one int64 column ``h``) — the crawl
    state an INCREMENTAL dedup probes against.  Hashes only (8 B/doc),
    bucketed by ``h % num_buckets`` so a later probe co-partitions
    against exactly one bucket's files; at 10^12 docs each bucket is an
    independently readable ~TB-scale shard set.  The write is atomic
    (:func:`_publish_state`)."""
    if num_buckets & (num_buckets - 1):
        raise ValueError("num_buckets must be a power of two (the bucket "
                         "tag is an exact bit mask — float modulo would "
                         "lose low bits of 63-bit hashes)")

    def hb(batch: pa.Table) -> pa.Table:
        t = content_hash_batch(batch, text_col=text_col)
        h = t["content_hash"]
        b = pc.bit_wise_and(h, pa.scalar(num_buckets - 1, pa.int64()))
        return pa.table({"h": h, "bucket": b})

    return _publish_state(ds.map_batches(hb, batch_format="pyarrow"),
                          state_dir, "bucket", {"num_buckets": num_buckets},
                          "seen_hashes_meta")


def incremental_dedup(ds, state_dir: str, *, text_col: str = "text",
                      id_col: str = "doc_id"):
    """Cross-epoch exact dedup (the continuous-crawl shape): keep only
    docs whose content hash is ABSENT from a previously persisted
    :func:`write_seen_hashes` state.  The probe is CO-PARTITIONED: new
    docs ship only (id, hash, bucket) — never text — through one
    hash-keyed exchange, and each ``map_groups`` task lazily reads just
    ITS bucket's state files inside the task (the state is never
    broadcast, never driver-materialized), so both sides scale
    independently: state 10^12 hashes, delta O(crawl batch).  Survivors
    are returned as (doc_id, content_hash); fetching full rows is a
    docstore join at export time."""
    import json as _json
    import os as _os

    with open(_os.path.join(state_dir, "_STATE_META.json")) as f:
        nb = int(_json.loads(f.read())["num_buckets"])

    def hb(batch: pa.Table) -> pa.Table:
        t = content_hash_batch(batch, text_col=text_col)
        h = t["content_hash"]
        return pa.table({
            id_col: t[id_col], "h": h,
            "bucket": pc.bit_wise_and(h, pa.scalar(nb - 1, pa.int64())),
        })

    def probe(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "content_hash": pa.array([], pa.int64())})
        b = int(group["bucket"][0].as_py())
        bd = _os.path.join(state_dir, f"bucket={b}")
        seen = np.array([], dtype=np.int64)
        if _os.path.isdir(bd):
            import pyarrow.parquet as _pq
            files = [_os.path.join(bd, f) for f in sorted(_os.listdir(bd))
                     if f.endswith(".parquet")]
            if files:
                seen = pa.concat_tables(
                    [_pq.read_table(f, columns=["h"]) for f in files]
                )["h"].to_numpy(zero_copy_only=False)
                seen = np.unique(seen)
        h = group["h"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(seen, h)
        idx = np.minimum(idx, max(0, seen.size - 1))
        dup = (seen[idx] == h) if seen.size else np.zeros(h.size, bool)
        keep = group.filter(pa.array(~dup))
        return pa.table({id_col: keep[id_col],
                         "content_hash": keep["h"]})

    tagged = ds.map_batches(hb, batch_format="pyarrow")
    return tagged.groupby("bucket").map_groups(probe,
                                               batch_format="pyarrow")


# -- incremental (cross-epoch) MinHash-LSH near-dup filter -------------------


def write_minhash_state(ds, state_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", num_perm: int = 32,
                        bands: int = 8, shingle_k: int = 3, seed: int = 7,
                        num_buckets: int = 16) -> str:
    """Persist the corpus's LSH BAND-KEY set — (band, band_hash) pairs,
    16 B/doc/band — partitioned by ``gk = band · num_buckets +
    (band_hash & (num_buckets−1))`` so a later probe co-partitions
    against exactly one directory per group (``gk`` uniquely encodes the
    band, so membership inside a group tests band_hash alone).  The
    near-dup analog of :func:`write_seen_hashes`, written atomically the
    same way."""
    if num_buckets & (num_buckets - 1):
        raise ValueError("num_buckets must be a power of two")
    rows = ds.map_batches(
        MinHashEmitter(text_col, id_col, num_perm, bands, shingle_k, seed),
        batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        gk = pc.add(
            pc.multiply(pc.cast(t["band"], pa.int64()),
                        pa.scalar(num_buckets, pa.int64())),
            pc.bit_wise_and(t["band_hash"],
                            pa.scalar(num_buckets - 1, pa.int64())))
        return pa.table({"band_hash": t["band_hash"], "gk": gk})

    return _publish_state(
        rows.map_batches(tag, batch_format="pyarrow"), state_dir, "gk",
        {"num_buckets": num_buckets, "num_perm": num_perm, "bands": bands,
         "shingle_k": shingle_k, "seed": seed}, "minhash_state_meta")


def incremental_near_dup_filter(ds, state_dir: str, *,
                                text_col: str = "text",
                                id_col: str = "doc_id"):
    """Cross-epoch NEAR-dup filter (the continuous-crawl MinHash shape):
    drop every doc sharing ≥1 LSH band key with a previously persisted
    :func:`write_minhash_state` corpus.  Probe rows are (id, band_hash,
    gk) — never text; each ``map_groups`` task lazily reads only ITS
    group's state files (one sorted int64 membership searchsorted) and
    emits (id, hit) votes: every row of a band-0 group — every doc has
    exactly one band-0 row, short docs being padded to one shingle — and
    the collided rows of the other bands; one id-keyed sum
    (``keys_with_sum``) then keeps the ids with no hit (the corpus_filter
    vote pattern), so the upstream runs once.  Candidate-level semantics (any band
    collision drops — the production LSH-filter behavior; Jaccard
    verification is :func:`dedup_clusters`' job).
    Returns surviving (doc_id) rows."""
    import json as _json
    import os as _os

    with open(_os.path.join(state_dir, "_STATE_META.json")) as f:
        meta = _json.loads(f.read())
    nb = int(meta["num_buckets"])

    rows = ds.map_batches(
        MinHashEmitter(text_col, id_col, int(meta["num_perm"]),
                       int(meta["bands"]), int(meta["shingle_k"]),
                       int(meta["seed"])),
        batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        gk = pc.add(
            pc.multiply(pc.cast(t["band"], pa.int64()),
                        pa.scalar(nb, pa.int64())),
            pc.bit_wise_and(t["band_hash"],
                            pa.scalar(nb - 1, pa.int64())))
        return pa.table({id_col: t["id"], "band_hash": t["band_hash"],
                         "gk": gk})

    def probe(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "hit": pa.array([], pa.int64())})
        gk = int(group["gk"][0].as_py())
        gd = _os.path.join(state_dir, f"gk={gk}")
        seen = np.array([], dtype=np.int64)
        if _os.path.isdir(gd):
            import pyarrow.parquet as _pq
            files = [_os.path.join(gd, f) for f in sorted(_os.listdir(gd))
                     if f.endswith(".parquet")]
            if files:
                seen = np.unique(pa.concat_tables(
                    [_pq.read_table(f, columns=["band_hash"])
                     for f in files])["band_hash"]
                    .to_numpy(zero_copy_only=False))
        h = group["band_hash"].to_numpy(zero_copy_only=False)
        idx = np.minimum(np.searchsorted(seen, h), max(0, seen.size - 1))
        dup = pa.array((seen[idx] == h) if seen.size
                       else np.zeros(h.size, bool))
        votes = pa.table({id_col: group[id_col],
                          "hit": pc.cast(dup, pa.int64())})
        return votes if gk < nb else votes.filter(dup)   # gk < nb: band 0

    votes = rows.map_batches(tag, batch_format="pyarrow") \
        .groupby("gk").map_groups(probe, batch_format="pyarrow")
    return keys_with_sum(votes, id_col, "hit", 0)
