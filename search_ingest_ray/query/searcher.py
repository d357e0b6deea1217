"""BM25 top-k query serving over the segmented index (operator E10).

Replaces the query half the reference delegates to Elasticsearch.  The
scorer is exact (rank- AND score-identical to the brute-force oracle in
``bm25.oracle_topk``) while pruning posting blocks with block-max metadata —
a vectorized MaxScore/Block-Max-WAND hybrid:

1.  Analyze the query with the index's analyzer; resolve each term's
    posting lists (a hot term has up to S salted sub-lists living in
    different term partitions — see build.py E12).
2.  Fully score the term with the greatest list max; the k-th best partial
    score is a valid LOWER bound θ on the true k-th best total (true scores
    only grow as more terms accumulate).
3.  For every remaining list, a block b can contain a top-k doc only if
    ``block_max(b) + Σ_{other terms} term_max < θ`` is false — any doc whose
    blocks are all pruned has true score < θ and cannot enter the top-k; any
    doc that survives in every term containing it gets an EXACT score.
    Hence results (ids and scores) are exactly those of exhaustive scoring.
4.  Accumulate decoded (docid, contribution) pairs with np.unique +
    np.add.at; top-k by (-score, docid) — the deterministic tie-break that
    rank-identity requires.

The Searcher is designed to be held inside a Ray actor pool
(``map_batches(QueryScorer, concurrency=N)``) — segment handles, stats and
the analyzer load once per actor (the analog of the reference's pooled
long-lived ES clients, /root/reference/src/search-ingest/elastic.cr:62-93).
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analyzer import get_analyzer
from ..codec import BLOCK, decode_varint
from ..util import read_json, term_partition
from .bm25 import BM25Params, similarity_scores, term_scores


def _isin_sorted_i64(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """values ∈ sorted_arr, vectorized (both int64, sorted_arr ascending)."""
    if sorted_arr.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx = np.minimum(idx, sorted_arr.size - 1)
    return sorted_arr[idx] == values


def _levenshtein_leq(a: str, b: str, k: int) -> bool:
    """Banded Levenshtein ``dist(a, b) <= k`` (early-exit row DP; the band
    keeps each row O(k) useful cells so the vocab scan in
    :meth:`Searcher.fuzzy_terms` stays cheap for small k)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = max(1, i - k)
        hi = min(lb, i + k)
        if lo > 1:
            cur[lo - 1] = k + 1  # outside the band
        ca = a[i - 1]
        best = i if i <= k else k + 1  # column 0 is in the band iff i <= k
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            best = min(best, cur[j])
        if best > k:
            return False
        for j in range(hi + 1, lb + 1):
            cur[j] = k + 1
        prev = cur
    return prev[lb] <= k


def _merge_acc(acc_ids: np.ndarray, acc_sc: np.ndarray,
               part_d: list[np.ndarray], part_s: list[np.ndarray]):
    """Merge per-list (docid, score) contributions into the sorted running
    accumulator (docid-unique, summed scores)."""
    if not part_d:
        return acc_ids, acc_sc
    ids = np.concatenate([acc_ids] + part_d)
    sc = np.concatenate([acc_sc] + part_s)
    uniq, inv = np.unique(ids, return_inverse=True)
    out = np.zeros(uniq.size, dtype=np.float64)
    np.add.at(out, inv, sc)
    return uniq, out


_NO_DEAD = np.empty(0, dtype=np.int64)


def maxscore_topk(terms: list, k: int, p: BM25Params,
                  filters: dict | None = None):
    """Exact top-k of an OR query by two-phase MaxScore (term-at-a-time) —
    the one driver behind :meth:`Searcher.search_terms` and
    ``MultiEpochSearcher.search_terms``.

    ``terms``: one ``(mult, df, ub, lists)`` per distinct query term, where
    ``ub`` is a sound upper bound on the term's (mult-weighted) score in
    any doc and each list is ``(searcher, row, dead_after)``: a posting-list
    row of ``searcher`` plus the sorted docids it must suppress (dead in a
    later chain epoch; empty for a single epoch).  Scores are
    ``mult · BM25(tf, dl; df, p)``.  Returns (docids int64[], scores
    float64[]) sorted by (-score, docid).

    - ESSENTIAL phase — terms in descending ``ub`` order (stable, so the
      caller's order breaks ties) are fully decoded into a running exact
      accumulator; after each term θ = the k-th best running total (a
      valid lower bound on the k-th best final total, since totals only
      grow).  As soon as ``θ > Σ_{remaining} ub``, no unseen doc can reach
      the top-k and the remaining terms switch to:
    - CANDIDATE phase — for each remaining term only docs with
      ``running_total + Σ_{this term onward} ub ≥ θ`` can still make the
      cut; decode ONLY the blocks whose docid range contains a candidate
      (:meth:`Searcher._blocks_for_candidates`) and accumulate just the
      candidates' contributions.

    Exactness: every true top-k doc d satisfies the candidate condition at
    every step (its final total ≥ k-th final ≥ θ), so it is scored
    EXACTLY; a doc dropped from candidacy keeps a partial score strictly
    below θ ≤ k-th final and can never surface.  Hence ids and scores
    equal exhaustive scoring (brute-force oracle and full-rebuild tests).
    Filtered queries stay exact the same way: θ and candidates are derived
    from FILTERED partials only (each list's own searcher evaluates the
    filter); ``df`` and ``p`` are the unfiltered statistics (ES semantics:
    filters restrict candidates, never statistics)."""
    terms = sorted(terms, key=lambda x: -x[2])
    # suffix_ub[j] = Σ_{i ≥ j} ub of terms[i]
    suffix_ub = np.cumsum([x[2] for x in terms][::-1])[::-1]
    acc_ids = np.empty(0, dtype=np.int64)
    acc_sc = np.empty(0, dtype=np.float64)
    theta = -np.inf
    split = len(terms)
    for j, (mult, df, _, lists) in enumerate(terms):
        if j > 0 and theta > suffix_ub[j]:
            split = j
            break
        part_d, part_s = [], []
        for s, row, dead_after in lists:
            d, tf, dl = s._decode_list(row)
            if d.size == 0:
                continue
            if dead_after.size:
                keep = ~_isin_sorted_i64(d.astype(np.int64), dead_after)
                if not keep.any():
                    continue
                d, tf, dl = d[keep], tf[keep], dl[keep]
            if filters:
                keep = s.fields.mask(d.astype(np.int64), filters)
                if not keep.any():
                    continue
                d, tf, dl = d[keep], tf[keep], dl[keep]
            part_d.append(d.astype(np.int64))
            part_s.append(mult * term_scores(tf, dl, df, p))
        acc_ids, acc_sc = _merge_acc(acc_ids, acc_sc, part_d, part_s)
        if acc_ids.size >= k:
            theta = max(theta, float(np.partition(acc_sc, -k)[-k]))

    for j in range(split, len(terms)):
        mult, df, _, lists = terms[j]
        cand = acc_ids[acc_sc + suffix_ub[j] >= theta]
        if cand.size == 0:
            break  # nobody can gain; no unseen doc can enter either
        part_d, part_s = [], []
        for s, row, dead_after in lists:
            keep = s._blocks_for_candidates(row, cand)
            if not keep.any():
                continue
            d, tf, dl = s._decode_list(row, keep=keep)
            sel = _isin_sorted_i64(d.astype(np.int64), cand)
            if dead_after.size:
                sel &= ~_isin_sorted_i64(d.astype(np.int64), dead_after)
            if not sel.any():
                continue
            d, tf, dl = d[sel], tf[sel], dl[sel]
            part_d.append(d.astype(np.int64))
            part_s.append(mult * term_scores(tf, dl, df, p))
        acc_ids, acc_sc = _merge_acc(acc_ids, acc_sc, part_d, part_s)
        if acc_ids.size >= k:
            theta = max(theta, float(np.partition(acc_sc, -k)[-k]))

    if acc_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # top-k by (-score, docid): lexsort last key is primary
    top = np.lexsort((acc_ids, -acc_sc))[:min(k, acc_ids.size)]
    return acc_ids[top], acc_sc[top]


def _cumcount(codes: np.ndarray) -> np.ndarray:
    """Per-element cumulative occurrence number of its value, in array
    order (pandas ``groupby.cumcount``), fully vectorized: stable-sort by
    value, number each run from its start, scatter back (the
    _run_firsts/cumsum pattern from dedup.py).  O(n log n), no per-value
    Python loop — property-tested against a Counter reference."""
    byval = np.argsort(codes, kind="stable")
    cs = codes[byval]
    new = np.ones(cs.size, dtype=bool)
    new[1:] = cs[1:] != cs[:-1]
    run_start = np.flatnonzero(new)
    run_id = np.cumsum(new) - 1
    out = np.empty(cs.size, dtype=np.int64)
    out[byval] = np.arange(cs.size, dtype=np.int64) - run_start[run_id]
    return out


def _ints(col) -> np.ndarray:
    """The present values of an integer or timestamp docvalue column as
    exact int64 (timestamps in microseconds), missing values dropped —
    ES skips docs without the field."""
    if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
        col = col.cast(pa.timestamp("us"))
    return col.drop_null().cast(pa.int64()).to_numpy()


def _micro_moments(n: int, s: int, ss: int = 0):
    """(avg_micro, var_micro) of n exact integer values with sum ``s`` and
    sum of squares ``ss``: ``(s·10⁶) // n`` and the population variance
    ``((n·ss − s²)·10⁶) // n²``, in Python bigints so the DuckDB HUGEINT
    oracles are bit-identical (a float mean or variance would be
    summation-order-sensitive).  (None, None) for n = 0."""
    if not n:
        return None, None
    return (s * 1_000_000) // n, ((n * ss - s * s) * 1_000_000) // (n * n)


def _nearest_rank(srt: np.ndarray, p) -> int | None:
    """Exact nearest-rank percentile ``p`` of ascending values: the value
    at 1-based rank ``ceil(p/100 · n)`` (None when there are none)."""
    if srt.size == 0:
        return None
    return int(srt[max(int(np.ceil(p / 100 * srt.size)), 1) - 1])


def term_row_range(tcol, term: str) -> tuple[int, int]:
    """Row range ``[lo, hi)`` of ``term`` in a (term, salt)-sorted
    dictionary column — two bisects of O(log n) scalar accesses each.
    Replaces the per-partition ``{term: [rows]}`` Python dict, which
    enumerated the whole vocabulary at load time."""
    lo, hi = 0, len(tcol)
    while lo < hi:
        mid = (lo + hi) >> 1
        if tcol[mid].as_py() < term:
            lo = mid + 1
        else:
            hi = mid
    start, hi = lo, len(tcol)
    while lo < hi:
        mid = (lo + hi) >> 1
        if tcol[mid].as_py() <= term:
            lo = mid + 1
        else:
            hi = mid
    return start, lo


def expansion_pairs(terms: np.ndarray, dfs: np.ndarray, kind: str, arg):
    """(term, df) pairs of ONE term-sorted dictionary column matching an
    expansion probe — the single implementation of the prefix / fuzzy /
    wildcard predicates, shared by the local per-partition scan
    (:meth:`Searcher._vocab_agg`) and the shard-side scan
    (``sharded.PartitionShard.expand``) so expansion semantics cannot
    drift between local and sharded serving."""
    if kind == "prefix":
        lo = int(np.searchsorted(terms, arg, side="left"))
        hi = int(np.searchsorted(terms, arg + "\U0010ffff", side="right"))
        return zip(terms[lo:hi], dfs[lo:hi])
    if kind == "fuzzy":
        probe, dist = arg
        lp = len(probe)
        return ((t, d) for t, d in zip(terms, dfs)
                if abs(len(t) - lp) <= dist  # length prefilter skips the DP
                and _levenshtein_leq(probe, t, dist))
    if kind == "wildcard":
        import fnmatch
        import re
        rx = re.compile(fnmatch.translate(arg))
        return ((t, d) for t, d in zip(terms, dfs) if rx.match(t) is not None)
    if kind == "regexp":
        import re
        rx = re.compile(arg)
        return ((t, d) for t, d in zip(terms, dfs)
                if rx.fullmatch(t) is not None)
    raise ValueError(f"unknown expansion {kind!r}")


def merge_expansion(pair_lists, k: int) -> list[tuple[str, int]]:
    """Collapse (term, df) pairs from several dictionary scans by max df
    (exact: every salted sub-list stores the GLOBAL df) and rank
    (-df, term) top-k — the one merge used by the local partition loop and
    the sharded coordinator's gather."""
    agg: dict[str, int] = {}
    for pairs in pair_lists:
        for t, d in pairs:
            got = agg.get(t)
            if got is None or d > got:
                agg[t] = int(d)
    return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


class Searcher:
    def __init__(self, index_root: str, epoch: int = 0):
        from ..aliases import resolve as _resolve_alias
        index_root = _resolve_alias(index_root)  # accepts "alias:NAME"
        self.index_root = index_root
        ed = os.path.join(index_root, "epochs", f"e{epoch:04d}")
        self._epoch_dir = ed
        self.stats = read_json(os.path.join(ed, "stats.json"))
        self.meta = read_json(os.path.join(index_root, "index_meta.json"))
        self.segments_dir = os.path.join(ed, "segments")
        self._fields = None  # lazy FieldStore (docvalues sidecar)
        self.params = BM25Params(k1=self.stats["k1"], b=self.stats["b"],
                                 n_docs=self.stats["n_docs"],
                                 avgdl=self.stats["avgdl"])
        self.P = self.stats["num_term_partitions"]
        self.S = self.stats["hot_salt"]
        self.hot = self.stats["hot_terms"]
        self.analyze = get_analyzer(self.stats["analyzer"])
        self._parts: dict[int, tuple | None] = {}
        self._vocab_cache: dict[int, tuple] = {}
        self._term_cache: dict[str, list[dict]] = {}
        self._term_cache_cap = 100_000

    # -- segment access ------------------------------------------------------

    def _part(self, tpart: int):
        """Load a term partition's dictionary + mmap its postings file —
        once per Searcher (the actor-pool analog of an open Lucene segment:
        term dict in memory, postings read by byte range)."""
        ent = self._parts.get(tpart, -1)
        if ent != -1:
            return ent
        d = os.path.join(self.segments_dir, f"tpart={tpart:05d}")
        meta_path = os.path.join(d, "segment.parquet")
        if not os.path.exists(meta_path):
            self._parts[tpart] = None
            return None
        tbl = pq.read_table(meta_path)
        # term lookups bisect the (term, salt)-sorted dictionary column —
        # no vocab-sized Python dict (enumerating a 1M-term partition
        # costs seconds and ~100 MB of boxed strings per actor)
        tcol = tbl["term"].combine_chunks()
        data = np.memmap(os.path.join(d, "postings.bin"), dtype=np.uint8,
                         mode="r")
        ent = (tbl, tcol, data)
        self._parts[tpart] = ent
        return ent

    def warm(self) -> int:
        """Preload every partition's term dictionary (actors call this once
        at startup so serving latency excludes cold dictionary loads)."""
        n = 0
        for tp in range(self.P):
            if self._part(tp) is not None:
                n += 1
        return n

    def _rows_for(self, ent, term: str) -> list[dict]:
        tbl, tcol, data = ent
        rows = []
        for i in range(*term_row_range(tcol, term)):
            r = tbl.slice(i, 1).to_pylist()[0]
            r["doc_blob"] = bytes(data[r["doc_off"]:r["doc_off"] + r["doc_len"]])
            r["tf_blob"] = bytes(data[r["tf_off"]:r["tf_off"] + r["tf_len"]])
            r["dl_blob"] = bytes(data[r["dl_off"]:r["dl_off"] + r["dl_len"]])
            if "pos_off" in r and r["pos_off"] is not None:
                r["pos_blob"] = bytes(data[r["pos_off"]:r["pos_off"] + r["pos_len"]])
            rows.append(r)
        return rows

    def _vocab_np(self, tpart: int):
        """(terms, dfs) numpy views of one partition's dictionary, cached —
        expansion queries (wildcard / fuzzy / suggest / significant-terms)
        scan the vocabulary linearly; materializing the string column per
        QUERY would cost ~100 ms per million terms."""
        got = self._vocab_cache.get(tpart)
        if got is not None:
            return got
        ent = self._part(tpart)
        if ent is None:
            self._vocab_cache[tpart] = (None, None)
            return self._vocab_cache[tpart]
        tbl = ent[0]
        got = (tbl["term"].to_numpy(zero_copy_only=False),
               tbl["df"].to_numpy())
        self._vocab_cache[tpart] = got
        return got

    def _lookup(self, terms: list[str]) -> dict[str, list[dict]]:
        """Fetch posting-list rows for terms, grouped per term.  The term
        dictionary of each touched partition loads once; postings come from
        the mmap by byte range.  Results cached per term."""
        cached = {t: self._term_cache[t] for t in terms if t in self._term_cache}
        terms = [t for t in terms if t not in cached]
        if not terms:
            return cached
        out: dict[str, list[dict]] = {t: [] for t in terms}
        for t in terms:
            parts = ([term_partition(t, self.P, salt=s) for s in range(self.S)]
                     if t in self.hot else [term_partition(t, self.P)])
            for tp in dict.fromkeys(parts):
                ent = self._part(tp)
                if ent is not None:
                    out[t].extend(self._rows_for(ent, t))
        if len(self._term_cache) < self._term_cache_cap:
            self._term_cache.update(out)
        out.update(cached)
        return out

    def df_of(self, term: str) -> int:
        """Exact global df for ``term`` from the dictionary alone — no
        posting-blob copies (every salted sub-list stores the exact GLOBAL
        df, so max over hits is exact; 0 if the term is absent).  The
        cheap path for aggregations that only need df per candidate term
        (significant_terms / term_vectors / more_like_this): ``_lookup``
        would copy each term's full doc/tf/dl[/pos] blobs out of the mmap
        — O(total postings of every candidate) bytes — and flood the term
        cache with one-off entries."""
        parts = ([term_partition(term, self.P, salt=s) for s in range(self.S)]
                 if term in self.hot else [term_partition(term, self.P)])
        best = 0
        for tp in dict.fromkeys(parts):
            ent = self._part(tp)
            if ent is None:
                continue
            tbl, tcol, _ = ent
            for i in range(*term_row_range(tcol, term)):
                df = tbl["df"][i].as_py()
                if df > best:
                    best = int(df)
        return best

    def _dfs_of(self, terms: list[str]) -> dict[str, int]:
        """Bulk :meth:`df_of` (absent terms map to 0).  Overridden by the
        sharded coordinator with one parallel shard gather — call this, not
        ``df_of`` in a loop, from multi-candidate aggregations."""
        return {t: self.df_of(t) for t in terms}

    @property
    def fields(self):
        """Docvalues store (built with ``build_index(store_fields=...)``)."""
        if self._fields is None:
            from .fields import FieldStore
            self._fields = FieldStore(self._epoch_dir)
        return self._fields

    def get_fields(self, docids: np.ndarray, cols: list[str]) -> dict:
        """Docstore retrieval (``MultiEpochSearcher.get_fields`` on a
        chain); unknown docids yield null."""
        return self.fields.get(docids, cols)

    # -- scoring -------------------------------------------------------------

    @staticmethod
    def _blocks_for_candidates(row: dict, cand: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over a list's blocks: block b (docid range
        ``(skip_last[b-1], skip_last[b]]``) is kept iff it contains at
        least one of the SORTED candidate docids — the non-essential-term
        decode set of the two-phase MaxScore in :func:`maxscore_topk`."""
        last = np.asarray(row["skip_last"], dtype=np.uint64).astype(np.int64)
        idx = np.searchsorted(cand, last, side="right")
        keep = np.empty(last.size, dtype=bool)
        keep[0] = idx[0] > 0
        keep[1:] = idx[1:] > idx[:-1]
        return keep

    @staticmethod
    def _decode_list(row: dict, keep: np.ndarray | None = None):
        """Decode a posting-list row — all blocks, or only the blocks inside
        a precomputed ``keep`` mask (the two-phase candidate split computes
        the mask from ``skip_last`` ranges).  Returns (docids, tfs, dls)."""
        n = row["n"]
        skip_max = np.asarray(row["skip_max"], dtype=np.float32)
        nblocks = len(skip_max)
        if keep is None:
            keep = np.ones(nblocks, dtype=bool)
        if not keep.any():
            e = np.empty(0, dtype=np.uint64)
            return e, e, e
        doc_off = np.asarray(row["skip_doc_off"])
        tf_off = np.asarray(row["skip_tf_off"])
        dl_off = np.asarray(row["skip_dl_off"])
        last = np.asarray(row["skip_last"], dtype=np.uint64)
        doc_blob = np.frombuffer(row["doc_blob"], dtype=np.uint8)
        tf_blob = np.frombuffer(row["tf_blob"], dtype=np.uint8)
        dl_blob = np.frombuffer(row["dl_blob"], dtype=np.uint8)

        if keep.all():
            deltas = decode_varint(doc_blob, count=n)
            docids = np.cumsum(deltas, dtype=np.uint64)
            tfs = decode_varint(tf_blob, count=n)
            dls = decode_varint(dl_blob, count=n)
            return docids, tfs, dls

        d_parts, t_parts, l_parts = [], [], []
        for b in np.flatnonzero(keep):
            b = int(b)
            lo, hi = int(doc_off[b]), int(doc_off[b + 1]) if b + 1 < nblocks else len(doc_blob)
            cnt = min(BLOCK, n - b * BLOCK)
            deltas = decode_varint(doc_blob[lo:hi], count=cnt)
            base = last[b - 1] if b > 0 else np.uint64(0)
            d_parts.append(np.cumsum(deltas, dtype=np.uint64) + base)
            tlo = int(tf_off[b])
            thi = int(tf_off[b + 1]) if b + 1 < nblocks else len(tf_blob)
            t_parts.append(decode_varint(tf_blob[tlo:thi], count=cnt))
            llo = int(dl_off[b])
            lhi = int(dl_off[b + 1]) if b + 1 < nblocks else len(dl_blob)
            l_parts.append(decode_varint(dl_blob[llo:lhi], count=cnt))
        return (np.concatenate(d_parts), np.concatenate(t_parts),
                np.concatenate(l_parts))

    def search_terms(self, terms: list[str], k: int = 10,
                     filters: dict | None = None):
        """Top-k for an OR (match) query over analyzed terms, optionally
        restricted to documents matching structured-field ``filters``
        (see :meth:`FieldStore.mask` for the spec grammar).

        Returns (docids int64[], scores float64[]) sorted by (-score,
        docid), exactly those of exhaustive scoring: the two-phase
        MaxScore of :func:`maxscore_topk` prunes posting blocks with each
        term's stored list maxes as its upper bound."""
        # duplicate query terms contribute multiplied scores (Lucene semantics)
        mult: dict[str, int] = {}
        for t in terms:
            mult[t] = mult.get(t, 0) + 1
        # list maxes are stored float32 (may round down); inflate so they
        # remain sound upper bounds for the pruning arithmetic.  Every
        # salted sub-list stores the term's global df.
        return maxscore_topk(
            [(mult[t], rows[0]["df"],
              mult[t] * max(r["max_score"] for r in rows) * (1.0 + 1e-6)
              + 1e-12,
              [(self, r, _NO_DEAD) for r in rows])
             for t, rows in self._lookup(list(mult)).items() if rows],
            k, self.params, filters)

    def search(self, query: str, k: int = 10, filters: dict | None = None):
        """Analyze a free-text query with the index analyzer, then top-k."""
        return self.search_terms(self.analyze(query), k=k, filters=filters)

    def search_docs(self, terms: list[str], k: int = 10,
                    filters: dict | None = None,
                    return_fields: list[str] | None = None) -> pa.Table:
        """Top-k returning a document table — (doc_id, rank, score) plus any
        ``return_fields`` columns from the docstore sidecar (the analog of
        ES returning stored documents, not just ids)."""
        d, sc = self.search_terms(terms, k=k, filters=filters)
        cols: dict = {
            "doc_id": pa.array(d, pa.int64()),
            "rank": pa.array(np.arange(1, len(d) + 1, dtype=np.int32)),
            "score": pa.array(sc, pa.float64()),
        }
        cols.update(self.fields.get(d, return_fields or []))
        return pa.table(cols)

    def search_similarity(self, terms: list[str], k: int = 10,
                          similarity: str = "lmd", mu: float = 2000.0,
                          lam: float = 0.1):
        """Top-k under a non-BM25 similarity module — the engine-native
        analog of ES's per-field ``similarity`` setting (``LMDirichlet``,
        ``LMJelinekMercer``, ``classic`` TF-IDF, ``boolean``), selectable
        per mapping field just as the reference's generated mappings could
        (the reference delegates all scoring to ES; schemas.cr:211-222
        declares the field types ES then scores).

        Unlike :meth:`search_terms`, this decodes every query term's FULL
        posting list: the segment's block-max metadata stores BM25 uppers,
        which do not bound these score functions, so block pruning would be
        unsound.  Exhaustive decode of |q| lists is exactly what Lucene pays
        when impacts don't apply; the per-posting math is vectorized numpy,
        and at scale each list decode is mmap-range-local to the serving
        actor that owns its term partition.

        Formulas (Lucene's; the SQL oracles mirror them op-for-op so the
        driver check is exact at round-4-decimals):

        - ``lmd``   p(t|C) = (ttf+1)/(T+1);
                    s_t = max(0, ln(1 + tf/(mu·p)) + ln(mu/(dl+mu)))
        - ``lmjm``  s_t = ln(1 + ((1-lam)·tf/dl) / (lam·p(t|C)))
        - ``classic`` (queryNorm dropped, as Lucene 8 did):
                    idf = 1 + ln((N+1)/(df+1));  s_t = √tf · idf² / √dl
        - ``boolean``  s_t = 1 per matched term

        ttf (collection term frequency) is derived exactly from the decoded
        lists — salted sub-lists partition the docid space, so their
        concatenation is the global list; T = the manifest's total_tokens.

        Returns (docids int64[], scores float64[]) sorted by (-score, docid).
        """
        uniq = list(dict.fromkeys(terms))
        rows = self._lookup(uniq)
        n_docs = float(self.params.n_docs)
        total_tokens = float(self.stats["total_tokens"])
        acc_d: list[np.ndarray] = []
        acc_s: list[np.ndarray] = []
        for t in uniq:
            lists = rows.get(t) or []
            if not lists:
                continue
            parts = [self._decode_list(r) for r in lists]
            d = np.concatenate([p[0] for p in parts]).astype(np.int64)
            tf = np.concatenate([p[1] for p in parts]).astype(np.float64)
            dl = np.concatenate([p[2] for p in parts]).astype(np.float64)
            df = float(max(r["df"] for r in lists))
            s = similarity_scores(tf, dl, df, float(tf.sum()), n_docs,
                                  total_tokens, similarity, mu=mu, lam=lam)
            mult = terms.count(t)  # duplicate query terms repeat the clause
            acc_d.append(d)
            acc_s.append(s * float(mult) if mult != 1 else s)
        if not acc_d:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        d_all = np.concatenate(acc_d)
        s_all = np.concatenate(acc_s)
        order = np.argsort(d_all, kind="stable")
        d_all, s_all = d_all[order], s_all[order]
        uniq_d, starts = np.unique(d_all, return_index=True)
        sums = np.add.reduceat(s_all, starts)
        top = np.lexsort((uniq_d, -sums))[:min(k, uniq_d.size)]
        return uniq_d[top], sums[top]

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix completion over the term dictionary — the engine-native
        analog of the ES ``completion`` type the reference's mapping can
        declare (schemas.cr:211-222): top-k terms starting with ``prefix``,
        ranked by (-df, term).  Each partition's dictionary is term-sorted,
        so the prefix range is two binary searches per partition; df is the
        GLOBAL df stored on every (possibly salted) list, so duplicates
        across salts/partitions agree and collapse by max."""
        return self._vocab_agg("prefix", prefix, k=k)

    def _vocab_agg(self, kind: str, arg, k: int = 10) -> list[tuple[str, int]]:
        """Shared term-dictionary scan for multi-term (expansion) queries:
        aggregate (term, global df) over every partition's dictionary for
        terms satisfying ``pred(term)``, collapsing salted/partition
        duplicates by max df (df on every salted sub-list is the exact
        GLOBAL df, so max is exact).  Ranked (-df, term), top-k.

        Scale note: a linear dictionary scan per partition — dictionaries
        are per-partition term-sorted arrays, so each scan is local to its
        query actor and partitions scan in parallel across the pool.  A
        Levenshtein-automaton walk (Lucene's approach) would prune further;
        at the dictionary sizes a partition holds (vocab / P) the linear
        scan is not the serving bottleneck.  Predicates and the merge live
        in :func:`expansion_pairs` / :func:`merge_expansion`, shared with
        the shard-side scan."""
        per = []
        for tp in range(self.P):
            terms_np, dfs_np = self._vocab_np(tp)
            if terms_np is None:
                continue
            per.append(expansion_pairs(terms_np, dfs_np, kind, arg))
        return merge_expansion(per, k)

    def fuzzy_terms(self, probe: str, max_dist: int = 1,
                    k: int = 10) -> list[tuple[str, int]]:
        """Fuzzy term expansion (the ES ``fuzzy`` query's rewrite step):
        dictionary terms within Levenshtein distance ``max_dist`` of
        ``probe``, ranked (-df, term)."""
        return self._vocab_agg("fuzzy", (probe, max_dist), k=k)

    def wildcard_terms(self, pattern: str, k: int = 10) -> list[tuple[str, int]]:
        """Wildcard term expansion (ES ``wildcard`` query): ``*`` matches
        any run, ``?`` one char; ranked (-df, term)."""
        return self._vocab_agg("wildcard", pattern, k=k)

    def regexp_terms(self, pattern: str, k: int = 10) -> list[tuple[str, int]]:
        """Regexp term expansion (ES ``regexp`` query): dictionary terms
        whose ENTIRE text matches ``pattern`` (anchored full-match, the ES
        regexp contract), ranked (-df, term).  Same per-partition linear
        dictionary scan as fuzzy/wildcard (see :meth:`_vocab_agg`'s scale
        note); stick to RE2-compatible patterns so the behavior matches
        engines that compile to automata."""
        return self._vocab_agg("regexp", pattern, k=k)

    def _term_postings_micro(self, rows: list[dict]):
        """Fully decode one term's (possibly salted) lists into sorted
        docids + per-posting INTEGER micro scores (floor(score·1e6)).
        Integer micros make multi-term sums order-insensitive and therefore
        bit-reproducible by the SQL oracle (float sums of 3+ terms are
        association-order-sensitive)."""
        p = self.params
        ds, ms = [], []
        for row in rows:
            d, tf, dl = self._decode_list(row)
            if d.size == 0:
                continue
            ds.append(d.astype(np.int64))
            ms.append(np.floor(
                term_scores(tf, dl, row["df"], p) * 1e6).astype(np.int64))
        if not ds:
            e = np.empty(0, dtype=np.int64)
            return e, e
        d = np.concatenate(ds)
        m = np.concatenate(ms)
        o = np.argsort(d, kind="stable")  # salted sub-lists are disjoint
        return d[o], m[o]

    def _union_micro_counts(self, rows: dict, terms: list[str]):
        """Disjunction with integer micro scores AND per-doc matched-term
        counts.  Returns (docids int64[] sorted ascending, score_micro
        int64[], n_matched_terms int64[])."""
        parts = [self._term_postings_micro(rows.get(t, [])) for t in terms]
        d_all = np.concatenate([d for d, _ in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        m_all = np.concatenate([m for _, m in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        d0, inv = np.unique(d_all, return_inverse=True)
        m0 = np.zeros(d0.size, dtype=np.int64)
        np.add.at(m0, inv, m_all)
        c0 = np.zeros(d0.size, dtype=np.int64)
        np.add.at(c0, inv, 1)  # a doc appears once per matched term
        return d0, m0, c0

    def _union_micro(self, rows: dict, terms: list[str]):
        """Disjunction with integer micro scores: union of the terms'
        postings, per-doc Σ of per-term micros.  Returns (docids int64[]
        sorted ascending, score_micro int64[])."""
        d0, m0, _ = self._union_micro_counts(rows, terms)
        return d0, m0

    def search_minimum_should(self, terms: list[str], min_match: int,
                              k: int = 10):
        """ES ``minimum_should_match``: the micro-scored disjunction
        restricted to docs matching at least ``min_match`` DISTINCT query
        terms — the middle ground between OR (1) and AND (len(terms)).
        Returns (docids, score_micro) by (-score, docid)."""
        uniq = list(dict.fromkeys(terms))
        d0, m0, c0 = self._union_micro_counts(self._lookup(uniq), uniq)
        keep = c0 >= min_match
        d0, m0 = d0[keep], m0[keep]
        top = np.lexsort((d0, -m0))[:k]
        return d0[top], m0[top]

    def search_sort_by(self, terms: list[str], field: str, k: int = 10,
                       descending: bool = True) -> pa.Table:
        """ES ``sort`` by a docvalue field instead of score: the match set
        of the OR query ordered by (field, doc_id) — scoring skipped
        entirely, the docvalues sidecar supplies the sort key (exactly
        ES's doc_values-backed sort).  Returns (doc_id, <field>) top-k."""
        tbl = self._match_frame(terms, [field]).rename_columns(
            ["doc_id", field])
        # missing values sort LAST regardless of direction — ES's default
        # ``missing: _last`` docvalue-sort semantics
        order = "descending" if descending else "ascending"
        idx = pc.sort_indices(
            tbl, sort_keys=[(field, order), ("doc_id", "ascending")],
            null_placement="at_end")[:k]
        return tbl.take(idx)

    def search_after(self, terms: list[str], k: int = 10,
                     after: tuple[int, int] | None = None):
        """ES ``search_after`` cursor pagination over the micro-scored
        disjunction: the top-k results STRICTLY AFTER the
        ``(score_micro, doc_id)`` cursor in (-score, doc_id) order.

        Stateless deep pagination — unlike from/size the work does not grow
        with page depth beyond the postings decode: the cursor mask drops
        everything at-or-before the cursor in one vectorized compare, no
        offset re-scan, which is exactly why ES recommends search_after
        over from/size past the first few pages."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        if after is not None:
            a_m, a_d = after
            keep = (m0 < a_m) | ((m0 == a_m) & (d0 > a_d))
            d0, m0 = d0[keep], m0[keep]
        top = np.lexsort((d0, -m0))[:k]
        return d0[top], m0[top]

    def more_like_this(self, seed_doc_id: int, max_terms: int = 5,
                       k: int = 10):
        """ES ``more_like_this``: select the seed document's top
        ``max_terms`` terms by tf·idf (integer micro units, tie → term
        asc), run the micro-scored disjunction over them, and return the
        top-k with the seed itself excluded.

        The seed's text comes from the docstore sidecar and is analyzed
        with the index analyzer; per-term global df comes from the term
        dictionary (every salted sub-list stores the exact global df).
        Returns (selected_terms, docids int64[], score_micro int64[])."""
        import math
        from collections import Counter
        txt_col = self.fields.get(
            np.asarray([seed_doc_id], dtype=np.int64), ["text"])["text"]
        txt = txt_col[0].as_py()
        tf = Counter(self.analyze(txt or ""))
        p = self.params
        dfs = self._dfs_of(list(tf))  # dictionary-only rank pass
        ranked = []
        for t, f in tf.items():
            df = dfs.get(t, 0)
            if df == 0:
                continue
            idf = math.log(1 + (p.n_docs - df + 0.5) / (df + 0.5))
            ranked.append((-int(math.floor(f * idf * 1e6)), t))
        ranked.sort()
        sel = [t for _, t in ranked[:max_terms]]
        # postings fetched only for the SELECTED terms, not the whole doc
        d0, m0 = self._union_micro(self._lookup(sel), sel)
        keep = d0 != seed_doc_id
        d0, m0 = d0[keep], m0[keep]
        top = np.lexsort((d0, -m0))[:k]
        return sel, d0[top], m0[top]

    def highlight_first(self, terms: list[str], k: int = 10) -> pa.Table:
        """ES ``highlight`` anchor positions: top-k docs of the
        micro-scored disjunction, then for every (doc, present query term)
        the term's FIRST position (source-token ordinal) straight from the
        positions stream — no document re-analysis, which is the point of
        index-time positions/offsets in ES (``term_vector`` highlighting).
        Requires a positional index.  Returns (doc_id, term, first_pos)
        sorted by (doc_id, term)."""
        uniq = list(dict.fromkeys(terms))
        rows = self._lookup(uniq)
        d0, m0 = self._union_micro(rows, uniq)
        top = np.lexsort((d0, -m0))[:k]
        dtop = np.sort(d0[top])
        out_doc: list[int] = []
        out_term: list[str] = []
        out_pos: list[int] = []
        for t in uniq:
            for row in rows.get(t, []):
                if "pos_blob" not in row:
                    raise ValueError(
                        "index was built without positions; rebuild with "
                        "with_positions=True for highlighting")
                d, tfs, _ = self._decode_list(row)
                d = d.astype(np.int64)
                hit = _isin_sorted_i64(d, dtop)
                if not hit.any():
                    continue
                plists = self._decode_positions(row, tfs)
                for i in np.flatnonzero(hit):
                    out_doc.append(int(d[i]))
                    out_term.append(t)
                    out_pos.append(int(plists[i][0]))
        tbl = pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "term": pa.array(out_term, pa.string()),
            "first_pos": pa.array(out_pos, pa.int64()),
        })
        return tbl.sort_by([("doc_id", "ascending"), ("term", "ascending")])

    def search_bool(self, must: list[str], should: list[str] | None = None,
                    must_not: list[str] | None = None, k: int = 10):
        """ES ``bool`` query: ``must`` terms are a conjunction (all
        required, each contributes score), ``should`` terms add score when
        present, ``must_not`` terms exclude.  Scores are integer
        micro-units (Σ floor(idf·tfnorm·1e6) over matched must+should
        terms) so the DuckDB oracle reproduces them exactly.

        Returns (docids int64[], score_micro int64[]) by (-score, docid).

        Document-at-a-time conjunction: the must intersection shrinks the
        candidate set before should/must_not lists are consulted; at scale
        each term decode is block-skippable by the candidate mask exactly
        like the two-phase path (conjunctions are cheaper than the scored
        OR — candidates only ever shrink)."""
        should = list(should or ())
        must_not = list(must_not or ())
        rows = self._lookup(list(dict.fromkeys([*must, *should, *must_not])))
        return bool_combine(
            lambda t: self._term_postings_micro(rows.get(t, [])),
            must, should, must_not, k)

    def match_bool_prefix(self, terms: list[str], prefix: str, k: int = 10,
                          max_expansions: int = 10 ** 9):
        """ES ``match_bool_prefix``: every full term is a bool SHOULD
        clause (integer micro BM25 per matched term, exactly as
        :meth:`search_bool`); the trailing ``prefix`` rewrites to a
        constant-score prefix query (Lucene's CONSTANT_SCORE rewrite), so
        docs containing ANY dictionary term with the prefix earn a flat
        +1.0 == +1_000_000 micro.  A doc matches if it matches any clause
        (pure should semantics).

        Returns (docids int64[], score_micro int64[]) by (-score, docid)."""
        if terms:
            d_b, m_b = self.search_bool([], should=terms, k=10 ** 9)
        else:
            d_b = np.empty(0, np.int64)
            m_b = np.empty(0, np.int64)
        exps = [t for t, _ in self._vocab_agg("prefix", prefix,
                                              k=max_expansions)]
        p_d = self._match_docids(exps) if exps else np.empty(0, np.int64)
        all_d = np.union1d(d_b, p_d)
        if all_d.size == 0:
            return all_d.astype(np.int64), np.empty(0, np.int64)
        micro = np.zeros(all_d.size, dtype=np.int64)
        if d_b.size:
            micro[np.searchsorted(all_d, d_b)] += m_b
        if p_d.size:
            micro[np.searchsorted(all_d, p_d)] += 1_000_000
        top = np.lexsort((all_d, -micro))[:k]
        return all_d[top], micro[top]

    def _match_docids(self, terms: list[str]) -> np.ndarray:
        """Filter-context match set of the OR query: sorted unique int64
        docids containing ANY of the terms — postings decode only, no
        scoring (the shared first half of every aggregation)."""
        rows = self._lookup(list(dict.fromkeys(terms)))
        ds = []
        for rws in rows.values():
            for row in rws:
                d, _, _ = self._decode_list(row)
                ds.append(d.astype(np.int64))
        if not ds:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(ds))

    def _match_frame(self, terms: list[str], cols: list[str]) -> pa.Table:
        """The match set of the OR query as one table: ``docid`` (sorted
        unique) plus each of ``cols`` in its stored type, null where the
        doc has no value — the start of every docvalue aggregation.  An
        empty match set gives no rows and the same types."""
        docids = self._match_docids(terms)
        return pa.table({"docid": pa.array(docids, pa.int64()),
                         **self.fields.get(docids, cols)})

    def term_vectors(self, doc_id: int) -> pa.Table:
        """ES ``_termvectors``: one document's term vector — (term, tf,
        global df) per distinct term, term-sorted.  The text comes from
        the docstore and is re-analyzed with the index analyzer (ES
        re-derives vectors the same way unless term_vector storage was
        mapped); df is the dictionary's exact global df."""
        from collections import Counter
        txt = self.fields.get(np.asarray([doc_id], dtype=np.int64),
                              ["text"])["text"][0].as_py()
        tf = Counter(self.analyze(txt or ""))
        terms = sorted(tf)
        by_term = self._dfs_of(terms)  # dictionary-only, no blobs
        dfs = [by_term.get(t, 0) for t in terms]
        return pa.table({
            "term": pa.array(terms, pa.string()),
            "tf": pa.array([tf[t] for t in terms], pa.int64()),
            "df": pa.array(dfs, pa.int64()),
        })

    def explain(self, terms: list[str], doc_id: int) -> pa.Table:
        """ES ``_explain``: per-term score breakdown for one (query, doc)
        pair — (term, tf, df, dl, score_micro) for each query term the doc
        contains, plus the total as the sum of micro units (the same
        integer arithmetic the bool/disjunction scorers use, so the rows
        add up to the scores those queries report)."""
        uniq = list(dict.fromkeys(terms))
        rows = self._lookup(uniq)
        out_t, out_tf, out_df, out_dl, out_m = [], [], [], [], []
        p = self.params
        for t in uniq:
            for row in rows.get(t) or []:
                d, tf, dl = self._decode_list(row)
                idx = np.searchsorted(d, np.uint64(doc_id))
                if idx < d.size and d[idx] == np.uint64(doc_id):
                    sc = term_scores(tf[idx:idx + 1], dl[idx:idx + 1],
                                     row["df"], p)[0]
                    out_t.append(t)
                    out_tf.append(int(tf[idx]))
                    out_df.append(int(row["df"]))
                    out_dl.append(int(dl[idx]))
                    out_m.append(int(np.floor(sc * 1e6)))
                    break
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            "tf": pa.array(out_tf, pa.int64()),
            "df": pa.array(out_df, pa.int64()),
            "dl": pa.array(out_dl, pa.int64()),
            "score_micro": pa.array(out_m, pa.int64()),
        }).sort_by([("term", "ascending")])

    def rescore_phrase(self, terms: list[str], window: int = 50,
                       bonus_micro: int = 1_000_000, k: int = 10):
        """ES ``rescore``: rerank the top-``window`` results of the cheap
        micro-scored disjunction with an expensive predicate — here the
        exact consecutive phrase over the same terms; a window doc that
        phrase-matches gains ``bonus_micro``.  Docs outside the window are
        never rescored (the rescore-window contract), so the expensive
        phrase machinery prices O(window), not O(corpus).

        (The positional intersection below computes the phrase set from
        the terms' postings — already restricted to the intersection; a
        corpus where that intersection dwarfs the window would pass the
        window in as a candidate filter.)

        Returns (docids int64[], rescored_micro int64[]) by
        (-rescored, docid)."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        top = np.lexsort((d0, -m0))[:window]
        dw, mw = d0[top], m0[top]
        ph = np.sort(self.phrase_match_docs(list(terms)))
        bonus = _isin_sorted_i64(dw, ph).astype(np.int64) * int(bonus_micro)
        rescored = mw + bonus
        order = np.lexsort((dw, -rescored))[:k]
        return dw[order], rescored[order]

    def facet_counts(self, terms: list[str], field: str) -> pa.Table:
        """Terms-aggregation (ES ``aggs: {terms: {field}}``) over the match
        set of an OR query: docs containing ANY query term, counted per
        stored-field value via the docvalues sidecar.  Returns
        (value, n) sorted by value; scoring is skipped entirely (aggs run
        in filter context)."""
        vc = pc.value_counts(self._match_frame(terms, [field])[field])
        out = pa.table({field: vc.field("values"),
                        "n": vc.field("counts")})
        return out.sort_by([(field, "ascending")])

    def agg_stats(self, terms: list[str], field: str) -> pa.Table:
        """ES ``stats`` aggregation in filter context over an integer
        docvalue: one row (n, min, max, sum, avg_micro) for the docs
        matching ANY query term.  ``avg_micro`` = (sum·1e6) // n in exact
        integer arithmetic, so the DuckDB oracle is bit-identical (a float
        average would be summation-order-sensitive).  Nulls are dropped
        (ES skips docs without the field)."""
        arr = _ints(self._match_frame(terms, [field])[field])
        n = int(arr.size)
        s = int(arr.sum()) if n else 0
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "min": pa.array([int(arr.min()) if n else None], pa.int64()),
            "max": pa.array([int(arr.max()) if n else None], pa.int64()),
            "sum": pa.array([s], pa.int64()),
            "avg_micro": pa.array([_micro_moments(n, s)[0]], pa.int64()),
        })

    def agg_histogram(self, terms: list[str], field: str,
                      interval: int) -> pa.Table:
        """ES ``histogram`` aggregation in filter context: bucket =
        floor(value / interval) · interval over the match set's docvalues;
        returns (bucket, n) sorted by bucket, empty buckets omitted
        (ES ``min_doc_count: 1``)."""
        arr = _ints(self._match_frame(terms, [field])[field])
        buckets = (arr // interval) * interval
        uniq, counts = np.unique(buckets, return_counts=True)
        return pa.table({"bucket": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    def facet_stats(self, terms: list[str], group_field: str,
                    stat_field: str) -> pa.Table:
        """Nested aggregation (ES ``aggs: {terms: {group}, aggs: {stats:
        {stat}}}``): per group-field bucket over the match set, the stat
        field's n/min/max/sum/avg_micro — one docvalues fetch, one
        vectorized group pass.  Returns rows sorted by bucket value."""
        frame = self._match_frame(terms, [group_field, stat_field])
        # drop docs missing the GROUP key (ES terms buckets skip them);
        # docs missing only the STAT field stay in their bucket but
        # contribute nothing to its stats, which Arrow's null-skipping
        # aggregates give for free
        t = pa.table({group_field: frame[group_field],
                      "_v": frame[stat_field]})
        g = (t.filter(pc.is_valid(t[group_field])).group_by(group_field)
             .aggregate([("_v", "count"), ("_v", "min"), ("_v", "max"),
                         ("_v", "sum")]))
        n = g["_v_count"].to_numpy().astype(np.int64)
        s = pc.fill_null(g["_v_sum"], 0).cast(pa.int64()).to_numpy()
        out = pa.table({
            group_field: g[group_field],
            "n": pa.array(n, pa.int64()),
            "min": g["_v_min"].cast(pa.int64()),
            "max": g["_v_max"].cast(pa.int64()),
            "sum": pa.array(s, pa.int64()),
            "avg_micro": pa.array(
                [_micro_moments(int(nv), int(sv))[0]
                 for sv, nv in zip(s, n)], pa.int64()),
        })
        return out.sort_by([(group_field, "ascending")])

    def agg_cardinality(self, terms: list[str], field: str) -> pa.Table:
        """ES ``cardinality`` aggregation over the match set — EXACT
        distinct count of a docvalue (ES approximates with HyperLogLog++;
        at the single-field scales a query actor sees, exact unique over
        the candidate docvalues is cheaper than sketch maintenance, and
        a distributed pipeline wanting approximate global cardinality
        should pre-aggregate per partition and merge)."""
        vals = self._match_frame(terms, [field])[field].drop_null()
        return pa.table({"cardinality": pa.array([len(vals.unique())],
                                                 pa.int64())})

    def agg_extended_stats(self, terms: list[str], field: str) -> pa.Table:
        """ES ``extended_stats`` aggregation in filter context over an
        integer docvalue: one row (n, min, max, sum, sum_sq, avg_micro,
        var_micro) for docs matching ANY query term.  ``sum_sq`` is the
        exact Σv² (int64 — exact while n·max(v)² < 2⁶³, i.e. any real
        stat field; a 100 TB rollup should pre-aggregate per partition and
        combine (n, Σv, Σv²), which this row IS the combinable form of).
        ``var_micro`` = floor((n·Σv² − (Σv)²)·10⁶ / n²) — the population
        variance in exact integer arithmetic (computed in Python bigints,
        so the DuckDB HUGEINT oracle is bit-identical; a float variance
        would be summation-order-sensitive).  Nulls dropped (ES skips docs
        without the field)."""
        arr = _ints(self._match_frame(terms, [field])[field])
        n = int(arr.size)
        s = int(arr.sum()) if n else 0
        ss = int((arr * arr).sum()) if n else 0
        avg, var = _micro_moments(n, s, ss)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "min": pa.array([int(arr.min()) if n else None], pa.int64()),
            "max": pa.array([int(arr.max()) if n else None], pa.int64()),
            "sum": pa.array([s], pa.int64()),
            "sum_sq": pa.array([ss], pa.int64()),
            "avg_micro": pa.array([avg], pa.int64()),
            "var_micro": pa.array([var], pa.int64()),
        })

    def agg_composite(self, terms: list[str], sources: list[str],
                      size: int = 10,
                      after: tuple | None = None) -> pa.Table:
        """ES ``composite`` aggregation: multi-source buckets over the
        match set's docvalues, ordered by the key tuple ascending, paged
        with an ``after`` cursor (strictly-greater key) — ES's streaming
        alternative to deep terms-agg pagination.  One docvalues fetch +
        one Arrow group_by; the cursor mask is a vectorized tuple compare,
        so page depth never re-aggregates (exactly why ES recommends
        composite over terms+partitions for full enumeration).  Returns
        (source..., n) — ``size`` buckets starting after the cursor."""
        # ES composite with missing_bucket=false (the default) drops docs
        # missing ANY source — and a null key would break the typed
        # cursor compare below, so filter before grouping
        g = self._key_counts(terms, sources)
        g = g.take(pc.sort_indices(
            g, sort_keys=[(f, "ascending") for f in sources]))
        if after is not None:
            # strictly-after mask on the lexicographic key tuple
            gt = np.zeros(g.num_rows, dtype=bool)
            eq = np.ones(g.num_rows, dtype=bool)
            for f, av in zip(sources, after):
                col = np.asarray(g[f].to_pylist(), dtype=object)
                gt |= eq & (col > av)
                eq &= col == av
            g = g.take(pa.array(np.flatnonzero(gt)))
        return g.slice(0, size)

    def _key_counts(self, terms: list[str], sources: list[str]) -> pa.Table:
        """(source..., n): doc count per distinct key tuple over the match
        set's docs that have a value for every source."""
        keys = self._match_frame(terms, sources).select(sources).drop_null()
        return (keys.group_by(sources).aggregate([([], "count_all")])
                .rename_columns(sources + ["n"]))

    def function_score_linear(self, terms: list[str], field: str,
                              origin: int, scale: int,
                              k: int = 10) -> pa.Table:
        """ES ``function_score`` with a ``linear`` decay on a numeric
        docvalue: the micro-scored disjunction's score multiplied by
        decay(v) = max(0, scale − |v − origin|) / scale.  Kept in exact
        integer arithmetic — adj = score_micro · max(0, scale−|v−origin|)
        // scale — so the DuckDB oracle is bit-identical (ES multiplies
        floats; the ranking is the same for monotone integerization).
        Docs missing the field decay to 0 (ES ``missing`` pinned to the
        far field).  Returns (doc_id, score_micro) by (-score, doc_id)."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        v = self.fields.get(d0, [field])[field].cast(pa.int64()).fill_null(
            origin + scale).to_numpy()
        decay_num = np.maximum(0, scale - np.abs(v - origin))
        adj = (m0 * decay_num) // scale
        top = np.lexsort((d0, -adj))[:k]
        return pa.table({"doc_id": pa.array(d0[top], pa.int64()),
                         "score_micro": pa.array(adj[top], pa.int64())})

    def _union_micro_parts(self, terms: list[str]):
        """Per-doc (union docids, Σ micro, max per-term micro) for the
        disjunction — the dis_max building block.  A doc's per-term micro
        appears once per term (terms are distinct; salted sub-lists of one
        term are docid-disjoint), so sum/max accumulate exactly."""
        uniq = list(dict.fromkeys(terms))
        rows = self._lookup(uniq)
        parts = [self._term_postings_micro(rows.get(t, [])) for t in uniq]
        d_all = np.concatenate([d for d, _ in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        m_all = np.concatenate([m for _, m in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        d0, inv = np.unique(d_all, return_inverse=True)
        s0 = np.zeros(d0.size, dtype=np.int64)
        np.add.at(s0, inv, m_all)
        x0 = np.zeros(d0.size, dtype=np.int64)  # micros are > 0 (idf > 0)
        np.maximum.at(x0, inv, m_all)
        return d0, s0, x0

    def function_score_gauss(self, terms: list[str], field: str,
                             origin: int, scale: int,
                             k: int = 10) -> pa.Table:
        """ES ``function_score`` with a ``gauss`` decay on a numeric
        docvalue: decay(v) = exp(−(v−origin)² / (2·σ²)) with
        σ² = scale² / (2·ln 2) (ES's parametrization — decay = 0.5 at
        ``scale``), applied to the micro-scored disjunction as
        ``adj = floor(score_micro · decay)``.  The double expression
        mirrors the SQL oracle op-for-op (same libm exp discipline as the
        geotile ln/tan oracle); floor-boundary collisions need ~1e-16
        relative coincidence.  Docs missing the field decay as if at
        origin + 4·scale (≈0, ES ``missing`` pinned far).  Returns
        (doc_id, score_micro) by (-score, doc_id)."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        v = self.fields.get(d0, [field])[field].cast(pa.int64()).fill_null(
            origin + 4 * scale).to_numpy().astype(np.float64)
        sigma2 = (float(scale) * float(scale)) / (2.0 * np.log(2.0))
        dv = v - float(origin)
        decay = np.exp(-(dv * dv) / (2.0 * sigma2))
        adj = np.floor(m0.astype(np.float64) * decay).astype(np.int64)
        top = np.lexsort((d0, -adj))[:k]
        return pa.table({"doc_id": pa.array(d0[top], pa.int64()),
                         "score_micro": pa.array(adj[top], pa.int64())})

    def dis_max(self, terms: list[str], k: int = 10,
                tie_breaker: tuple[int, int] = (3, 10)) -> pa.Table:
        """ES ``dis_max`` query: score = best per-term score plus
        ``tie_breaker`` × the sum of the other terms' scores.  Exact
        integer micro arithmetic — adj = max + (tb_num·(sum−max)) //
        tb_den — so the DuckDB oracle is bit-identical (``tie_breaker``
        as a ratio, e.g. (3, 10) = 0.3).  Returns (doc_id, score_micro)
        by (-score, doc_id) top-k."""
        d0, s0, x0 = self._union_micro_parts(terms)
        num, den = tie_breaker
        adj = x0 + (num * (s0 - x0)) // den
        top = np.lexsort((d0, -adj))[:k]
        return pa.table({"doc_id": pa.array(d0[top], pa.int64()),
                         "score_micro": pa.array(adj[top], pa.int64())})

    def boosting(self, positive: list[str], negative: list[str],
                 negative_boost: tuple[int, int] = (1, 2),
                 k: int = 10) -> pa.Table:
        """ES ``boosting`` query: the positive disjunction's score,
        DEMOTED (not excluded — the contrast with bool must_not) by
        ``negative_boost`` for docs matching any negative term.  Integer
        micro arithmetic: adj = micro·nb_num // nb_den on demoted docs.
        Returns (doc_id, score_micro) by (-score, doc_id) top-k."""
        uniq = list(dict.fromkeys(positive))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        neg = self._match_docids(negative)
        demote = _isin_sorted_i64(d0, neg)
        num, den = negative_boost
        adj = np.where(demote, (m0 * num) // den, m0)
        top = np.lexsort((d0, -adj))[:k]
        return pa.table({"doc_id": pa.array(d0[top], pa.int64()),
                         "score_micro": pa.array(adj[top], pa.int64())})

    def rank_feature_saturation(self, terms: list[str], field: str,
                                pivot: int, k: int = 10) -> pa.Table:
        """ES ``rank_feature`` (saturation) inside a bool should: the
        micro-scored disjunction plus boost·v/(v+pivot) from a numeric
        docvalue — in exact integers, feature_micro = (10⁶·v)//(v+pivot)
        (boost 1.0).  Docs missing the feature add 0 (ES skips them).
        Returns (doc_id, score_micro) by (-score, doc_id) top-k."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        # rank_feature requires positive features; a missing one is 0
        v = np.maximum(self.fields.get(d0, [field])[field].cast(pa.int64())
                       .fill_null(0).to_numpy(), 0)
        adj = m0 + (1_000_000 * v) // (v + pivot)
        top = np.lexsort((d0, -adj))[:k]
        return pa.table({"doc_id": pa.array(d0[top], pa.int64()),
                         "score_micro": pa.array(adj[top], pa.int64())})

    def prefix_match(self, prefix: str) -> pa.Table:
        """ES ``prefix`` query in filter context: docs containing ANY
        dictionary term starting with ``prefix``, with the count of
        DISTINCT matching terms per doc (the multi-term rewrite's blended
        evidence).  Expansion is the same two-binary-search dictionary
        range as :meth:`suggest`, uncapped (ES rewrites with an expansion
        budget; the per-doc distinct-term count here needs the full set).
        Returns (doc_id, n_terms) sorted by doc_id ascending."""
        expanded = self._vocab_agg("prefix", prefix, k=1 << 62)
        ds = []
        rows = self._lookup([t for t, _ in expanded])
        for t, _ in expanded:
            per = [self._decode_list(row)[0].astype(np.int64)
                   for row in rows.get(t) or []]
            if per:
                ds.append(np.concatenate(per))  # salted sub-lists disjoint
        if not ds:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_terms": pa.array([], pa.int64())})
        d_all = np.concatenate(ds)
        d0, counts = np.unique(d_all, return_counts=True)
        return pa.table({"doc_id": pa.array(d0, pa.int64()),
                         "n_terms": pa.array(counts.astype(np.int64),
                                             pa.int64())})

    def span_first(self, term: str, boundary: int) -> pa.Table:
        """ES ``span_first``: docs whose FIRST occurrence of ``term`` sits
        at position < ``boundary`` (0-based source-token positions, the
        same stream phrase queries use).  Per (possibly salted) sub-list
        the first position of each posting is the head of its position
        run — one gather at the run starts, no full position decode needed
        conceptually (the codec decodes the block; the gather is
        vectorized).  Returns (doc_id, first_pos) sorted by doc_id."""
        rows = self._lookup([term]).get(term) or []
        out_d, out_p = [], []
        for row in rows:
            if "pos_blob" not in row:
                raise ValueError("index was built without positions")
            d, tf, _ = self._decode_list(row)
            plists = self._decode_positions(row, tf.astype(np.int64))
            flat = (np.concatenate(plists) if plists
                    else np.empty(0, dtype=np.int64))
            starts = np.concatenate(
                [[0], np.cumsum(tf.astype(np.int64))])[:-1]
            first = flat[starts]
            keep = first < boundary
            out_d.append(d.astype(np.int64)[keep])
            out_p.append(first[keep].astype(np.int64))
        if not out_d:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "first_pos": pa.array([], pa.int64())})
        d = np.concatenate(out_d)
        p = np.concatenate(out_p)
        o = np.argsort(d, kind="stable")
        return pa.table({"doc_id": pa.array(d[o], pa.int64()),
                         "first_pos": pa.array(p[o], pa.int64())})

    def span_near_unordered(self, term_a: str, term_b: str,
                            slop: int = 0) -> np.ndarray:
        """ES ``span_near`` with ``in_order: false`` for two clauses: docs
        where the terms occur within ``slop`` gap positions in EITHER
        order — the union of the two ordered sloppy matches, each served
        by the shared cross-candidate phrase DP (no per-doc Python).
        Returns sorted unique docids."""
        fwd = self.phrase_match_docs([term_a, term_b], slop=slop)
        rev = self.phrase_match_docs([term_b, term_a], slop=slop)
        return np.union1d(fwd, rev)

    def ids_query(self, ids: list[int], cols: list[str]) -> pa.Table:
        """ES ``ids`` query: fetch documents by docid list from the
        docstore — absent ids are silently dropped (ES behavior), present
        ones return their stored fields.  One :meth:`FieldStore.contains`
        presence probe + one :meth:`FieldStore.get`; only the docid-range
        shards the ids fall into are loaded.  Returns (doc_id, cols...)
        sorted by doc_id."""
        d = np.unique(np.asarray(list(ids), dtype=np.int64))
        present = self.fields.contains(d)
        d = d[present]
        return pa.table({"doc_id": pa.array(d, pa.int64()),
                         **self.fields.get(d, cols)})

    def match_phrase_prefix(self, terms: list[str], prefix: str,
                            max_expansions: int | None = None) -> np.ndarray:
        """ES ``match_phrase_prefix``: the exact phrase ``terms`` followed
        by ANY term starting with ``prefix`` — the last position expands
        via the dictionary's two-binary-search prefix range, then each
        expansion runs the shared cross-candidate phrase DP; results
        union.  ``max_expansions`` caps the expansion set in dictionary
        order (ES's cap, default 50 there; None = uncapped, which the SQL
        oracle mirrors).  Returns sorted unique docids (filter context —
        ES scores the rewrite per expansion; callers wanting scores can
        rescore the match set)."""
        expanded = sorted(t for t, _ in
                          self._vocab_agg("prefix", prefix, k=1 << 62))
        if max_expansions is not None:
            expanded = expanded[:max_expansions]
        outs = [self.phrase_match_docs([*terms, e], slop=0)
                for e in expanded]
        outs = [o for o in outs if o.size]
        if not outs:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(outs))

    def agg_filters(self, terms: list[str],
                    named: list[tuple[str, dict]]) -> pa.Table:
        """ES ``filters`` aggregation: one named bucket per filter spec,
        counted over the match set's docvalues — each bucket is one
        vectorized :meth:`FieldStore.mask` pass over the SAME candidate
        docids (shards load once through the store's LRU).  Returns
        (bucket, n) in the given bucket order."""
        docids = self._match_docids(terms)
        return pa.table({
            "bucket": pa.array([name for name, _ in named], pa.string()),
            "n": pa.array([int(self.fields.mask(docids, filt).sum())
                           for _, filt in named], pa.int64())})

    def agg_adjacency_matrix(self, terms: list[str],
                             named: list[tuple[str, dict]]) -> pa.Table:
        """ES ``adjacency_matrix`` aggregation: counts for every named
        filter and every pairwise intersection (key "a&b", ES's
        separator), empty buckets omitted (ES behavior).  Masks are
        computed once per filter and AND-ed pairwise — O(F²) boolean
        vector ops, one docvalues pass."""
        docids = self._match_docids(terms)
        masks = [(name, self.fields.mask(docids, filt))
                 for name, filt in named]
        keys, ns = [], []
        for i, (ni, mi) in enumerate(masks):
            for j in range(i, len(masks)):
                nj, mj = masks[j]
                n = int((mi & mj).sum()) if i != j else int(mi.sum())
                if n > 0:
                    keys.append(ni if i == j else f"{ni}&{nj}")
                    ns.append(n)
        return pa.table({"key": pa.array(keys, pa.string()),
                         "n": pa.array(ns, pa.int64())})

    def agg_cumulative_histogram(self, terms: list[str], field: str,
                                 interval: int) -> pa.Table:
        """ES ``histogram`` + ``cumulative_sum`` + ``derivative`` pipeline
        aggregations: per bucket (floor(v/interval)·interval) the count,
        running total, and delta vs the previous PRESENT bucket (first
        bucket's derivative is NULL, ES semantics; empty buckets omitted
        as min_doc_count=1).  One docvalues fetch; the pipeline stages are
        cumsum/diff over the tiny bucket vector."""
        hist = self.agg_histogram(terms, field, interval)
        n = hist["n"].to_numpy()
        return pa.table({
            "bucket": hist["bucket"],
            "n": hist["n"],
            "cum_n": pa.array(np.cumsum(n), pa.int64()),
            "d_n": pa.array(np.diff(n, prepend=0), pa.int64(),
                            mask=np.arange(n.size) == 0),
        })

    def rare_terms(self, max_df: int, k: int = 10) -> list[tuple[str, int]]:
        """ES ``rare_terms`` aggregation: dictionary terms with global
        df ≤ ``max_df``, ranked ASCENDING (df, term) — the long-tail
        complement of the terms agg (ES approximates with a CuckooFilter
        sweep; the dictionary stores exact global df on every salted
        sub-list, so this is exact).  Per-partition linear dictionary
        scan, same shape as :meth:`_vocab_agg`."""
        agg: dict[str, int] = {}
        for tp in range(self.P):
            terms, dfs = self._vocab_np(tp)
            if terms is None:
                continue
            sel = dfs <= max_df
            for t, d in zip(terms[sel], dfs[sel]):
                got = agg.get(t)
                if got is None or d > got:
                    agg[t] = int(d)
        return sorted(agg.items(), key=lambda kv: (kv[1], kv[0]))[:k]

    def agg_multi_terms(self, terms: list[str], sources: list[str],
                        k: int = 10) -> pa.Table:
        """ES ``multi_terms`` aggregation: composite-key buckets over the
        match set ordered by doc count DESCENDING (the terms-agg order,
        vs :meth:`agg_composite`'s key order/pagination).  One docvalues
        fetch + one Arrow group_by.  Returns (source..., n) top-k by
        (-n, key...)."""
        # ES multi_terms skips docs missing ANY source field
        g = self._key_counts(terms, sources)
        g = g.take(pc.sort_indices(
            g, sort_keys=[("n", "descending")]
            + [(f, "ascending") for f in sources]))
        return g.slice(0, k)

    def agg_range(self, terms: list[str], field: str,
                  edges: list[int]) -> pa.Table:
        """ES ``range`` aggregation: counts per half-open [lo, hi) bucket
        over the match set's docvalues; buckets are the consecutive pairs
        of ``edges`` plus the open (-inf, first) and [last, +inf) ends —
        exactly ES's to-exclusive semantics.  Empty buckets ARE returned
        (ES range aggs always emit every configured bucket)."""
        edges_a = np.asarray(edges, dtype=np.int64)
        return pa.table({
            "lo": pa.array([None, *edges_a.tolist()], pa.int64()),
            "hi": pa.array([*edges_a.tolist(), None], pa.int64()),
            "n": pa.array(self._edge_counts(terms, field, edges_a),
                          pa.int64()),
        })

    def _edge_counts(self, terms: list[str], field: str,
                     edges: np.ndarray) -> np.ndarray:
        """Count of the match set's ``field`` values in each half-open
        range (-inf, e0), [e0, e1), …, [eN, +inf) of ascending ``edges``;
        docs without a value are skipped."""
        arr = _ints(self._match_frame(terms, [field])[field])
        return np.bincount(np.searchsorted(edges, arr, side="right"),
                           minlength=edges.size + 1)

    def agg_percentiles(self, terms: list[str], field: str,
                        pcts: list[int]) -> pa.Table:
        """ES ``percentiles`` aggregation, EXACT nearest-rank flavor: the
        value at 1-based rank ``ceil(p/100 · n)`` of the sorted match-set
        docvalues (ES approximates with t-digest; nearest-rank is the
        deterministic exact analog a SQL oracle can reproduce).  Returns
        (pct, value) rows."""
        arr = np.sort(_ints(self._match_frame(terms, [field])[field]))
        return pa.table({
            "pct": pa.array(list(pcts), pa.int64()),
            "value": pa.array([_nearest_rank(arr, p) for p in pcts],
                              pa.int64()),
        })

    def terms_set(self, terms: list[str], msm_field: str,
                  transform=None) -> pa.Table:
        """ES ``terms_set`` query: a doc matches when at least
        ``required(doc)`` of the distinct query terms occur in it, where
        the per-doc requirement comes from a docvalues field
        (``minimum_should_match_field``; ``transform`` is the optional
        vectorized ``_script`` analog applied to the field's int64
        array).  Vectorized end to end: one postings union with per-doc
        matched-term counts (each term's posting list already has unique
        docids), ONE docvalues fetch for the union, one numpy mask.
        Docs missing ``msm_field`` are excluded (ES skips them; SQL NULL
        comparisons are false) before ``transform`` sees the values.
        Returns (doc_id, n_matched) sorted by doc_id."""
        uniq = list(dict.fromkeys(terms))
        docids, counts = np.unique(np.concatenate(
            [np.empty(0, np.int64)] + [self._match_docids([t])
                                       for t in uniq]), return_counts=True)
        vals = self.fields.get(docids, [msm_field])[msm_field]
        ok = vals.is_valid().to_numpy(zero_copy_only=False)
        docids, counts = docids[ok], counts[ok]
        req = _ints(vals)
        if transform is not None:
            req = transform(req)
        keep = counts >= req
        return pa.table({
            "doc_id": pa.array(docids[keep], pa.int64()),
            "n_matched": pa.array(counts[keep], pa.int64()),
        })

    def distance_feature(self, terms: list[str], field: str, origin: int,
                         pivot: int, k: int = 10) -> pa.Table:
        """ES ``distance_feature`` query (numeric flavor) in exact integer
        micro-units: over the match set, score = 10⁶·pivot //
        (pivot + |value − origin|) — monotone-decaying with distance from
        ``origin``, halving at ``pivot`` — then top-k by (-score, doc_id).
        One docvalues fetch + vectorized arithmetic.  Docs missing
        ``field`` don't match (ES distance_feature semantics)."""
        t = self._match_frame(terms, [field]).drop_null()
        docids, v = t["docid"].to_numpy(), _ints(t[field])
        score = (1_000_000 * pivot) // (pivot + np.abs(v - origin))
        order = np.lexsort((docids, -score))[:k]
        return pa.table({
            "doc_id": pa.array(docids[order], pa.int64()),
            "score_micro": pa.array(score[order], pa.int64()),
        })

    def index_stats(self) -> pa.Table:
        """ES ``_stats``-style index integrity counters, exact from segment
        metadata: n_docs (epoch stats), n_terms (distinct dictionary terms
        across partitions — salted sub-lists of one term count once) and
        n_postings (Σ local list lengths ``n`` = distinct (term, doc)
        pairs; each doc lives in exactly one docid-mod sub-list of a
        salted term).  An end-to-end invariant a SQL oracle can re-derive
        from the raw corpus.

        Scale shape: a non-hot term lives in exactly ONE partition (tpart
        = hash(term) % P), so cross-partition dedup only ever concerns the
        bounded hot/salted set — per-partition Arrow ``count_distinct``
        plus a driver-side set of the FEW hot terms actually seen, never
        the full vocabulary (a 10⁸-term web dictionary would OOM the
        driver the old ``to_pylist``-into-a-set way)."""
        hot_set = pa.array(sorted(self.hot)) if self.hot else None
        hot_seen: set[str] = set()
        n_terms = 0
        postings = 0
        for tp in range(self.P):
            ent = self._part(tp)
            if ent is None:
                continue
            tbl = ent[0]
            tcol = tbl["term"]
            n_terms += pc.count_distinct(tcol).as_py()
            if hot_set is not None:
                present = pc.unique(
                    pc.filter(tcol, pc.is_in(tcol, value_set=hot_set)))
                n_terms -= len(present)
                hot_seen.update(present.to_pylist())
            postings += int(pc.sum(tbl["n"]).as_py() or 0)
        n_terms += len(hot_seen)
        return pa.table({
            "n_docs": pa.array([int(self.stats["n_docs"])], pa.int64()),
            "n_terms": pa.array([n_terms], pa.int64()),
            "n_postings": pa.array([postings], pa.int64()),
        })

    def agg_percentile_ranks(self, terms: list[str], field: str,
                             values: list[int]) -> pa.Table:
        """ES ``percentile_ranks`` aggregation, exact-CDF flavor: for each
        probe value, the percentage of match-set docvalues ≤ it, in exact
        integer micro-percent (``count(x ≤ v)·100·10⁶ // n``; ES
        approximates with t-digest).  One docvalues fetch + one sort;
        each probe is a binary search.  Returns (value, pct_micro)."""
        arr = np.sort(_ints(self._match_frame(terms, [field])[field]))
        n = arr.size
        probes = np.asarray(list(values), dtype=np.int64)
        if n == 0:
            pct = pa.array([None] * probes.size, pa.int64())
        else:
            ranks = np.searchsorted(arr, probes, side="right")
            pct = pa.array(ranks * 100_000_000 // n, pa.int64())
        return pa.table({"value": pa.array(probes, pa.int64()),
                         "pct_micro": pct})

    def matrix_stats(self, terms: list[str], field_x: str,
                     field_y: str) -> pa.Table:
        """ES ``matrix_stats`` aggregation (two-field flavor): count,
        means, population variances, covariance and correlation over the
        match-set docs where BOTH docvalues are present (ES
        pairwise-deletes rows missing either field).  Everything derives
        from exact integer sufficient statistics (Σx, Σy, Σx², Σy², Σxy as
        unbounded python ints) with TRUNCATING integer division — DuckDB's
        ``//`` truncates toward zero while Python's floors, and covariance
        can be negative — in micro units.  Correlation is emitted as
        (sign, corr²·1e6): the sqrt ES applies would break integer SQL
        parity without adding information."""
        t = self._match_frame(terms, [field_x, field_y]).drop_null()
        x, y = _ints(t[field_x]), _ints(t[field_y])
        n = int(x.size)
        if n == 0:
            none = pa.array([None], pa.int64())
            return pa.table({"n": pa.array([0], pa.int64()),
                             "mean_x_micro": none, "mean_y_micro": none,
                             "var_x_micro": none, "var_y_micro": none,
                             "cov_micro": none, "corr_sign": none,
                             "corr_sq_micro": none})
        # int64 dot products wrap silently past 2^63 — go exact-object
        # above a conservative magnitude bound (never hit by sane fields)
        big = max(int(np.abs(x).max()), int(np.abs(y).max()), 1)
        if big * big * n < 2**62:
            sxx, syy, sxy = (int(np.dot(x, x)), int(np.dot(y, y)),
                             int(np.dot(x, y)))
        else:
            sxx = sum(int(v) * int(v) for v in x)
            syy = sum(int(v) * int(v) for v in y)
            sxy = sum(int(u) * int(v) for u, v in zip(x, y))
        sx, sy = int(x.astype(object).sum()), int(y.astype(object).sum())
        vxn = n * sxx - sx * sx          # n² · population variance ≥ 0
        vyn = n * syy - sy * sy
        cn = n * sxy - sx * sy           # n² · covariance (signed)
        corr_sq = ((cn * cn * 1_000_000) // (vxn * vyn)
                   if vxn > 0 and vyn > 0 else None)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "mean_x_micro": pa.array([self._tdiv(sx * 1_000_000, n)],
                                     pa.int64()),
            "mean_y_micro": pa.array([self._tdiv(sy * 1_000_000, n)],
                                     pa.int64()),
            "var_x_micro": pa.array([(vxn * 1_000_000) // (n * n)],
                                    pa.int64()),
            "var_y_micro": pa.array([(vyn * 1_000_000) // (n * n)],
                                    pa.int64()),
            "cov_micro": pa.array([self._tdiv(cn * 1_000_000, n * n)],
                                  pa.int64()),
            "corr_sign": pa.array([(cn > 0) - (cn < 0)], pa.int64()),
            "corr_sq_micro": pa.array([corr_sq], pa.int64()),
        })

    def top_metrics(self, terms: list[str], sort_field: str,
                    metric_field: str, k: int = 5) -> pa.Table:
        """ES ``top_metrics`` aggregation: the metric field's values at
        the top-``k`` match-set docs by (``sort_field`` DESC, doc_id ASC —
        the deterministic tie-break).  Docs missing the sort field are
        skipped (ES sorts them last, beyond any real top-k); a missing
        metric emits null.  Returns (sort_val, metric)."""
        t = self._match_frame(terms, [sort_field, metric_field])
        t = t.filter(pc.is_valid(t[sort_field]))
        s = _ints(t[sort_field])
        order = np.lexsort((t["docid"].to_numpy(), -s))[:k]
        return pa.table({
            "sort_val": pa.array(s[order], pa.int64()),
            "metric": t[metric_field].take(order).cast(pa.int64()),
        })

    def agg_mad(self, terms: list[str], field: str) -> pa.Table:
        """ES ``median_absolute_deviation`` aggregation, exact
        nearest-rank flavor: the LOWER median (0-based rank ``(n−1)//2``
        of the sorted values) of ``|x − lower-median(x)|`` over the
        match set's docvalues, nulls dropped.  ES approximates both
        medians with a t-digest; nearest-rank keeps the integer SQL
        parity this surface promises (same choice as agg_percentiles).
        Returns (n, median, mad)."""
        arr = np.sort(_ints(self._match_frame(terms, [field])[field]))
        n = int(arr.size)
        med = mad = None
        if n:
            med = int(arr[(n - 1) // 2])
            mad = int(np.sort(np.abs(arr - med))[(n - 1) // 2])
        return pa.table({"n": pa.array([n], pa.int64()),
                         "median": pa.array([med], pa.int64()),
                         "mad": pa.array([mad], pa.int64())})

    def agg_boxplot(self, terms: list[str], field: str) -> pa.Table:
        """ES ``boxplot`` aggregation, exact nearest-rank flavor: min /
        q1 / q2 / q3 / max of the match set's docvalues, quartiles at
        1-based rank ``ceil(p/100 · n)`` (ES approximates with a
        t-digest; nearest-rank is the deterministic exact analog — same
        choice as agg_percentiles/agg_mad).  Returns one row
        (n, min, q1, q2, q3, max), nulls dropped."""
        arr = np.sort(_ints(self._match_frame(terms, [field])[field]))
        return pa.table({"n": pa.array([int(arr.size)], pa.int64()),
                         "min": pa.array([_nearest_rank(arr, 0)], pa.int64()),
                         "q1": pa.array([_nearest_rank(arr, 25)], pa.int64()),
                         "q2": pa.array([_nearest_rank(arr, 50)], pa.int64()),
                         "q3": pa.array([_nearest_rank(arr, 75)], pa.int64()),
                         "max": pa.array([_nearest_rank(arr, 100)],
                                         pa.int64())})

    def string_stats(self, terms: list[str], field: str) -> pa.Table:
        """ES ``string_stats`` aggregation over a string docvalue of the
        match set: doc count, min/max length, integer-micro average
        length, and Shannon entropy (bits) of the CHARACTER distribution
        across all values.  Entropy is float by nature; SQL parity is
        kept by fixing the IEEE op sequence (the geotile discipline):
        per character ``term = -(p · log2 p)`` with ``p = c/total``
        (exact ints → one double divide), then a SEQUENTIAL sum in
        ascending character order (mirrored by the oracle's running
        window sum), floored to micro.  Returns one row
        (n, min_len, max_len, avg_len_micro, entropy_micro)."""
        import math
        vals = self._match_frame(terms, [field])[field].drop_null()
        n = len(vals)
        if n == 0:
            none = pa.array([None], pa.int64())
            return pa.table({"n": pa.array([0], pa.int64()),
                             "min_len": none, "max_len": none,
                             "avg_len_micro": none, "entropy_micro": none})
        lens = pc.utf8_length(vals).to_numpy(zero_copy_only=False)
        total_len = int(lens.sum())
        from collections import Counter
        counts = Counter()
        for s in vals.to_pylist():
            counts.update(s)
        total = sum(counts.values())
        ent = 0.0
        for ch in sorted(counts):           # sequential, char-ascending
            p = counts[ch] / total
            ent += -(p * math.log2(p))
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "min_len": pa.array([int(lens.min())], pa.int64()),
            "max_len": pa.array([int(lens.max())], pa.int64()),
            "avg_len_micro": pa.array([1_000_000 * total_len // n],
                                      pa.int64()),
            "entropy_micro": pa.array([math.floor(ent * 1_000_000)],
                                      pa.int64()),
        })

    def t_test(self, terms: list[str], field_a: str,
               field_b: str) -> pa.Table:
        """ES ``t_test`` aggregation, ``"type": "paired"``: Student's t
        over the per-doc differences ``a − b`` of two docvalue fields on
        the match set (docs missing either field are dropped, as ES
        does).  Sufficient statistics (n, Σd, Σd²) are exact Python
        bigints; the t statistic is then a FIXED double op sequence —
        ``mean = Σd/n``, ``var = (Σd² − (Σd·Σd)/n) / (n−1)``,
        ``t = mean / sqrt(var/n)`` — mirrored literally by the SQL
        oracle, floored to micro.  Returns one row
        (n, sum_d, sum_d2, t_micro)."""
        import math
        t = self._match_frame(terms, [field_a, field_b]).drop_null()
        d = (_ints(t[field_a]).astype(object)
             - _ints(t[field_b]).astype(object))   # Python bigints
        n = int(d.size)
        if n < 2:
            none = pa.array([None], pa.int64())
            return pa.table({"n": pa.array([n], pa.int64()), "sum_d": none,
                             "sum_d2": none, "t_micro": none})
        sum_d = int(sum(d))
        sum_d2 = int(sum(x * x for x in d))
        # explicit float() casts mirror the oracle's CAST(.. AS DOUBLE)
        # literally (Python's int/int true division rounds the exact
        # quotient, which differs from double(cast)/n past 2^53)
        sd, sd2 = float(sum_d), float(sum_d2)
        mean = sd / n
        var = (sd2 - (sd * sd) / n) / (n - 1)
        # var == 0 (all paired differences equal): the oracle's
        # x / sqrt(0/n) is a double division by zero, which DuckDB
        # NULL-propagates; a slightly NEGATIVE var from float
        # cancellation would raise in both engines — guard both to the
        # oracle-visible NULL.
        if var <= 0:
            t_micro = None
        else:
            t_micro = math.floor(mean / math.sqrt(var / n) * 1_000_000)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "sum_d": pa.array([sum_d], pa.int64()),
                         "sum_d2": pa.array([sum_d2], pa.int64()),
                         "t_micro": pa.array([t_micro], pa.int64())})

    def diversified_sampler(self, terms: list[str], field: str,
                            max_per: int = 2,
                            shard_size: int = 100) -> pa.Table:
        """ES ``diversified_sampler`` aggregation, filter-context
        deterministic flavor: walk the match set in docid order keeping
        at most ``max_per`` docs per distinct ``field`` docvalue, capped
        at ``shard_size`` total (ES de-dups by score order; filter
        context has no score, so index order is the ES tie-break).
        Vectorized: one stable sort + cumcount-per-value via
        searchsorted arithmetic.  Returns (doc_id, value) in docid
        order."""
        # docids ascend, so the walk is in row order; missing values
        # are skipped
        t = self._match_frame(terms, [field]).drop_null()
        codes = t[field].combine_chunks().dictionary_encode().indices
        keep = _cumcount(codes.to_numpy().astype(np.int64)) < max_per
        return pa.table({"doc_id": t["docid"], "value": t[field]}).filter(
            pa.array(keep)).slice(0, shard_size)

    def agg_geotile(self, terms: list[str], field: str,
                    zoom: int = 4) -> pa.Table:
        """ES ``geotile_grid`` aggregation: bucket the match set's
        geo_points into slippy-map (Web-Mercator) tiles at ``zoom`` and
        count per tile, empty tiles omitted (min_doc_count=1).  The tile
        math mirrors the SQL oracle's IEEE op sequence EXACTLY (same
        discipline as FieldStore._geo_mask):

            x = floor((lon + 180) / 360 · 2^z)
            y = floor((1 − ln(tan(latʳ) + 1/cos(latʳ))/π) / 2 · 2^z)

        No ±85.05° clamp: the synthetic fixture stays within ±60° (ES
        clamps only because the Mercator y diverges at the poles).
        Returns (tile_x, tile_y, n) sorted by (tile_x, tile_y)."""
        _, lat, lon = self._geo_points(terms, field)
        nt = np.float64(2.0) ** zoom
        xt = np.floor((lon + 180.0) / 360.0 * nt).astype(np.int64)
        latr = lat * (np.pi / 180.0)
        yt = np.floor((1.0 - np.log(np.tan(latr) + 1.0 / np.cos(latr))
                       / np.pi) / 2.0 * nt).astype(np.int64)
        key = xt * (1 << 32) + yt
        uniq, counts = np.unique(key, return_counts=True)
        return pa.table({
            "tile_x": pa.array(uniq >> 32, pa.int64()),
            "tile_y": pa.array(uniq & ((1 << 32) - 1), pa.int64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    def agg_ip_prefix(self, terms: list[str], field: str,
                      prefix_len: int = 16) -> pa.Table:
        """ES ``ip_prefix`` aggregation (IPv4): bucket the match set's
        ``ip``-typed docvalues by their /``prefix_len`` network prefix and
        count, empty buckets omitted.  Returns (prefix, n) with ``prefix``
        the integer network address (the dotted string is a display
        encoding).  Parsing is per-value Python on the candidate path,
        same trade-off as FieldStore's cidr mask (a scan-heavy ip
        workload would cache parsed uint32s per shard); non-IPv4 / null
        values are skipped (ES skips docs without a valid value)."""
        import socket
        import struct
        vals = self._match_frame(terms, [field])[field].to_pylist()
        mask = ((0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
                if prefix_len else 0)
        out = []
        for v in vals:
            try:
                out.append(struct.unpack("!I", socket.inet_aton(v))[0]
                           & mask)
            except (OSError, TypeError):
                continue
        arr = np.asarray(out, dtype=np.int64)
        uniq, counts = np.unique(arr, return_counts=True)
        return pa.table({"prefix": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    def agg_geohash_grid(self, terms: list[str], field: str,
                         precision: int = 3) -> pa.Table:
        """ES ``geohash_grid`` aggregation: bucket the match set's
        geo_points into geohash cells of ``precision`` base-32 characters
        (5·precision bits, lon first, alternating lon/lat) and count per
        cell, empty cells omitted.  INTEGER-EXACT end to end — quantize
        lat/lon to 2^ceil(5p/2) levels with floor division, then
        interleave bits — so the SQL oracle reproduces cell ids
        bit-identically with pure arithmetic (no trig, unlike geotile).
        Returns (cell, n) sorted by cell id; ``cell`` is the integer
        geohash (the base-32 string is a display encoding of it)."""
        _, lat, lon = self._geo_points(terms, field)
        bits = 5 * precision
        lon_bits = (bits + 1) // 2   # lon gets the extra odd bit
        lat_bits = bits // 2
        # quantize: cell index = floor((x - lo) / span * 2^k), clamped
        lon_q = np.minimum((np.floor((lon + 180.0) / 360.0
                                     * float(1 << lon_bits))
                            ).astype(np.int64), (1 << lon_bits) - 1)
        lat_q = np.minimum((np.floor((lat + 90.0) / 180.0
                                     * float(1 << lat_bits))
                            ).astype(np.int64), (1 << lat_bits) - 1)
        cell = np.zeros(lat_q.size, dtype=np.int64)
        # interleave MSB-first: even positions (0,2,…) take lon bits,
        # odd take lat bits — geohash bit order
        for i in range(bits):
            if i % 2 == 0:      # lon bit, from MSB
                src = (lon_q >> (lon_bits - 1 - i // 2)) & 1
            else:               # lat bit
                src = (lat_q >> (lat_bits - 1 - i // 2)) & 1
            cell = (cell << 1) | src
        uniq, counts = np.unique(cell, return_counts=True)
        return pa.table({"cell": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    def agg_moving_percentile(self, terms: list[str], field: str,
                              interval_us: int, window: int,
                              pct: int = 50) -> pa.Table:
        """ES ``moving_percentiles`` pipeline agg (exact nearest-rank
        flavor, shift=0 like moving_fn: frame = the previous ``window``
        buckets, current excluded; first bucket NULL): per present
        date_histogram bucket, the ``pct`` percentile of the frame's
        counts at 1-based rank ``ceil(pct/100 · len)``.  O(buckets ·
        window log window) on the tiny bucket vector.  Returns
        (bucket, n, pctl)."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        n = hist["n"].to_numpy()
        out = [_nearest_rank(np.sort(n[max(i - window, 0):i]), pct)
               for i in range(n.size)]
        return pa.table({"bucket": hist["bucket"], "n": hist["n"],
                         "pctl": pa.array(out, pa.int64())})

    def random_score(self, terms: list[str], seed: int,
                     k: int = 10) -> pa.Table:
        """ES ``function_score`` with ``random_score`` (seeded,
        field=_id): a deterministic pseudo-random per-doc score —
        ``md5_low64('<seed>:' || doc_id) % 1e6`` micro-units (ES hashes
        seed+field the same way in spirit; md5 gives exact DuckDB parity
        via ``md5_number_lower``, the hash family every other oracle-
        parity stage uses).  Top-k by (-score, doc_id); the hash runs in
        DuckDB's vectorized C++ kernel, never a per-row Python loop."""
        import duckdb
        docids = self._match_docids(terms)
        if docids.size == 0:
            empty = pa.array([], pa.int64())
            return pa.table({"doc_id": empty, "score_micro": empty})
        con = duckdb.connect()
        src = pa.table({"id": pa.array(docids, pa.int64())})
        con.register("_rs_src", src)
        try:
            sc = con.execute(
                f"SELECT (md5_number_lower('{int(seed)}:' || id)"
                f"        % 1000000)::BIGINT AS s FROM _rs_src"
            ).arrow()["s"].to_numpy(zero_copy_only=False)
        finally:
            con.close()
        top = np.lexsort((docids, -sc))[:k]
        return pa.table({
            "doc_id": pa.array(docids[top], pa.int64()),
            "score_micro": pa.array(sc[top], pa.int64()),
        })

    def agg_top_hits(self, terms: list[str], group_field: str,
                     per_group: int = 2) -> pa.Table:
        """ES ``top_hits`` sub-aggregation: within each group-field
        bucket of the match set, the top ``per_group`` docs by the micro
        disjunction score — (group, rank, doc_id, score_micro) rows,
        sorted by (group, rank)."""
        uniq = list(dict.fromkeys(terms))
        d0, m0 = self._union_micro(self._lookup(uniq), uniq)
        groups = self.fields.get(d0, [group_field])[group_field]
        # ES buckets skip docs missing the field; nulls also break the
        # object-dtype lexsort below (None vs str comparison)
        valid = groups.is_valid()
        keep = valid.to_numpy(zero_copy_only=False)
        d0, m0, groups = d0[keep], m0[keep], groups.filter(valid)
        garr = groups.to_numpy(zero_copy_only=False)
        # one lexsort: (group asc, -score, doc_id); then per-group rank by
        # run-length positions
        order = np.lexsort((d0, -m0, garr))
        gs = garr[order]
        starts = np.flatnonzero(np.concatenate(([True], gs[1:] != gs[:-1])))
        ranks = np.arange(gs.size) - np.repeat(
            starts, np.diff(np.concatenate((starts, [gs.size]))))
        keep = ranks < per_group
        sel = order[keep]
        return pa.table({
            group_field: groups.take(pa.array(sel, pa.int64())),
            "rank": pa.array(ranks[keep] + 1, pa.int64()),
            "doc_id": pa.array(d0[sel], pa.int64()),
            "score_micro": pa.array(m0[sel], pa.int64()),
        })

    def collapse_top(self, terms: list[str], group_field: str,
                     k: int = 10) -> pa.Table:
        """ES ``collapse`` (field collapsing): the micro-scored
        disjunction's top-k with at most ONE hit per distinct
        ``group_field`` value, each group represented by its best
        (-score, doc_id) doc — the serve-time host-dedup idiom (collapse
        on the url host so one site can't fill the page).  Docs with a
        null group value are skipped, matching the ``agg_top_hits``
        bucket semantics this builds on.  Returns
        (group_field, doc_id, score_micro) ranked (-score, doc_id)."""
        th = self.agg_top_hits(terms, group_field, per_group=1)
        d = th["doc_id"].to_numpy(zero_copy_only=False)
        m = th["score_micro"].to_numpy(zero_copy_only=False)
        top = pa.array(np.lexsort((d, -m))[:k], pa.int64())
        return pa.table({group_field: th[group_field].take(top),
                         "doc_id": th["doc_id"].take(top),
                         "score_micro": th["score_micro"].take(top)})

    def significant_terms(self, terms: list[str], k: int = 10,
                          min_fg: int = 2) -> pa.Table:
        """ES ``significant_terms``: terms over-represented in the match
        set (foreground) vs the whole corpus (background), scored by
        integer-exact lift micro units —
        ``(1e6 · fg_count · N) // (df · F)`` with N = corpus docs, F =
        match-set size, df = the term's exact global df from the
        dictionary (ES's JLH is a float heuristic; lift is its core ratio
        kept in integer arithmetic so the oracle is bit-identical).
        Foreground counts come from re-analyzing the match set's docstore
        text (the fielddata path ES itself uses).  Returns
        (term, fg, df, lift_micro) top-k by (-lift, term),
        fg ≥ ``min_fg``."""
        from collections import Counter
        texts = self._match_frame(terms, ["text"])["text"].to_pylist()
        F = len(texts)
        fg: Counter = Counter()
        for txt in texts:
            fg.update(set(self.analyze(txt or "")))
        cand = [t for t, c in fg.items() if c >= min_fg]
        # df straight from the dictionaries — a match set of a few
        # thousand docs yields 10k+ candidate terms, and _lookup would
        # copy every candidate's posting blobs just to read one integer
        N = self.params.n_docs
        dfs = self._dfs_of(cand)
        scored = []
        for t in cand:
            df = dfs.get(t, 0)
            if df == 0:
                continue
            lift = (1_000_000 * fg[t] * N) // (df * F)
            scored.append((-lift, t, fg[t], df))
        scored.sort()
        top = scored[:k]
        return pa.table({
            "term": pa.array([t for _, t, _, _ in top], pa.string()),
            "fg": pa.array([f for _, _, f, _ in top], pa.int64()),
            "df": pa.array([d for _, _, _, d in top], pa.int64()),
            "lift_micro": pa.array([-s for s, _, _, _ in top], pa.int64()),
        })

    def agg_date_histogram(self, terms: list[str], field: str,
                           interval_us: int) -> pa.Table:
        """ES ``date_histogram`` in filter context: timestamp docvalues
        floored to ``interval_us`` buckets (e.g. 3_600_000_000 = hourly ≡
        SQL ``date_trunc('hour', ts)`` for positive epochs); returns
        (bucket timestamp[us], n) sorted, empty buckets omitted."""
        micros = _ints(self._match_frame(terms, [field])[field])
        buckets = (micros // interval_us) * interval_us
        uniq, counts = np.unique(buckets, return_counts=True)
        return pa.table({
            "bucket": pa.array(uniq, pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(counts, pa.int64()),
        })

    def agg_derivative(self, terms: list[str], field: str,
                       interval_us: int, lag: int = 1) -> pa.Table:
        """ES ``derivative`` + ``serial_diff`` pipeline aggs over a
        DENSIFIED date_histogram (empty buckets between the first and last
        present bucket count 0 — ES gap_policy=insert_zeros): per bucket,
        ``deriv = n[i] − n[i−1]`` (first bucket NULL) and
        ``sdiff = n[i] − n[i−lag]`` (first ``lag`` buckets NULL).
        O(buckets) numpy on the tiny bucket vector."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        if hist.num_rows == 0:
            e64 = pa.array([], pa.int64())
            return pa.table({"bucket": pa.array([], pa.timestamp("us")),
                             "n": e64, "deriv": e64, "sdiff": e64})
        b = hist["bucket"].cast(pa.int64()).to_numpy()
        n = hist["n"].to_numpy()
        full = np.arange(b[0], b[-1] + interval_us, interval_us,
                         dtype=np.int64)
        dense = np.zeros(full.size, dtype=np.int64)
        dense[np.searchsorted(full, b)] = n
        deriv = np.empty(full.size, dtype=object)
        deriv[0] = None
        deriv[1:] = (dense[1:] - dense[:-1]).astype(object)
        sdiff = np.empty(full.size, dtype=object)
        sdiff[:lag] = None
        sdiff[lag:] = (dense[lag:] - dense[:-lag]).astype(object)
        return pa.table({
            "bucket": pa.array(full, pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(dense, pa.int64()),
            "deriv": pa.array(deriv.tolist(), pa.int64()),
            "sdiff": pa.array(sdiff.tolist(), pa.int64()),
        })

    def agg_max_bucket(self, terms: list[str], field: str,
                       interval_us: int) -> pa.Table:
        """ES ``max_bucket`` sibling agg: the bucket key(s) with the
        maximum count over the (sparse) date_histogram — ties ALL
        returned (ES's keys-list response), one row per tied key,
        sorted by bucket."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        if hist.num_rows == 0:
            return hist
        n = hist["n"].to_numpy()
        mask = pa.array(n == n.max())
        return pa.table({"bucket": hist["bucket"].filter(mask),
                         "n": hist["n"].filter(mask)})

    # ES auto_date_histogram rounding ladder (fixed-interval flavor of
    # the calendar ladder {1s, 1m×{1,5,10,30}, 1h×{1,3,12}, 1d×{1,7}, …}),
    # in microseconds, ascending
    _AUTO_DH_LADDER = [
        1_000_000, 60_000_000, 300_000_000, 600_000_000, 1_800_000_000,
        3_600_000_000, 10_800_000_000, 43_200_000_000, 86_400_000_000,
        604_800_000_000, 2_592_000_000_000, 7_776_000_000_000,
        31_536_000_000_000]

    def agg_auto_date_histogram(self, terms: list[str], field: str,
                                target: int = 10) -> pa.Table:
        """ES ``auto_date_histogram``: pick the SMALLEST ladder interval
        whose potential bucket span ``max//i − min//i + 1`` over the
        match set fits ``target`` buckets (ES's rounding-based estimate),
        then bucket exactly like date_histogram.  The selection is a
        scalar walk over min/max; deterministic, mirrored by the oracle's
        ladder-VALUES scan.  Returns (interval_us, bucket, n), the chosen
        interval repeated per row."""
        micros = _ints(self._match_frame(terms, [field])[field])
        if micros.size == 0:
            return pa.table({"interval_us": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.timestamp("us")),
                             "n": pa.array([], pa.int64())})
        lo, hi = int(micros.min()), int(micros.max())
        interval = self._AUTO_DH_LADDER[-1]
        for i in self._AUTO_DH_LADDER:
            if hi // i - lo // i + 1 <= target:
                interval = i
                break
        buckets = (micros // interval) * interval
        uniq, counts = np.unique(buckets, return_counts=True)
        return pa.table({
            "interval_us": pa.array([interval] * len(uniq), pa.int64()),
            "bucket": pa.array(uniq, pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(counts, pa.int64()),
        })

    def pinned(self, terms: list[str], ids: list[int],
               k: int = 10) -> pa.Table:
        """ES ``pinned`` query: the given ids rank first (in the given
        order, absent ids silently dropped — one
        :meth:`FieldStore.contains` probe), then organic BM25 hits
        EXCLUDING pinned ids fill the remaining slots; pinned hits count
        against the requested ``k`` (ES size semantics — total hits
        ``<= k``).  Returns (rank, doc_id, pinned)."""
        pin = list(dict.fromkeys(int(i) for i in ids))
        arr = np.asarray(pin, dtype=np.int64)
        present = (self.fields.contains(arr) if arr.size
                   else np.zeros(0, dtype=bool))
        kept = [i for i, ok in zip(pin, present) if ok][:k]
        d, _ = self.search_terms(terms, k=k + len(pin))
        organic = [int(x) for x in d
                   if int(x) not in set(kept)][:k - len(kept)]
        out = kept + organic
        return pa.table({
            "rank": pa.array(range(1, len(out) + 1), pa.int64()),
            "doc_id": pa.array(out, pa.int64()),
            "pinned": pa.array([r < len(kept) for r in range(len(out))],
                               pa.bool_()),
        })

    def agg_moving_selected(self, terms: list[str], field: str,
                            interval_us: int, window: int,
                            min_n: int) -> pa.Table:
        """ES ``moving_fn`` + ``bucket_selector`` pipeline aggs over a
        date_histogram: per PRESENT bucket, the exact-integer moving
        average (micro-units) of the previous ``window`` buckets' counts
        (ES moving_fn with shift=0: frame [i-window, i), current bucket
        excluded; first bucket → NULL), then a bucket_selector keeps only
        buckets with ``n >= min_n``.  Pipeline stages run AFTER the
        histogram, in ES order: the window sees every present bucket,
        selection only trims the response.  O(buckets) numpy on the tiny
        bucket vector."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        n = hist["n"].to_numpy()
        m = n.size
        idx = np.arange(m, dtype=np.int64)
        lo = np.maximum(idx - window, 0)
        csum = np.concatenate([[0], np.cumsum(n, dtype=np.int64)])
        wsum = csum[idx] - csum[lo]
        wcnt = idx - lo
        mov = np.where(wcnt > 0,
                       wsum * 1_000_000 // np.maximum(wcnt, 1), 0)
        keep = n >= min_n
        return pa.table({
            "bucket": hist["bucket"].filter(pa.array(keep)),
            "n": hist["n"].filter(pa.array(keep)),
            "mov_avg_micro": pa.array(
                [int(v) if c > 0 else None
                 for v, c, k_ in zip(mov, wcnt, keep) if k_],
                pa.int64()),
        })

    def agg_weighted_avg(self, terms: list[str], value_field: str,
                         weight_field: str) -> pa.Table:
        """ES ``weighted_avg`` aggregation in filter context: over the
        match set's (value, weight) integer docvalue pairs (docs missing
        EITHER field are skipped — ES skips docs without a value and
        treats missing weight as skip when no ``missing`` param is set),
        ``wavg_micro = (Σ v·w · 1e6) // Σ w`` in exact Python-bigint
        arithmetic (the oracle uses HUGEINT; Σ v·w·1e6 can exceed int64).
        Returns one row (n, sum_w, wavg_micro)."""
        t = self._match_frame(terms, [value_field, weight_field]).drop_null()
        v = _ints(t[value_field]).astype(object)     # Python bigints
        w = _ints(t[weight_field]).astype(object)
        sum_w = int(w.sum())
        if sum_w == 0:          # no pairs, or weights summing to zero
            sum_w = wavg = None
        else:
            wavg = int((v * w).sum()) * 1_000_000 // sum_w
        return pa.table({"n": pa.array([int(v.size)], pa.int64()),
                         "sum_w": pa.array([sum_w], pa.int64()),
                         "wavg_micro": pa.array([wavg], pa.int64())})

    def _geo_points(self, terms: list[str], field: str):
        """(docids, lat, lon) of the match set's geo_point ``field`` (the
        float64 docvalue pair ``field_lat``/``field_lon``); docs without
        both coordinates, or with a NaN one, are skipped."""
        t = self._match_frame(terms, [f"{field}_lat", f"{field}_lon"])
        lat = t[f"{field}_lat"].to_numpy().astype(np.float64)
        lon = t[f"{field}_lon"].to_numpy().astype(np.float64)
        ok = ~(np.isnan(lat) | np.isnan(lon))
        return t["docid"].to_numpy()[ok], lat[ok], lon[ok]

    def agg_geo_bounds(self, terms: list[str], field: str) -> pa.Table:
        """ES ``geo_bounds`` aggregation: the smallest box covering the
        match set's geo_points — top_left = (max lat, min lon),
        bottom_right = (min lat, max lon).  min/max of IEEE doubles is
        arithmetic-free, so the values are bit-identical to the SQL
        oracle's min/max over the same coordinate expression.  One row;
        all-null/empty → NULL corners (n = 0)."""
        _, lat, lon = self._geo_points(terms, field)
        if lat.size == 0:
            nonef = pa.array([None], pa.float64())
            return pa.table({"n": pa.array([0], pa.int64()),
                             "top_left_lat": nonef, "top_left_lon": nonef,
                             "bottom_right_lat": nonef,
                             "bottom_right_lon": nonef})
        return pa.table({
            "n": pa.array([int(lat.size)], pa.int64()),
            "top_left_lat": pa.array([float(lat.max())], pa.float64()),
            "top_left_lon": pa.array([float(lon.min())], pa.float64()),
            "bottom_right_lat": pa.array([float(lat.min())], pa.float64()),
            "bottom_right_lon": pa.array([float(lon.max())], pa.float64()),
        })

    @staticmethod
    def _tdiv(a: int, b: int) -> int:
        """Integer division TRUNCATED toward zero — DuckDB's ``//`` on
        integer operands (Python's ``//`` floors, which differs on
        negative sums; geo centroids can be negative)."""
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def agg_geo_centroid(self, terms: list[str], field: str) -> pa.Table:
        """ES ``geo_centroid`` aggregation: arithmetic mean of the match
        set's geo_points.  Float summation is order-sensitive, so the mean
        is computed EXACTLY: each coordinate is recovered to integer
        millidegrees (``floor(x·1000 + 0.5)`` — the synthetic fixture is
        millidegree-quantized, and the oracle applies the identical
        expression), summed as int64, and divided in integer micro
        (truncated like DuckDB ``//``).  One row (n, lat_micro,
        lon_micro)."""
        _, lat, lon = self._geo_points(terms, field)
        if lat.size == 0:
            none = pa.array([None], pa.int64())
            return pa.table({"n": pa.array([0], pa.int64()),
                             "lat_micro": none, "lon_micro": none})
        lat_mil = np.floor(lat * 1000.0 + 0.5).astype(np.int64)
        lon_mil = np.floor(lon * 1000.0 + 0.5).astype(np.int64)
        n = int(lat.size)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "lat_micro": pa.array(
                [self._tdiv(int(lat_mil.sum()) * 1000, n)], pa.int64()),
            "lon_micro": pa.array(
                [self._tdiv(int(lon_mil.sum()) * 1000, n)], pa.int64()),
        })

    def sort_by_geo_distance(self, terms: list[str], field: str,
                             lat0: float, lon0: float,
                             k: int = 10) -> pa.Table:
        """ES ``sort: _geo_distance`` (asc): the match set's top-k nearest
        geo_points to ``(lat0, lon0)`` by haversine arc distance on the
        6,371,000 m sphere, ties broken by docid.  The distance expression
        mirrors :meth:`FieldStore._geo_mask`'s IEEE op sequence (and the
        SQL oracle's) exactly; millidegree-quantized fixtures keep
        distinct points well past ulp skew, so the ORDER is
        deterministic across engines.  Returns (rank, doc_id, dist_m —
        floor meters; boundary-exact for points with margin from integer
        meters, same discipline as the geo filters)."""
        docids, lat, lon = self._geo_points(terms, field)
        RAD = 0.017453292519943295
        sdlat = np.sin((lat - lat0) * RAD / 2.0)
        sdlon = np.sin((lon - lon0) * RAD / 2.0)
        cc = np.cos(lat0 * RAD) * np.cos(lat * RAD)
        h = sdlat * sdlat + cc * sdlon * sdlon
        dist = 2.0 * 6371000.0 * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
        order = np.lexsort((docids, dist))[:k]
        return pa.table({
            "rank": pa.array(range(1, order.size + 1), pa.int64()),
            "doc_id": pa.array(docids[order], pa.int64()),
            "dist_m": pa.array(np.floor(dist[order]).astype(np.int64),
                               pa.int64()),
        })

    def agg_stats_bucket(self, terms: list[str], field: str,
                         interval_us: int) -> pa.Table:
        """ES ``stats_bucket`` pipeline aggregation (subsumes avg_bucket /
        sum_bucket / min_bucket-value / max_bucket-value): stats over the
        sibling date_histogram's PRESENT bucket counts.  One row
        (n_buckets, min_n, max_n, sum_n, avg_micro); avg in exact integer
        micro."""
        n = self.agg_date_histogram(terms, field, interval_us)["n"].to_numpy()
        nb = int(n.size)
        return pa.table({
            "n_buckets": pa.array([nb], pa.int64()),
            "min_n": pa.array([int(n.min()) if nb else None], pa.int64()),
            "max_n": pa.array([int(n.max()) if nb else None], pa.int64()),
            "sum_n": pa.array([int(n.sum()) if nb else None], pa.int64()),
            "avg_micro": pa.array([_micro_moments(nb, int(n.sum()))[0]],
                                  pa.int64()),
        })

    def agg_percentiles_bucket(self, terms: list[str], field: str,
                               interval_us: int,
                               pcts: list[int]) -> pa.Table:
        """ES ``percentiles_bucket`` pipeline aggregation: exact
        nearest-rank percentiles (the :meth:`agg_percentiles` convention —
        value at 1-based rank ``ceil(p/100 · n)``) over the sibling
        date_histogram's PRESENT bucket counts.  Returns (pct, value);
        empty histogram → NULL values."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        arr = np.sort(hist["n"].to_numpy())
        return pa.table({
            "pct": pa.array(list(pcts), pa.int64()),
            "value": pa.array([_nearest_rank(arr, p) for p in pcts],
                              pa.int64()),
        })

    def agg_bucket_sort(self, terms: list[str], field: str,
                        interval_us: int, size: int = 5,
                        ascending: bool = False) -> pa.Table:
        """ES ``bucket_sort`` pipeline aggregation: reorder the sibling
        date_histogram's buckets by count (desc by default, ties by
        bucket asc — ES's deterministic tiebreak on the sort key then
        bucket key) and truncate to ``size`` — the "top N busiest hours"
        shape.  Returns (rank, bucket, n)."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        n = hist["n"].to_numpy()
        b = hist["bucket"].cast(pa.int64()).to_numpy()
        order = np.lexsort((b, n if ascending else -n))[:size]
        return pa.table({
            "rank": pa.array(range(1, order.size + 1), pa.int64()),
            "bucket": pa.array(b[order], pa.int64()).cast(
                pa.timestamp("us")),
            "n": pa.array(n[order], pa.int64()),
        })

    def agg_normalize(self, terms: list[str], field: str,
                      interval_us: int) -> pa.Table:
        """ES ``normalize`` pipeline aggregation (``rescale_0_1``) over a
        date_histogram's bucket counts: per present bucket,
        ``(n − min) · 1e6 // (max − min)`` in exact integer micro; a
        single-valued histogram (max == min) yields NULL (the rescale is
        undefined — ES emits 0/0)."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        n = hist["n"].to_numpy()
        lo, hi = (int(n.min()), int(n.max())) if n.size else (0, 0)
        if hi == lo:
            norm = pa.array([None] * n.size, pa.int64())
        else:
            norm = pa.array((n - lo) * 1_000_000 // (hi - lo), pa.int64())
        return pa.table({"bucket": hist["bucket"], "n": hist["n"],
                         "norm_micro": norm})

    def agg_date_range(self, terms: list[str], field: str,
                       edges: list[int]) -> pa.Table:
        """ES ``date_range`` aggregation: count the match set's timestamp
        docvalues into the half-open ranges ``(-inf, e0), [e0, e1), …,
        [eN, +inf)`` (ES's from-inclusive / to-exclusive convention),
        keyed by range index.  Unlike ``range``/histogram, EMPTY ranges
        are kept (ES date_range always returns every requested range).
        One searchsorted over the sorted edge vector.  Null values are
        skipped.  Returns (range_idx, from_us, to_us, n) — from/to NULL
        at the open ends."""
        e = np.asarray(sorted(int(x) for x in edges), dtype=np.int64)
        nb = e.size + 1
        counts = self._edge_counts(terms, field, e)
        froms = [None] + [int(x) for x in e]
        tos = [int(x) for x in e] + [None]
        return pa.table({
            "range_idx": pa.array(range(nb), pa.int64()),
            "from_us": pa.array(froms, pa.int64()),
            "to_us": pa.array(tos, pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    def agg_bucket_script(self, terms_a: list[str], terms_b: list[str],
                          field: str, interval_us: int) -> pa.Table:
        """ES ``bucket_script`` pipeline aggregation over a date_histogram
        with two ``filters`` sub-counts: per bucket PRESENT in the union
        match set, ``ratio_micro = n_a · 1e6 // n_b`` (NULL when n_b = 0 —
        the script's division by zero, which ES/painless propagates as an
        empty value).  Returns (bucket, n_a, n_b, ratio_micro) sorted."""
        ha = self.agg_date_histogram(terms_a, field, interval_us)
        hb = self.agg_date_histogram(terms_b, field, interval_us)
        ba = ha["bucket"].cast(pa.int64()).to_numpy()
        bb = hb["bucket"].cast(pa.int64()).to_numpy()
        na, nb = ha["n"].to_numpy(), hb["n"].to_numpy()
        buckets = np.union1d(ba, bb)
        a_full = np.zeros(buckets.size, dtype=np.int64)
        a_full[np.searchsorted(buckets, ba)] = na
        b_full = np.zeros(buckets.size, dtype=np.int64)
        b_full[np.searchsorted(buckets, bb)] = nb
        ratio = [int(x) * 1_000_000 // int(y) if y else None
                 for x, y in zip(a_full, b_full)]
        return pa.table({
            "bucket": pa.array(buckets, pa.int64()).cast(pa.timestamp("us")),
            "n_a": pa.array(a_full, pa.int64()),
            "n_b": pa.array(b_full, pa.int64()),
            "ratio_micro": pa.array(ratio, pa.int64()),
        })

    def agg_rate(self, terms: list[str], field: str, interval_us: int,
                 unit_us: int) -> pa.Table:
        """ES ``rate`` aggregation inside a date_histogram: per present
        bucket, the event rate re-expressed per ``unit_us`` (e.g. hourly
        buckets reported as per-minute rates) — exact integer micro:
        ``rate_micro = n · unit_us · 1e6 // interval_us``.  Returns
        (bucket, n, rate_micro)."""
        hist = self.agg_date_histogram(terms, field, interval_us)
        n = hist["n"].to_numpy()
        rate = n.astype(object) * unit_us * 1_000_000 // interval_us
        return pa.table({
            "bucket": hist["bucket"], "n": hist["n"],
            "rate_micro": pa.array([int(x) for x in rate], pa.int64()),
        })

    def agg_cumulative_cardinality(self, terms: list[str], date_field: str,
                                   key_field: str,
                                   interval_us: int) -> pa.Table:
        """ES ``cumulative_cardinality`` pipeline aggregation: per present
        date_histogram bucket, the number of DISTINCT ``key_field`` values
        seen in that bucket or any earlier one (exact, not HLL — the agg's
        documented use is "new users per period").  Vectorized: each key's
        FIRST bucket via lexsort-firsts, then one searchsorted of the
        sorted firsts against the bucket edges.  Docs missing either field
        are skipped.  Returns (bucket, n, cum_card) sorted."""
        t = self._match_frame(terms, [date_field, key_field]).drop_null()
        bucket = (_ints(t[date_field]) // interval_us) * interval_us
        key = _ints(t[key_field])
        # each key's first bucket: sort by (key, bucket), take run firsts
        order = np.lexsort((bucket, key))
        ks, bs = key[order], bucket[order]
        first = np.ones(ks.size, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        firsts = np.sort(bs[first])
        uniq, counts = np.unique(bucket, return_counts=True)
        cum = np.searchsorted(firsts, uniq, side="right")
        return pa.table({
            "bucket": pa.array(uniq, pa.int64()).cast(pa.timestamp("us")),
            "n": pa.array(counts, pa.int64()),
            "cum_card": pa.array(cum.astype(np.int64), pa.int64()),
        })

    def filter_docs(self, filters: dict, k: int | None = None) -> np.ndarray:
        """Filter-context-ONLY query: docids (sorted ascending) whose
        stored fields satisfy ``filters`` — the ES ``constant_score``
        term/range query, and in particular the exact-match query on a
        TEXT column's ``keyword`` subfield (store the text column itself
        via ``store_fields`` and filter by the verbatim untokenized value;
        the generated mapping's text+keyword multi-field promise,
        /root/reference/src/search-ingest/schemas.cr:313-322)."""
        d = self.fields.scan(filters)
        return d[:k] if k is not None else d

    # -- phrase queries (requires an index built with_positions=True) -------

    @staticmethod
    def _decode_positions(row: dict, tfs: np.ndarray) -> list[np.ndarray]:
        """Decode the position stream into one array per posting (counts are
        the term frequencies)."""
        from ..codec import decode_positions
        return decode_positions(row["pos_blob"], tfs)

    def phrase_match_docs(self, terms: list[str], slop: int = 0) -> np.ndarray:
        """Docids (unsorted int64) whose positions contain the ordered
        phrase within total gap ≤ slop — the match half of
        :meth:`match_phrase`, scoring-free so multi-epoch serving can score
        with its own (current) global stats."""
        d, _ = self._phrase_impl(terms, slop=slop, want_scores=False)
        return d

    def match_phrase(self, phrase: str | list[str], k: int = 10,
                     filters: dict | None = None, slop: int = 0):
        """Phrase top-k: documents containing the analyzed terms in order,
        scored by BM25 over the phrase terms.

        ``slop``: maximum total number of gap positions allowed between
        consecutive phrase terms (ordered sloppy match — there must exist
        strictly increasing positions p_1 < … < p_n, one per phrase term,
        with Σ(p_{i+1} − p_i − 1) ≤ slop).  ``slop=0`` is the exact
        consecutive phrase.  Matching uses a vectorized prefix-min gap DP
        per candidate doc: G_i(q) = q − 1 + min_{p<q}(G_{i−1}(p) − p).

        Requires positions in the index (``build_index(with_positions=True)``).
        Returns (docids, scores) sorted by (-score, docid)."""
        terms = self.analyze(phrase) if isinstance(phrase, str) else list(phrase)
        md, ms = self._phrase_impl(terms, slop=slop)
        if md.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if filters:
            m = self.fields.mask(md, filters)
            md, ms = md[m], ms[m]
        top = np.lexsort((md, -ms))[:k]
        return md[top], ms[top]

    def intervals_match(self, t1: str, t2: str, max_gaps: int = 2,
                        ordered: bool = False) -> np.ndarray:
        """ES ``intervals`` query — two ``match`` clauses under ``all_of``
        with ``max_gaps``: sorted docids containing both terms within a
        minimal interval of at most ``max_gaps`` interior positions.

        ``ordered=True`` is exactly the sloppy-phrase gap DP
        (:meth:`phrase_match_docs` with slop=max_gaps).  The unordered case
        checks, for every position of ``t2``, its nearest ``t1`` position
        on EITHER side within the same doc — one flattened
        (docrank<<32 | pos) searchsorted per direction over ALL candidate
        docs at once, the same zero-per-doc-Python layout as
        :meth:`_phrase_impl`.  Nearest-only is exact: if the nearest ``t1``
        exceeds the gap budget, every farther one does too.  Stacked
        same-position tokens (preserve_original) yield gap −1 and match any
        non-negative ``max_gaps``, as Lucene's overlapping intervals do.

        Requires positions (``build_index(with_positions=True)``)."""
        if ordered:
            return np.sort(self.phrase_match_docs([t1, t2], slop=max_gaps))
        rows_by_term = self._lookup([t1, t2])
        per: dict[str, dict] = {}
        for t in (t1, t2):
            ent = self._pos_entry(rows_by_term.get(t) or [])
            if ent is None:
                return np.empty(0, dtype=np.int64)
            per[t] = ent
        cand = np.intersect1d(per[t1]["sorted_docs"], per[t2]["sorted_docs"])
        if cand.size == 0:
            return np.empty(0, dtype=np.int64)
        k1 = self._flat_pos_keys(per[t1], cand)
        k2 = self._flat_pos_keys(per[t2], cand)
        pos_mask = self._PHRASE_K - 1
        dr2, pos2 = k2 >> 32, k2 & pos_mask
        # nearest t1 at-or-before each t2 position (same doc)
        il = np.searchsorted(k1, k2, side="right") - 1
        ilc = np.maximum(il, 0)
        ok = ((il >= 0) & ((k1[ilc] >> 32) == dr2)
              & (pos2 - (k1[ilc] & pos_mask) - 1 <= max_gaps))
        # nearest t1 at-or-after
        ir = np.searchsorted(k1, k2, side="left")
        irc = np.minimum(ir, k1.size - 1)
        ok |= ((ir < k1.size) & ((k1[irc] >> 32) == dr2)
               & ((k1[irc] & pos_mask) - pos2 - 1 <= max_gaps))
        return cand[np.unique(dr2[ok])]

    def _pos_entry(self, rows: list[dict]) -> dict | None:
        """Gather a term's postings + positions across salted sub-lists
        into one flat layout (docs, per-doc counts, concatenated position
        lists, docid sort order) — the shared substrate of the positional
        set operators (intervals, span_not).  None if the term is absent."""
        if not rows:
            return None
        docs, counts, flats = [], [], []
        for row in rows:
            if "pos_blob" not in row:
                raise ValueError(
                    "index was built without positions; rebuild with "
                    "with_positions=True for positional queries")
            d, tf, _dl = self._decode_list(row)
            plists = self._decode_positions(row, tf)
            docs.append(d.astype(np.int64))
            counts.append(tf.astype(np.int64))
            flats.append(np.concatenate(plists) if plists
                         else np.empty(0, dtype=np.int64))
        ent = {"docs": np.concatenate(docs),
               "counts": np.concatenate(counts),
               "flat": np.concatenate(flats).astype(np.int64)}
        ent["cum"] = np.concatenate(
            [[0], np.cumsum(ent["counts"])]).astype(np.int64)
        ent["order"] = np.argsort(ent["docs"], kind="stable")
        ent["sorted_docs"] = ent["docs"][ent["order"]]
        return ent

    def _flat_pos_keys(self, ent: dict, cand: np.ndarray) -> np.ndarray:
        """(docrank << 32) | position keys for the candidate docs, globally
        sorted — one searchsorted then serves every candidate at once."""
        pi = ent["order"][np.searchsorted(ent["sorted_docs"], cand)]
        lens = ent["counts"][pi]
        starts = ent["cum"][pi]
        total = int(lens.sum())
        seg = np.concatenate([[0], np.cumsum(lens)])[:-1]
        out = np.repeat(starts - seg, lens) + np.arange(total)
        dr = np.repeat(np.arange(cand.size, dtype=np.int64), lens)
        return dr * self._PHRASE_K + ent["flat"][out]

    def span_not(self, include: str, exclude: str, pre: int = 0,
                 post: int = 0) -> np.ndarray:
        """ES ``span_not`` query (single-term spans): sorted docids with at
        least one occurrence of ``include`` that has NO ``exclude``
        occurrence within ``pre`` tokens before or ``post`` tokens after
        (``pre = post = 0`` blocks only same-position overlap — stacked
        preserve_original tokens).  Docs containing ``include`` but not
        ``exclude`` match outright.  Vectorized like
        :meth:`intervals_match`: per include occurrence, the nearest
        exclude position on each side via two searchsorteds over the
        flattened (docrank, pos) keys; nearest-only is exact — if the
        nearest exclude is outside the window, all farther ones are too.

        Requires positions (``build_index(with_positions=True)``)."""
        rows_by_term = self._lookup([include, exclude])
        inc = self._pos_entry(rows_by_term.get(include) or [])
        if inc is None:
            return np.empty(0, dtype=np.int64)
        exc = self._pos_entry(rows_by_term.get(exclude) or [])
        inc_docs = np.unique(inc["sorted_docs"])
        if exc is None:
            return inc_docs
        both = np.intersect1d(inc_docs, exc["sorted_docs"])
        only = np.setdiff1d(inc_docs, both, assume_unique=True)
        if both.size == 0:
            return only
        k1 = self._flat_pos_keys(inc, both)   # include occurrences
        k2 = self._flat_pos_keys(exc, both)   # exclude occurrences
        pos_mask = self._PHRASE_K - 1
        dr1, pos1 = k1 >> 32, k1 & pos_mask
        # nearest exclude at-or-before each include position
        il = np.searchsorted(k2, k1, side="right") - 1
        ilc = np.maximum(il, 0)
        blocked = ((il >= 0) & ((k2[ilc] >> 32) == dr1)
                   & (pos1 - (k2[ilc] & pos_mask) <= pre))
        # nearest exclude at-or-after
        ir = np.searchsorted(k2, k1, side="left")
        irc = np.minimum(ir, k2.size - 1)
        blocked |= ((ir < k2.size) & ((k2[irc] >> 32) == dr1)
                    & ((k2[irc] & pos_mask) - pos1 <= post))
        surv = both[np.unique(dr1[~blocked])]
        return np.union1d(only, surv)

    def span_within(self, little: str, big_first: str, big_second: str,
                    slop: int = 2) -> np.ndarray:
        """ES ``span_within`` query (single-term little, ordered two-term
        ``span_near`` big): sorted docids with at least one ``little``
        occurrence enclosed by a valid (``big_first`` … ``big_second``)
        span with ≤ ``slop`` interior positions.  Containment reduces
        EXACTLY to a local test per little position c: with A = the
        nearest ``big_first`` at-or-before c and B = the nearest
        ``big_second`` at-or-after c, some valid span contains c iff
        ``B − A − 1 ≤ slop`` (any containing pair (a, b) has a ≤ A and
        b ≥ B, so (A, B) minimizes the gap) — two searchsorteds over the
        flattened (docrank, pos) keys, zero per-doc Python.
        ``span_containing`` is the same predicate viewed from the big
        span.  Requires positions."""
        rows = self._lookup([little, big_first, big_second])
        ents = {}
        for t in (little, big_first, big_second):
            ent = self._pos_entry(rows.get(t) or [])
            if ent is None:
                return np.empty(0, dtype=np.int64)
            ents[t] = ent
        cand = np.intersect1d(
            np.intersect1d(ents[little]["sorted_docs"],
                           ents[big_first]["sorted_docs"]),
            ents[big_second]["sorted_docs"])
        if cand.size == 0:
            return np.empty(0, dtype=np.int64)
        kc = self._flat_pos_keys(ents[little], cand)
        ka = self._flat_pos_keys(ents[big_first], cand)
        kb = self._flat_pos_keys(ents[big_second], cand)
        pos_mask = self._PHRASE_K - 1
        drc, posc = kc >> 32, kc & pos_mask
        ia = np.searchsorted(ka, kc, side="right") - 1
        iac = np.maximum(ia, 0)
        a_ok = (ia >= 0) & ((ka[iac] >> 32) == drc)
        ib = np.searchsorted(kb, kc, side="left")
        ibc = np.minimum(ib, kb.size - 1)
        b_ok = (ib < kb.size) & ((kb[ibc] >> 32) == drc)
        gap = (kb[ibc] & pos_mask) - (ka[iac] & pos_mask) - 1
        ok = a_ok & b_ok & (gap <= slop)
        return cand[np.unique(drc[ok])]

    # (docrank << 32) | position keys make the concatenation of all
    # candidates' per-doc sorted position lists GLOBALLY sorted, so one
    # searchsorted serves every candidate at once
    _PHRASE_K = np.int64(1) << 32
    # per-doc value offset: doc d's DP values sit BIG·d below doc d-1's, so
    # a single global cummin never lets an earlier doc's value win inside a
    # later doc's segment (BIG > any |g − pos| spread: pos < 2^31, g ≤ slop)
    _PHRASE_BIG = np.int64(1) << 33

    def _phrase_impl(self, terms: list[str], slop: int = 0,
                     want_scores: bool = True):
        """Sloppy-phrase match, DP flattened ACROSS candidate docs.

        Per phrase term, all candidates' position lists are gathered into
        one flat array keyed by (candidate_rank, position); the gap DP
        G(q) = q − 1 + min_{p<q, same doc}(G(p) − p) then runs as ONE
        cummin + ONE searchsorted per term over the whole candidate set —
        no per-doc Python loop, so a phrase of two common terms costs
        O(total positions) numpy work instead of O(candidates) Python
        iterations."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        if not terms:
            return empty
        rows_by_term = self._lookup(terms)
        p = self.params
        per_term: dict[str, dict] = {}
        for t in dict.fromkeys(terms):
            rows = rows_by_term.get(t) or []
            if not rows:
                return empty
            docs, counts, flats, scs = [], [], [], []
            for row in rows:
                if "pos_blob" not in row:
                    raise ValueError(
                        "index was built without positions; rebuild with "
                        "with_positions=True for phrase queries")
                d, tf, dl = self._decode_list(row)
                plists = self._decode_positions(row, tf)
                docs.append(d.astype(np.int64))
                counts.append(tf.astype(np.int64))
                flats.append(np.concatenate(plists) if plists
                             else np.empty(0, dtype=np.int64))
                if want_scores:
                    scs.append(term_scores(tf, dl, row["df"], p))
            ent = {"docs": np.concatenate(docs),
                   "counts": np.concatenate(counts),
                   "flat": np.concatenate(flats).astype(np.int64)}
            ent["cum"] = np.concatenate(
                [[0], np.cumsum(ent["counts"])]).astype(np.int64)
            if want_scores:
                ent["scores"] = np.concatenate(scs)
            # a doc appears in exactly one (possibly salted) sub-list, so
            # one stable argsort maps candidate docids → posting index
            ent["order"] = np.argsort(ent["docs"], kind="stable")
            ent["sorted_docs"] = ent["docs"][ent["order"]]
            per_term[t] = ent

        # candidate docs: intersection across distinct terms (sorted)
        uniq_terms = list(per_term)
        cand = per_term[uniq_terms[0]]["sorted_docs"]
        for t in uniq_terms[1:]:
            cand = np.intersect1d(cand, per_term[t]["sorted_docs"],
                                  assume_unique=False)
        if cand.size == 0:
            return empty

        def flat_keys(t: str):
            """(keys, lens) — every candidate's positions for term t as
            sorted (docrank<<32 | pos) keys (ragged gather, no Python)."""
            ent = per_term[t]
            pi = ent["order"][np.searchsorted(ent["sorted_docs"], cand)]
            lens = ent["counts"][pi]
            starts = ent["cum"][pi]
            total = int(lens.sum())
            seg_off = np.concatenate([[0], np.cumsum(lens)])[:-1]
            out_idx = np.repeat(starts - seg_off, lens) + np.arange(total)
            pos = ent["flat"][out_idx]
            dr = np.repeat(np.arange(cand.size, dtype=np.int64), lens)
            return dr * self._PHRASE_K + pos, pi

        cur_keys, _ = flat_keys(terms[0])
        g = np.zeros(cur_keys.size, dtype=np.int64)
        for t in terms[1:]:
            if cur_keys.size == 0:
                break
            nxt_keys, _ = flat_keys(t)
            dr_cur = cur_keys >> 32
            pos_cur = cur_keys & (self._PHRASE_K - 1)
            # segmented prefix-min via per-doc offsets (see _PHRASE_BIG)
            prefmin = np.minimum.accumulate((g - pos_cur) - dr_cur
                                            * self._PHRASE_BIG)
            idx = np.searchsorted(cur_keys, nxt_keys, side="left") - 1
            idxc = np.maximum(idx, 0)
            dr_nxt = nxt_keys >> 32
            same = (idx >= 0) & ((cur_keys[idxc] >> 32) == dr_nxt)
            G = (nxt_keys & (self._PHRASE_K - 1)) - 1 \
                + prefmin[idxc] + dr_nxt * self._PHRASE_BIG
            keep = same & (G <= slop)
            cur_keys, g = nxt_keys[keep], G[keep]
        if cur_keys.size == 0:
            return empty
        matched_dr = np.unique(cur_keys >> 32)
        md = cand[matched_dr]
        if not want_scores:
            return md, np.zeros(md.size, dtype=np.float64)
        cand_scores = np.zeros(cand.size, dtype=np.float64)
        for t in uniq_terms:
            ent = per_term[t]
            pi = ent["order"][np.searchsorted(ent["sorted_docs"], cand)]
            cand_scores += ent["scores"][pi]
        return md, cand_scores[matched_dr]


def bool_combine(get_micro, must: list[str], should: list[str],
                 must_not: list[str], k: int):
    """Shared must/should/must_not combiner over per-term sorted
    ``get_micro(term) -> (docids int64[] ascending, micro int64[])``
    providers — used by :meth:`Searcher.search_bool` (single epoch) and
    :meth:`MultiEpochSearcher.search_bool` (delta chains), so the bool
    semantics cannot drift between the two paths.

    Document-at-a-time conjunction: the must intersection shrinks the
    candidate set before should/must_not lists are consulted."""
    if not must and not should:
        e = np.empty(0, dtype=np.int64)
        return e, e

    if must:
        d0, m0 = get_micro(must[0])
        for t in must[1:]:
            if d0.size == 0:
                break
            d1, m1 = get_micro(t)
            keep0 = _isin_sorted_i64(d0, d1)
            d0, m0 = d0[keep0], m0[keep0]
            keep1 = _isin_sorted_i64(d1, d0)
            m0 = m0 + m1[keep1]
    else:
        # should-only: disjunction (accumulate union)
        parts = [get_micro(t) for t in should]
        d_all = np.concatenate([d for d, _ in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        m_all = np.concatenate([m for _, m in parts]) if parts else \
            np.empty(0, dtype=np.int64)
        d0, inv = np.unique(d_all, return_inverse=True)
        m0 = np.zeros(d0.size, dtype=np.int64)
        np.add.at(m0, inv, m_all)
        should = []

    for t in should:
        if d0.size == 0:
            break
        d1, m1 = get_micro(t)
        pos = np.searchsorted(d0, d1)
        ok = (pos < d0.size)
        ok[ok] = d0[pos[ok]] == d1[ok]
        np.add.at(m0, pos[ok], m1[ok])

    for t in must_not:
        if d0.size == 0:
            break
        d1, _ = get_micro(t)
        keep = ~_isin_sorted_i64(d0, d1)
        d0, m0 = d0[keep], m0[keep]

    if d0.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    top = np.lexsort((d0, -m0))[:k]
    return d0[top], m0[top]


def multi_match(searchers: list["Searcher"], terms: list[str], k: int = 10,
                mode: str = "best_fields",
                boosts: list[int] | None = None):
    """ES ``multi_match`` across per-field indexes: each field is its own
    inverted index with its OWN corpus stats (dl, avgdl, df) — exactly
    ES/Lucene's model, where a multi-field document is N independent field
    postings.  ``best_fields`` takes the per-doc MAX of the field scores,
    ``most_fields`` the SUM (both over integer micro units, so a DuckDB
    oracle reproduces them bit-exactly).  ``boosts`` are per-field INTEGER
    multipliers (the ``field^2`` syntax) applied to the field's micro
    scores before combination — integers keep the oracle exact.

    Returns (docids int64[], score_micro int64[]) by (-score, docid)."""
    if mode not in ("best_fields", "most_fields"):
        raise ValueError(f"unknown multi_match mode {mode!r}")
    if boosts is None:
        boosts = [1] * len(searchers)
    if len(boosts) != len(searchers):
        raise ValueError("one boost per field searcher required")
    uniq = list(dict.fromkeys(terms))
    accs = [s._union_micro(s._lookup(uniq), uniq) for s in searchers]
    if not accs:
        e = np.empty(0, dtype=np.int64)
        return e, e
    d0 = np.unique(np.concatenate([d for d, _ in accs]))
    comb = np.zeros(d0.size, dtype=np.int64)
    for (d, m), boost in zip(accs, boosts):
        pos = np.searchsorted(d0, d)
        if mode == "best_fields":
            np.maximum.at(comb, pos, m * int(boost))
        else:
            np.add.at(comb, pos, m * int(boost))
    top = np.lexsort((d0, -comb))[:k]
    return d0[top], comb[top]


class QueryScorer:
    """Actor-pool stage: score a batch of queries against the index.

    ``map_batches(QueryScorer, fn_constructor_kwargs=dict(index_root=...),
    concurrency=N, batch_format="pyarrow")`` over a dataset with columns
    ``(query_id, query)`` → rows ``(query_id, rank, docid, score)``.
    """

    def __init__(self, index_root: str, epoch: int = 0, k: int = 10,
                 warm: bool = True):
        self.searcher = Searcher(index_root, epoch)
        if warm:
            self.searcher.warm()
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docids, scores = [], [], [], []
        for qid, q in zip(batch["query_id"].to_pylist(),
                          batch["query"].to_pylist()):
            d, s = self.searcher.search(q, k=self.k)
            qids.extend([qid] * len(d))
            ranks.extend(range(1, len(d) + 1))
            docids.extend(d.tolist())
            scores.extend(s.tolist())
        return pa.table({
            "query_id": pa.array(qids, pa.int64()),
            "rank": pa.array(ranks, pa.int32()),
            "docid": pa.array(docids, pa.int64()),
            "score": pa.array(scores, pa.float64()),
        })
