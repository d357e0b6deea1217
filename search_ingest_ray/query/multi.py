"""Multi-epoch query serving over delta-segment chains (Lucene model).

A chain is (last full epoch, delta epoch, delta epoch, ...) — see
``pipelines/epochs.py mode="delta"``.  Each delta epoch carries its own
small segments plus a DEAD-docid set (old versions of docs it
updated/deleted).  A query:

1. resolves each query term's posting-list METADATA in every chain epoch
   (term dictionaries only — no decode);
2. computes the exact chain-wide df from metadata alone:
   ``df = Σ_epoch df_e − Σ_epoch dead_patch_e[term]`` where each delta
   epoch's DEAD-TERM PATCH (``df_patch/``, written during the O(delta)
   old-version retokenize in ``pipelines/epochs.py``) counts the postings
   the term loses to dead-docid suppression in earlier epochs;
3. runs the two-phase exact MaxScore of ``Searcher.search_terms``,
   with each term's upper bound made sound under the CURRENT stats by a
   per-(epoch,list) CORRECTION FACTOR:  stored ``max_score = max
   idf(df_e,N_e) · tfnorm(tf,dl; avgdl_e)``, and for every (tf, dl)

       tfnorm(tf,dl; avgdl') ≤ max(1, avgdl'/avgdl_e) · tfnorm(tf,dl; avgdl_e)

   (the ratio (tf+D_e)/(tf+D') is maximized as tf→0, dl→∞ where it tends
   to avgdl'/avgdl_e), so ``idf(df,N')/idf(df_e,N_e) · max(1,
   avgdl'/avgdl_e) · max_score`` upper-bounds the term's current-stats
   contribution (suppression only removes postings, so the bound survives
   it).  Candidate-phase lists decode only the blocks whose docid range
   holds a candidate — across every epoch of the chain;
4. suppresses, per epoch, docids dead in any LATER epoch (vectorized
   searchsorted against the sorted union) and scores survivors with the
   exact CURRENT global stats (cum_stats.json).

Result: rank- AND score-identical to a from-scratch rebuild of the final
snapshot — verified by ``tests/test_delta_epochs.py``.  Steps 3-4 run in
``searcher.maxscore_topk``, the MaxScore driver of single-epoch queries,
fed with every epoch's lists, their dead sets and the corrected bounds
(its exactness argument holds verbatim: every true top-k doc survives
candidacy in all its terms and is scored exactly).  Every recorded delta
epoch must carry its committed patch.  Compaction (a ``mode="full"``
epoch) collapses the chain.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..pipelines.epochs import epoch_chain, epoch_dir
from ..util import read_json
from .bm25 import BM25Params, idf, term_scores
from .fields import scatter
from .searcher import (Searcher, _isin_sorted_i64 as _isin_sorted,
                       _merge_acc, maxscore_topk)


def _topk_from_parts(part_d, part_s, k):
    ids, sc = _merge_acc(np.empty(0, dtype=np.int64),
                         np.empty(0, dtype=np.float64), part_d, part_s)
    if ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    top = np.lexsort((ids, -sc))[:min(k, ids.size)]
    return ids[top], sc[top]


class MultiEpochSearcher:
    def __init__(self, index_root: str):
        from ..aliases import resolve as _resolve_alias
        index_root = _resolve_alias(index_root)  # accepts "alias:NAME"
        self.chain = epoch_chain(index_root)
        self.entries = []  # (epoch, Searcher|None, dead_after: sorted int64[])
        deads = {}
        for e, mode in self.chain:
            ed = epoch_dir(index_root, e)
            dp = os.path.join(ed, "dead_docids.npy")
            deads[e] = np.load(dp) if os.path.exists(dp) else \
                np.empty(0, dtype=np.int64)
        for i, (e, mode) in enumerate(self.chain):
            later = [deads[e2] for e2, _ in self.chain[i + 1:]]
            dead_after = np.unique(np.concatenate(later)) if later else \
                np.empty(0, dtype=np.int64)
            ed = epoch_dir(index_root, e)
            s = None
            if os.path.exists(os.path.join(ed, "stats.json")):
                st = read_json(os.path.join(ed, "stats.json"))
                s = Searcher(index_root, epoch=e) if st.get("n_docs") else None
            self.entries.append((e, s, dead_after))
        # exact current global stats
        last_e, last_mode = self.chain[-1]
        led = epoch_dir(index_root, last_e)
        cum_p = os.path.join(led, "cum_stats.json")
        cum = read_json(cum_p) if os.path.exists(cum_p) else \
            read_json(os.path.join(led, "stats.json"))
        self.stats = cum
        self.params = BM25Params(k1=cum["k1"], b=cum["b"],
                                 n_docs=cum["n_docs"],
                                 avgdl=cum.get("avgdl",
                                               (cum["total_tokens"]
                                                / max(1, cum["n_docs"]))))
        self.analyze = None
        for _, s, _ in self.entries:
            if s is not None:
                self.analyze = s.analyze
                break
        # dead-term patches (module docstring step 2): per-epoch dicts
        # term → postings lost to suppression in EARLIER epochs.  A patch
        # is O(that delta's vocabulary) — the same order as the delta
        # epoch's own term dictionary, which the searcher holds anyway.
        self.patches: list[dict[str, int]] = []
        for e, mode in self.chain:
            if mode == "full":
                self.patches.append({})
                continue
            pd_ = os.path.join(epoch_dir(index_root, e), "df_patch")
            if not os.path.exists(os.path.join(pd_, "_DONE")):
                raise ValueError(f"delta epoch {e} of {index_root} has no "
                                 "committed df_patch/")
            import pyarrow.parquet as pq
            tables = [pq.read_table(os.path.join(pd_, f))
                      for f in sorted(os.listdir(pd_))
                      if f.endswith(".parquet")]
            patch: dict[str, int] = {}
            if tables:
                t = pa.concat_tables(tables)
                cnt_col = next(c for c in t.column_names if c != "term")
                agg = pa.TableGroupBy(t, "term").aggregate([(cnt_col, "sum")])
                patch = dict(zip(
                    agg["term"].to_pylist(),
                    (int(c) for c in agg[f"{cnt_col}_sum"].to_pylist())))
            self.patches.append(patch)

    def _surviving_lists(self, term: str):
        """(docids, tfs, dls, df) of the term across the chain after
        dead-docid suppression — each docid appears at most once (its live
        version), fully decoded; ``df`` is the surviving count."""
        ds, tfs, dls = [], [], []
        df = 0
        for _, s, dead_after in self.entries:
            if s is None:
                continue
            for row in s._lookup([term]).get(term) or []:
                d, tf, dl = s._decode_list(row)  # full decode (no pruning)
                if d.size == 0:
                    continue
                if dead_after.size:
                    keep = ~_isin_sorted(d.astype(np.int64), dead_after)
                    if not keep.any():
                        continue
                    d, tf, dl = d[keep], tf[keep], dl[keep]
                df += int(d.size)
                ds.append(d)
                tfs.append(tf)
                dls.append(dl)
        if not ds:
            e = np.empty(0, dtype=np.uint64)
            return e, e, e, df
        return (np.concatenate(ds), np.concatenate(tfs),
                np.concatenate(dls), df)

    def _term_rows(self, term: str):
        """(``[(searcher, dead_after, rows)]``, chain df) of one term from
        term-dictionary metadata + dead-term patches — no posting decode
        (module docstring step 2).  Salted sub-lists all carry the same
        global df."""
        rows_by_entry = []
        total = 0
        for _, s, dead_after in self.entries:
            if s is None:
                continue
            rows = s._lookup([term]).get(term) or []
            if rows:
                rows_by_entry.append((s, dead_after, rows))
                total += int(rows[0]["df"])
        return rows_by_entry, total - sum(pat.get(term, 0)
                                          for pat in self.patches)

    def chain_df(self, term: str) -> int:
        """Exact chain-wide df; equals the surviving-posting count
        ``_surviving_lists`` would measure."""
        return self._term_rows(term)[1]

    def search_terms(self, terms: list[str], k: int = 10,
                     filters: dict | None = None):
        """Exact top-k over the epoch chain; identical semantics (and
        results) to ``Searcher.search_terms`` on a full rebuild.  Posting
        blocks are pruned with corrected block-max bounds (module
        docstring steps 2-3); filters evaluate against each list's own
        epoch's docvalues."""
        mult: dict[str, int] = {}
        for t in terms:
            mult[t] = mult.get(t, 0) + 1
        p = self.params
        INFL = 1.0 + 1e-6  # float32-stored maxes may round down
        info = []  # (mult, df, ub, [(searcher, row, dead_after)])
        for t, m in mult.items():
            rows_by_entry, df = self._term_rows(t)
            if not rows_by_entry or df <= 0:
                continue
            idf_cur = float(idf(df, p.n_docs))
            ub = 0.0
            for s, _, rows in rows_by_entry:
                sp = s.params
                idf_baked = float(idf(int(rows[0]["df"]), sp.n_docs))
                c = (idf_cur / idf_baked) \
                    * max(1.0, p.avgdl / max(sp.avgdl, 1e-12)) * INFL
                ub = max(ub, max(c * float(r["max_score"]) * INFL + 1e-12
                                 for r in rows))
            info.append((m, df, m * ub,
                         [(s, row, dead_after)
                          for s, dead_after, rows in rows_by_entry
                          for row in rows]))
        return maxscore_topk(info, k, p, filters)

    def search(self, query: str, k: int = 10, filters: dict | None = None):
        if self.analyze is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        return self.search_terms(self.analyze(query), k=k, filters=filters)

    def search_similarity(self, terms: list[str], k: int = 10,
                          similarity: str = "lmd", mu: float = 2000.0,
                          lam: float = 0.1):
        """Chain-wide similarity modules (ES per-field ``similarity``),
        exact over the LIVE doc set: ``_surviving_lists`` supplies each
        term's dead-suppressed postings (every docid at most once — its
        live version), so ttf = Σ surviving tf and df = surviving count
        are the CURRENT corpus statistics; N / total_tokens come from the
        chain's exact cumulative stats.  Scores share the op-for-op kernel
        (:func:`bm25.similarity_scores`) with the single-epoch path, so a
        delta chain serves results identical to a full rebuild — proven by
        the shared SQL oracle of ``lmd_chain`` / ``bm25_chain``'s final
        corpus.  No pruning anywhere on this path (the baked BM25 block
        maxes don't bound these score functions), matching
        ``Searcher.search_similarity``'s exhaustive-decode contract."""
        from .bm25 import similarity_scores
        mult: dict[str, int] = {}
        for t in terms:
            mult[t] = mult.get(t, 0) + 1
        n_docs = float(self.params.n_docs)
        total_tokens = float(self.stats["total_tokens"])
        all_d: list[np.ndarray] = []
        all_s: list[np.ndarray] = []
        for t, m in mult.items():
            d, tf, dl, df = self._surviving_lists(t)
            if d.size == 0 or df <= 0:
                continue
            s = similarity_scores(tf, dl, float(df), float(np.asarray(
                tf, dtype=np.float64).sum()), n_docs, total_tokens,
                similarity, mu=mu, lam=lam)
            all_d.append(d.astype(np.int64))
            all_s.append(s * float(m) if m != 1 else s)
        return _topk_from_parts(all_d, all_s, k)

    def _term_micro(self, t: str):
        """One term's chain-wide surviving postings as sorted (docids,
        integer micro scores) under the exact CURRENT stats — the chain
        analog of ``Searcher._term_postings_micro`` (each docid appears at
        most once after dead-doc suppression)."""
        d, tf, dl, df = self._surviving_lists(t)
        if d.size == 0 or df <= 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        m = np.floor(term_scores(tf, dl, df, self.params)
                     * 1e6).astype(np.int64)
        d = d.astype(np.int64)
        o = np.argsort(d, kind="stable")
        return d[o], m[o]

    def search_bool(self, must: list[str], should: list[str] | None = None,
                    must_not: list[str] | None = None, k: int = 10):
        """ES bool query over the DELTA CHAIN: same combiner as the
        single-epoch path (:func:`searcher.bool_combine` — the semantics
        cannot drift), fed by chain-wide suppressed postings and current
        global stats, so results are identical to a full rebuild's
        ``search_bool``."""
        from .searcher import bool_combine
        return bool_combine(self._term_micro, list(must),
                            list(should or ()), list(must_not or ()), k)

    def match_phrase(self, phrase: str | list[str], k: int = 10,
                     filters: dict | None = None, slop: int = 0):
        """Phrase top-k over the chain: per-epoch positional matching
        (each doc's live version lives in exactly one epoch after
        suppression), scored by BM25 over the phrase terms with the exact
        CURRENT global stats — identical to a full-rebuild match_phrase."""
        if isinstance(phrase, str) and self.analyze is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        terms = (self.analyze(phrase) if isinstance(phrase, str)
                 else list(phrase))
        if not terms:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        matched = []
        for _, s, dead_after in self.entries:
            if s is None:
                continue
            d = s.phrase_match_docs(terms, slop=slop)
            if d.size and dead_after.size:
                d = d[~_isin_sorted(d, dead_after)]
            if d.size:
                matched.append(d)
        if not matched:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        md = np.unique(np.concatenate(matched))
        if filters:
            md = md[self.fields_mask(md, filters)]
            if md.size == 0:
                return (np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.float64))
        # score matched docs: Σ over UNIQUE phrase terms, current stats
        p = self.params
        acc = np.zeros(md.size, dtype=np.float64)
        for t in dict.fromkeys(terms):
            d, tf, dl, df = self._surviving_lists(t)
            if d.size == 0:
                continue
            idx = np.searchsorted(md, d.astype(np.int64))
            idx = np.minimum(idx, md.size - 1)
            hit = md[idx] == d.astype(np.int64)
            sc = term_scores(tf, dl, df, p)
            np.add.at(acc, idx[hit], sc[hit])
        top = np.lexsort((md, -acc))[:k]
        return md[top], acc[top]

    def _resolve_live(self, docids: np.ndarray) -> np.ndarray:
        """Per docid: the index (into self.entries) of its LIVE epoch, or
        -1.  A docid is live in the latest epoch whose docvalues contain it
        AND whose copy is not suppressed by a later epoch's dead set — a
        deleted doc therefore resolves nowhere (parity with a full
        rebuild, where it simply doesn't exist)."""
        src = np.full(docids.size, -1, dtype=np.int64)
        resolved = np.zeros(docids.size, dtype=bool)
        for i in range(len(self.entries) - 1, -1, -1):
            _, s, dead_after = self.entries[i]
            if s is None:
                continue
            fs = s.fields
            if fs.is_empty:
                continue
            found = fs.contains(docids)
            present = found & ~resolved
            if dead_after.size:
                present &= ~_isin_sorted(docids, dead_after)
            src[present] = i
            resolved |= present
        return src

    def fields_mask(self, docids: np.ndarray, filters: dict) -> np.ndarray:
        """Filter mask resolving each docid against its LIVE epoch's
        docvalues; suppressed/deleted docids never match."""
        docids = np.asarray(docids, dtype=np.int64)
        out = np.zeros(docids.size, dtype=bool)
        src = self._resolve_live(docids)
        for i in np.unique(src[src >= 0]):
            sel = src == i
            fs = self.entries[int(i)][1].fields
            out[sel] = fs.mask(docids[sel], filters)
        return out

    def get_fields(self, docids: np.ndarray, cols: list[str]) -> dict:
        """Docstore retrieval across the chain (live epoch wins): each
        live epoch's typed arrays are scattered into place, so the types
        are those of single-epoch ``Searcher.get_fields``;
        suppressed/deleted or unknown docids yield null."""
        docids = np.asarray(docids, dtype=np.int64)
        src = self._resolve_live(docids)
        parts = []
        for i in np.unique(src[src >= 0]):
            sel = np.flatnonzero(src == i)
            parts.append((sel, self.entries[int(i)][1].fields.get(
                docids[sel], cols)))
        # types from the newest epoch that stores fields, so a selection
        # with no live doc is typed too
        types = next((s.fields.field_types
                      for _, s, _ in reversed(self.entries)
                      if s is not None and not s.fields.is_empty), {})
        return scatter(docids.size, parts,
                       {c: types.get(c, pa.null()) for c in cols})
