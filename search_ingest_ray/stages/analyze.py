"""Analysis stages: text extraction (E1) and posting emission (E2+E4).

Both are ``map_batches`` stages over zero-copy Arrow batches.  The analyzer
stage is a callable CLASS whose compiled tokenizer/regex state is built once
and reused per batch — passed to ``map_batches`` as an instance (Ray Data runs
it as a task) or kept per worker process (``index.build._EMITTERS``) — the Ray
analog of the reference sharing one immutable ``Schemas`` instance across all
work (reference ``src/search-ingest/elastic.cr:62-93``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..analyzer import get_analyzer
from ..corpus import extract_text
from ..util import hash_ids

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("docid", pa.int64()),
    ("tf", pa.int32()),
    ("dl", pa.int32()),
])


def extract_batch(batch: pa.Table) -> pa.Table:
    """E1: derive ``text`` from ``html`` (byte-identical per url — the
    input_hint invariant).  Stateless task; drops the heavy ``html`` column
    immediately so it never enters the shuffle (SURVEY §7 hard part 7)."""
    texts = [extract_text(h) if h is not None else "" for h in batch["html"].to_pylist()]
    out = batch.drop_columns(["html"])
    if "text" in out.column_names:
        out = out.drop_columns(["text"])
    return out.append_column("text", pa.array(texts, pa.string()))


class PostingEmitter:
    """E2+E4 fused: analyze text → one output row per distinct (term, doc).

    Output columns: ``term, docid, tf, dl`` — ``dl`` (doc token count) rides
    along so BM25 block-max scores can be computed at segment build time
    without a docid join.  ``docid`` is either a stable 63-bit hash of the
    ``id_col`` (string keys, e.g. url) or the integer column itself.

    Language-aware analysis (the reference's per-table analyzer spec is
    global, but SURVEY E2 calls for lang-keyed variants): pass ``lang_col``
    and ``lang_analyzers`` (lang value → analyzer name) to select the chain
    per row; unmatched languages use the default ``analyzer``.
    """

    def __init__(self, text_col: str = "text", id_col: str = "url",
                 id_is_int: bool = False, analyzer: str = "standard",
                 lang_col: str | None = None,
                 lang_analyzers: dict[str, str] | None = None,
                 with_positions: bool = False):
        from ..analyzer import get_position_analyzer
        self.text_col = text_col
        self.id_col = id_col
        self.id_is_int = id_is_int
        self.analyzer_name = analyzer
        self.analyze = get_analyzer(analyzer)
        self.lang_col = lang_col if lang_analyzers else None
        self.lang_analyzers = {k: get_analyzer(v)
                               for k, v in (lang_analyzers or {}).items()}
        # positions are SOURCE-TOKEN positions: a preserved original stacks
        # at the same position as its folded form (posInc=0), so phrase
        # matching has exact ES semantics under preserve_original
        self.with_positions = with_positions
        self.pos_analyze = get_position_analyzer(analyzer)
        self.lang_pos_analyzers = {k: get_position_analyzer(v)
                                   for k, v in (lang_analyzers or {}).items()}


    def _emit_vectorized(self, batch: pa.Table, docids: np.ndarray) -> pa.Table:
        r"""Arrow-kernel emit for the two regex-class analyzers.

        Both reduce to lowercase + "runs of a character class":
        ``simple`` is ``[a-z0-9]+`` over the lowered text for ANY input,
        and ``standard`` is ``[a-z0-9_]+`` over lowered text for ASCII
        documents (\w on lowered ASCII).  Those run as two C kernels
        (``utf8_lower`` + ``split_pattern_regex`` on the class
        complement) plus one hash group_by for per-doc term counts —
        replacing the per-document findall+Counter python loop on the
        build's hottest stage.  Non-ASCII documents under ``standard``
        (where \w is unicode-aware and folding stacks originals) fall
        back to the exact per-doc path; outputs are row-order-permuted
        but postings-identical (downstream sorts by (term, docid))."""
        import pyarrow.compute as pc
        tcol = batch[self.text_col].combine_chunks()
        if tcol.null_count:
            tcol = pc.fill_null(tcol, "")
        # ASCII rows only on the vector path for BOTH analyzers:
        # pc.utf8_lower is a SIMPLE case mapping while python str.lower is
        # the full one-to-many mapping (e.g. 'İ' → 'i'+U+0307, which the
        # combining dot then splits) — identical on ASCII, divergent off
        # it, so non-ASCII rows take the exact per-doc path
        is_ascii = pc.string_is_ascii(tcol).to_numpy(zero_copy_only=False)
        vec_idx = np.flatnonzero(is_ascii)
        loop_idx = np.flatnonzero(~is_ascii)
        pattern = ("[^a-z0-9]+" if self.analyzer_name == "simple"
                   else "[^a-z0-9_]+")

        parts = []
        if vec_idx.size:
            vt = tcol.take(pa.array(vec_idx))
            splits = pc.split_pattern_regex(pc.utf8_lower(vt), pattern)
            if isinstance(splits, pa.ChunkedArray):
                splits = splits.combine_chunks()
            flat = splits.flatten()
            offs = splits.offsets.to_numpy().astype(np.int64)
            parent = np.repeat(np.arange(vec_idx.size, dtype=np.int64),
                               np.diff(offs))
            keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            if not keep.all():
                flat = flat.filter(pa.array(keep))
                parent = parent[keep]
            if len(flat):
                dls = np.bincount(parent, minlength=vec_idx.size)
                g = (pa.table({"i": pa.array(parent), "term": flat})
                     .group_by(["i", "term"], use_threads=False)
                     .aggregate([([], "count_all")]))
                gi = g["i"].to_numpy()
                parts.append(pa.table({
                    "term": g["term"],
                    "docid": pa.array(docids[vec_idx][gi]),
                    "tf": g["count_all"].cast(pa.int32()),
                    "dl": pa.array(dls[gi].astype(np.int32)),
                }))

        if loop_idx.size:
            from collections import Counter
            texts = tcol.take(pa.array(loop_idx)).to_pylist()
            analyze = self.analyze
            terms: list[str] = []
            tfs: list[int] = []
            ldocs: list[np.ndarray] = []
            ldls: list[np.ndarray] = []
            for j, text in enumerate(texts):
                toks = analyze(text) if text else []
                if not toks:
                    continue
                c = Counter(toks)
                terms.extend(c.keys())
                tfs.extend(c.values())
                ldocs.append(np.full(len(c), docids[loop_idx[j]], np.int64))
                ldls.append(np.full(len(c), len(toks), np.int32))
            if terms:
                parts.append(pa.table({
                    "term": pa.array(terms, pa.string()),
                    "docid": pa.array(np.concatenate(ldocs)),
                    "tf": pa.array(np.array(tfs, np.int32)),
                    "dl": pa.array(np.concatenate(ldls)),
                }))
        if not parts:
            return POSTINGS_SCHEMA.empty_table()
        out = pa.concat_tables(parts).combine_chunks()
        return out.cast(POSTINGS_SCHEMA)

    def __call__(self, batch: pa.Table) -> pa.Table:
        idc = batch[self.id_col]
        if idc.null_count:
            # a row with no document key cannot be indexed (ES rejects
            # docs without _id); drop rather than crash the whole build
            import pyarrow.compute as pc
            batch = batch.filter(pc.is_valid(idc))
        texts = batch[self.text_col].to_pylist()
        if self.id_is_int:
            docids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            docids = np.array(hash_ids(batch[self.id_col].to_pylist()), dtype=np.int64)
        if self.lang_col is not None and self.lang_col in batch.column_names:
            langs = batch[self.lang_col].to_pylist()
        else:
            langs = None

        if (not self.with_positions and langs is None
                and self.analyzer_name in ("standard", "simple")):
            return self._emit_vectorized(batch, docids)
        default_analyze = self.analyze
        by_lang = self.lang_analyzers
        terms: list[str] = []
        tfs: list[int] = []
        out_docids: list[np.ndarray] = []
        out_dls: list[np.ndarray] = []
        out_pos: list[list[int]] = []
        want_pos = self.with_positions
        from collections import Counter
        default_pos_analyze = self.pos_analyze
        by_lang_pos = self.lang_pos_analyzers
        for i, text in enumerate(texts):
            analyze = (by_lang.get(langs[i], default_analyze)
                       if langs is not None else default_analyze)
            if want_pos:
                pos_analyze = (by_lang_pos.get(langs[i], default_pos_analyze)
                               if langs is not None else default_pos_analyze)
                toks, tpos = pos_analyze(text) if text else ([], [])
            else:
                toks = analyze(text) if text else []
            if not toks:
                continue
            if want_pos:
                posmap: dict[str, list[int]] = {}
                for p, tok in zip(tpos, toks):
                    posmap.setdefault(tok, []).append(p)
                k = len(posmap)
                terms.extend(posmap.keys())
                tfs.extend(len(v) for v in posmap.values())
                out_pos.extend(posmap.values())
            else:
                c = Counter(toks)
                k = len(c)
                terms.extend(c.keys())
                tfs.extend(c.values())
            out_docids.append(np.full(k, docids[i], dtype=np.int64))
            out_dls.append(np.full(k, len(toks), dtype=np.int32))
        if not terms:
            if want_pos:
                return POSTINGS_SCHEMA.empty_table().append_column(
                    "pos", pa.array([], pa.list_(pa.int32())))
            return POSTINGS_SCHEMA.empty_table()
        out = pa.table({
            "term": pa.array(terms, pa.string()),
            "docid": pa.array(np.concatenate(out_docids)),
            "tf": pa.array(np.array(tfs, dtype=np.int32)),
            "dl": pa.array(np.concatenate(out_dls)),
        })
        if want_pos:
            out = out.append_column("pos", pa.array(out_pos, pa.list_(pa.int32())))
        return out

