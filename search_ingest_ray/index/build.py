"""Distributed inverted-index build (operators E3-E7, E11, E12).

Ray-Data-first restatement of the reference's backfill lifecycle
(/root/reference/src/search-ingest/table.cr:80-176) with the ES-side index
construction implemented natively:

  stage 1  (every pending chunk of input files in ONE Ray Data execution —
           the analog of the reference's batched full-table scan,
           table.cr:100): read_parquet(include_paths) → one map_batches
           task per input block that runs [extract html→text (E1)] →
           posting emission (E2+E4) and writes each chunk's
           postings/chunk=N/ and fields/chunk=N/ Parquet; the driver
           commits a chunk's record once all its rows are accounted for,
           so resume stays per chunk
  stage 1.5 corpus stats (E6): N from input metadata, total tokens summed
           from stage 1's per-chunk result rows — no read-back
  stage 2  (term shuffle, E5+E7+E12): hot-term candidates from a sample
           (skipped when no term can reach the threshold) →
           assign term partitions (hot terms salted across partitions) →
           delta+varint posting lists with block-max metadata → one
           atomically-written segment file per term partition; a build of
           at most 1M postings does this in one Ray task
           (``build_segments``), a larger one through the term exchange
  manifest (E11): per-chunk and per-term-partition lineage + metrics; a
           crashed build resumes skipping completed chunks AND completed
           term partitions (strictly better than the reference's
           all-or-nothing backfill, table.cr:105-126).

Design notes for 100 TB scale:
- the heavy ``html`` column never enters any shuffle (projected away in
  stage 1); only (term, docid, tf, dl) rows move in the one wide exchange;
- df aggregation is a partial (per-block combine) groupby-count, so only
  (term, partial_count) rows shuffle — not the postings;
- hot terms (df ≥ threshold) are salted into ``hot_salt`` sub-lists spread
  over distinct partitions, bounding the largest term partition (E12);
- term-partition count defaults to postings_rows / 4M, clamped — segment
  groups stay ~hundreds of MB regardless of corpus size.
"""

from __future__ import annotations

import logging
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..analyzer import get_analyzer
from ..codec import BLOCK, encode_varint_with_lengths
from ..corpus import EXTRACTOR_VERSION
from ..query.bm25 import B_DEFAULT, K1_DEFAULT, BM25Params, idf, tf_norm
from ..schemas import equivalent_schema
from ..util import (atomic_write_json, chaos_kill_once, hash_ids, read_json,
                    stable_partition_column, term_partition)
from ..stages.analyze import PostingEmitter, extract_batch

log = logging.getLogger(__name__)

# Term-dictionary schema (segment.parquet).  The posting byte streams live
# in the sibling postings.bin, addressed by (off, len) — Lucene-style
# term-dict + postings-file split so query lookups never scan row groups.
SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("df", pa.int64()),          # GLOBAL df (idf input; != n for salted lists)
    ("n", pa.int64()),           # postings in this (term, salt) list
    ("max_score", pa.float32()),
    ("doc_off", pa.int64()), ("doc_len", pa.int64()),
    ("tf_off", pa.int64()), ("tf_len", pa.int64()),
    ("dl_off", pa.int64()), ("dl_len", pa.int64()),
    ("skip_last", pa.list_(pa.uint64())),
    ("skip_doc_off", pa.list_(pa.int32())),
    ("skip_tf_off", pa.list_(pa.int32())),
    ("skip_dl_off", pa.list_(pa.int32())),
    ("skip_max", pa.list_(pa.float32())),
])


def epoch_dir(index_root: str, epoch: int) -> str:
    return os.path.join(index_root, "epochs", f"e{epoch:04d}")


# ---------------------------------------------------------------------------
# stage-1 helpers

_EMITTERS: dict = {}


def _emit(batch: pa.Table, *, text_col, id_col, id_is_int, analyzer,
          with_positions=False) -> pa.Table:
    key = (text_col, id_col, id_is_int, analyzer, with_positions)
    em = _EMITTERS.get(key)
    if em is None:
        em = _EMITTERS[key] = PostingEmitter(text_col, id_col, id_is_int,
                                             analyzer,
                                             with_positions=with_positions)
    return em(batch)


def _write_parquet(t: pa.Table, path: str) -> None:
    """Write ``t`` to ``path`` via tmp + rename: a retried task replaces
    its own file, and a reader never sees a partial one."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)


def _write_fields(batch: pa.Table, out_dir: str, name: str, *, id_col: str,
                  id_is_int: bool, store_fields: list[str],
                  field_shards: int) -> None:
    """Write ``batch``'s docvalues rows as ``out_dir/fshard=S/name``, one
    file per docid-range shard (the shard is the directory, not a
    column)."""
    fields = _fields_batch(batch.select(list(dict.fromkeys(
        [id_col] + store_fields))), id_col=id_col, id_is_int=id_is_int,
        store_fields=store_fields, field_shards=field_shards)
    shard = fields["fshard"].to_numpy()
    fields = fields.drop_columns(["fshard"])
    for s in np.unique(shard):
        _write_parquet(fields.filter(pa.array(shard == s)),
                       os.path.join(out_dir, f"fshard={s}", name))


def _stage1_batch(batch: pa.Table, *, chunk_of: dict, postings_dir: str,
                  fields_dir: str, text_col: str, id_col: str,
                  id_is_int: bool, html_col: str | None, analyzer: str,
                  with_positions: bool, store_fields: list[str],
                  field_shards: int, slice_rows: int) -> pa.Table:
    """Stage 1 for one input batch of any number of chunks: for each chunk
    it holds (``chunk_of`` maps the ``path`` column to a chunk id), write
    that chunk's postings (``postings/chunk=N/``) and docvalues
    (``fields/chunk=N/fshard=S/``) and return one ``(chunk, rows, tokens)``
    row.  Tokenizing runs ``slice_rows`` rows at a time.  File names hash
    the chunk id, paths and id column, so a retried task rewrites the same
    files instead of adding copies."""
    import hashlib
    paths = batch["path"].combine_chunks()
    codes = pc.dictionary_encode(paths)
    cids = [chunk_of[p] for p in codes.dictionary.to_pylist()]
    row_cid = np.asarray(cids, dtype=object)[codes.indices.to_numpy()]
    text_src = [id_col, html_col or text_col]
    out_c, out_r, out_t = [], [], []
    for cid in sorted(set(cids)):
        rows = batch.filter(pa.array(row_cid == cid))
        h = hashlib.sha1(cid.encode())
        h.update("\0".join(sorted(set(rows["path"].to_pylist()))).encode())
        h.update("\0".join(map(str, rows[id_col].to_pylist())).encode())
        name = h.hexdigest()[:20] + ".parquet"
        pieces = []
        for off in range(0, rows.num_rows, slice_rows):
            src = rows.slice(off, slice_rows).select(text_src)
            if html_col:
                src = extract_batch(src)
            pieces.append(_emit(src, text_col=text_col, id_col=id_col,
                                id_is_int=id_is_int, analyzer=analyzer,
                                with_positions=with_positions))
        posts = pa.concat_tables(pieces)
        if posts.num_rows:
            _write_parquet(posts, os.path.join(postings_dir, f"chunk={cid}",
                                               name))
        if store_fields:
            _write_fields(rows, os.path.join(fields_dir, f"chunk={cid}"), name,
                          id_col=id_col, id_is_int=id_is_int,
                          store_fields=store_fields, field_shards=field_shards)
        out_c.append(cid)
        out_r.append(rows.num_rows)
        out_t.append(int(pc.sum(posts["tf"]).as_py() or 0))
    # crash-recovery hook (inert in production): dying after every file of
    # the batch is renamed into place makes the retry rewrite the same
    # names, which must leave the index exactly as a clean build's
    chaos_kill_once("stage1")
    return pa.table({"chunk": pa.array(out_c, pa.string()),
                     "rows": pa.array(out_r, pa.int64()),
                     "tokens": pa.array(out_t, pa.int64())})


def _link_tree(src: str, dst: str) -> None:
    """RECURSIVELY hard-link every file of ``src`` into ``dst`` (preserving
    subdirectories, e.g. fshard=S hive partitions); falls back to copy
    across filesystems."""
    import shutil
    for rdir, _, fs in os.walk(src):
        rel = os.path.relpath(rdir, src)
        dd = os.path.join(dst, rel) if rel != "." else dst
        os.makedirs(dd, exist_ok=True)
        for f in fs:
            sp, dp = os.path.join(rdir, f), os.path.join(dd, f)
            if os.path.isfile(sp) and not os.path.exists(dp):
                try:
                    os.link(sp, dp)
                except OSError:
                    shutil.copy2(sp, dp)


def _fields_batch(batch: pa.Table, *, id_col: str, id_is_int: bool,
                  store_fields: list[str], field_shards: int = 1) -> pa.Table:
    """Docvalues rows: (docid, field..., fshard) — docid derived exactly as
    in posting emission so the sidecar joins postings without any lookup.
    ``fshard`` range-partitions the sidecar by docid high bits so a query
    actor loads only the shards its candidate docids touch (FieldStore)."""
    if batch[id_col].null_count:
        batch = batch.filter(pc.is_valid(batch[id_col]))  # keyless rows
    if id_is_int:
        docids = batch[id_col].cast(pa.int64())
    else:
        docids = pa.array(hash_ids(batch[id_col].to_pylist()), pa.int64())
    cols = {"docid": docids}
    for f in store_fields:
        cols[f] = batch[f]
    import numpy as _np
    width = -(-(1 << 63) // max(1, field_shards))
    d = docids.to_numpy(zero_copy_only=False) if hasattr(docids, "to_numpy") \
        else _np.asarray(docids)
    cols["fshard"] = pa.array((_np.abs(d) // width).astype(_np.int32))
    return pa.table(cols)


def index_meta(*, analyzer: str, text_col: str, id_col: str,
               id_is_int: bool, k1: float, b: float, with_positions: bool,
               store_fields: list[str], table_config=None,
               input_schema: pa.Schema | None = None) -> dict:
    """The ``index_meta.json`` record every epoch of an index must share."""
    meta = {
        "analyzer": analyzer, "extractor": EXTRACTOR_VERSION,
        "text_col": text_col, "id_col": id_col, "id_is_int": id_is_int,
        "k1": k1, "b": b, "format": "v2-termdict-bin",
        "with_positions": with_positions,
        "store_fields": sorted(store_fields),
    }
    if table_config is not None and input_schema is not None:
        # mapping generated from the input Parquet schema + declarative
        # config — the analog of Schemas#index_mappings (schemas.cr:50-83)
        from ..schemas import index_schema
        meta["mapping"] = index_schema(input_schema, table_config)
    return meta


def index_meta_matches(index_root: str, meta: dict) -> bool:
    """True unless ``index_meta.json`` records a different spec.  The
    comparison is order-insensitive (T6): an equivalent-but-reordered
    mapping (e.g. join relations scalar vs single-element array) matches;
    only a REAL spec change does not."""
    path = os.path.join(index_root, "index_meta.json")
    return not os.path.exists(path) or equivalent_schema(read_json(path),
                                                         meta)


def _write_fields_meta(fields_dir: str, field_shards: int) -> None:
    """Self-describing shard layout of the docvalues sidecar, so FieldStore
    maps candidate docids -> shards without out-of-band config."""
    os.makedirs(fields_dir, exist_ok=True)
    atomic_write_json(os.path.join(fields_dir, "meta.json"),
                      {"field_shards": int(field_shards)})


def _chunk_record(files: list[str], *, rows: int, tokens: int,
                  fingerprint: str | None, wall_s: float, **extra) -> dict:
    """A done stage-1 chunk's manifest entry (its lineage)."""
    return {"files": files, "rows": int(rows), "tokens": int(tokens),
            "status": "done", "fingerprint": fingerprint,
            "wall_s": round(wall_s, 3), **extra}


def _segment_records(summaries, tparts) -> dict:
    """Manifest ``segments`` entries: one per built term partition, and an
    empty done entry for every other partition of ``tparts`` — a
    partition that received no postings (no term hashed to it) still
    completes, so resume does not re-run the exchange to build
    nothing."""
    recs = {str(p): {"status": "done", "n_terms": 0, "n_postings": 0,
                     "bytes": 0, "wall_s": 0.0} for p in tparts}
    for s in summaries:
        recs[str(int(s["tpart"]))] = {
            "status": "done", "n_terms": int(s["n_terms"]),
            "n_postings": int(s["n_postings"]), "bytes": int(s.get("bytes", 0)),
            "wall_s": round(float(s.get("wall_s", 0.0)), 3),
            "read_s": round(float(s.get("read_s", 0.0) or 0.0), 3),
        }
    return recs


# ---------------------------------------------------------------------------
# stage-2 helpers

_HOT_CACHE: dict = {}


def _sample_files(files: list[str], target_rows: int) -> tuple[list[str], int]:
    """Pick an evenly spaced file subset covering ≥ target_rows (or all)."""
    rows = [pq.read_metadata(f).num_rows for f in files]
    total = sum(rows)
    if total <= 2 * target_rows:
        return files, total
    want_files = max(1, len(files) * target_rows // total)
    stride = max(1, len(files) // want_files)
    picked, covered = [], 0
    for i in range(0, len(files), stride):
        picked.append(files[i])
        covered += rows[i]
        if covered >= target_rows:
            break
    return picked, covered


def _hot_candidates_batch(batch: pa.Table, *, threshold: int,
                          total_rows: int) -> pa.Table:
    """Per-batch candidate filter: keep terms whose in-batch count could
    plausibly extrapolate to ≥ threshold globally.

    The cut is 4σ below the threshold's expected in-batch count
    (Poisson: e = thr·r/total, σ = √e), so a genuinely-hot term is missed
    with probability ≲1e-4 per batch — and the candidate union over many
    batches drives that to ~0 — while terms materially below the
    threshold are no longer swept in.  (A flat 0.25·e cut here salted
    every df ≥ threshold/4 term: 9,903 salted terms at the 300k-doc bench
    where only ~23 clear the threshold, costing 8× dictionary fan-out on
    common query terms.  Over-salting is CORRECT — salted sub-lists carry
    global df — just wasteful, so the margin is now set by sampling noise
    rather than a blanket factor.)"""
    r = batch.num_rows
    e = threshold * r / max(1, total_rows)
    cut = max(2, int(e - 4.0 * e ** 0.5))
    vc = pc.value_counts(batch.column("term"))
    terms = vc.field("values")
    counts = vc.field("counts")
    mask = pc.greater_equal(counts, cut)
    return pa.table({"term": terms.filter(mask),
                     "cnt": counts.filter(mask).cast(pa.int64())})


_TP_CACHE: dict = {}


def _assign_tpart(batch: pa.Table, *, num_partitions: int, hot_salt: int,
                  hot_ref, emit_hot: bool = False) -> pa.Table:
    """Add (tpart, salt) columns.  Hot terms get salt = docid % S and a
    partition derived from (term, salt) so their postings spread over up to
    S distinct partitions (E12).  ``hot_ref``: the SALTED-TERM set, as an
    object ref (cached per worker process) or an in-process collection;
    ``emit_hot`` appends the per-row hotness as a bool column (free —
    row_hot is already computed) so :func:`_assign_and_count` can count
    exact salted-term df without a second membership pass.

    Vectorized: distinct terms come from an Arrow dictionary-encode, their
    base partitions from a tight crc32 C-call loop over the distinct BYTES
    (zlib.crc32 is ~0.25 µs/term; the previous per-term python cache with
    its dict probe + numpy row copy measured ~4 µs/term and dominated the
    whole spill pass), hot membership from one ``pc.is_in`` kernel, and
    only the HOT distinct terms (bounded by the salted-candidate cap) take
    the per-term python path for their salted partition rows."""
    import zlib as _zlib
    if isinstance(hot_ref, ray.ObjectRef):
        key = hot_ref.hex()
        hot_vs = _HOT_CACHE.get(key)
        if hot_vs is None:
            if len(_HOT_CACHE) > 16:  # ref-keyed caches must stay bounded
                _HOT_CACHE.clear()
                _TP_CACHE.clear()
            hot_vs = _HOT_CACHE[key] = pa.array(list(ray.get(hot_ref)),
                                                pa.string())
        tp_cache = _TP_CACHE.setdefault((key, num_partitions, hot_salt), {})
    else:
        hot_vs = pa.array(list(hot_ref or ()), pa.string())
        tp_cache = {}
    if not len(hot_vs):
        hot_vs = None
    # distinct terms via Arrow hash dictionary-encode (C speed) — only the
    # DISTINCT strings ever cross into Python, as bytes, once per block
    tdic = pc.dictionary_encode(batch["term"].combine_chunks())
    codes = tdic.indices.to_numpy()
    uniq_bytes = tdic.dictionary.cast(pa.binary()).to_pylist()
    docids = batch["docid"].to_numpy()

    _crc = _zlib.crc32
    base = np.fromiter((_crc(b) for b in uniq_bytes),
                       dtype=np.uint32, count=len(uniq_bytes))
    base = (base % num_partitions).astype(np.int32)
    if hot_vs is not None:
        is_hot = pc.is_in(tdic.dictionary, value_set=hot_vs) \
            .to_numpy(zero_copy_only=False)
    else:
        is_hot = np.zeros(len(uniq_bytes), dtype=bool)

    row_hot = is_hot[codes]
    salts = np.where(row_hot, (docids % hot_salt).astype(np.int32), np.int32(0))
    tparts = base[codes]
    hot_idx = np.flatnonzero(is_hot)
    if hot_idx.size:
        # salted partition rows only for the few hot distinct terms
        salted = np.zeros((len(uniq_bytes), hot_salt), dtype=np.int32)
        for i in hot_idx:
            b = uniq_bytes[i]
            row = tp_cache.get(b)
            if row is None:
                h0 = _crc(b)
                row = tp_cache[b] = np.array(
                    [h0 % num_partitions] +
                    [_crc(s.to_bytes(4, "big"), h0) % num_partitions
                     for s in range(1, hot_salt)], dtype=np.int32)
            salted[i] = row
        tparts = np.where(row_hot, salted[codes, salts], tparts)
    # project to exactly the shuffle payload — hive partition columns from
    # the postings read (e.g. "chunk") must not ride through the exchange
    cols = {
        "term": batch["term"],
        "docid": batch["docid"],
        "tf": batch["tf"],
        "dl": batch["dl"],
        "salt": pa.array(salts),
        "tpart": pa.array(tparts),
    }
    if "pos" in batch.column_names:
        cols["pos"] = batch["pos"]
    if emit_hot:
        cols["hot"] = pa.array(row_hot)
    return pa.table(cols)


def build_segment_group(group: pa.Table, *, segments_dir: str,
                        params: BM25Params, hot_df: dict) -> pa.Table:
    """Build all posting lists of one term partition and write the segment
    file atomically (tmp + rename, so task retries are idempotent);
    returns a one-row summary — the per-partition lineage record (E11).

    Vectorized AND cache-blocked: the partition is radix-partitioned into
    contiguous term-code ranges of ~``SI_BUCKET_ROWS`` rows each, and the
    sort → dedup → score → varint-encode pipeline runs bucket by bucket on
    L2/L3-resident slices, streaming each bucket's ``[doc|tf|dl|pos]`` byte
    streams straight to ``postings.bin``.  Whole-partition processing put a
    ~200 MB random-access working set in every concurrent builder and made
    stage 2 the non-scaling phase of the build (1.28× at 4 cpus; BASELINE.md
    "Contention diagnosis revised").  Consumers address ``postings.bin``
    exclusively through the absolute ``(off, len)`` pairs in
    ``segment.parquet``, so the bucket-major file layout is transparent to
    queries and snapshots."""
    # crash-recovery hook (inert in production): a builder lost mid-segment
    # leaves only .tmp litter — the atomic rename means the retry starts
    # from the spill files and publishes a complete segment or nothing.
    chaos_kill_once("segments")
    t0 = time.monotonic()
    _ph: dict | None = {} if os.environ.get("SI_PROF_PHASES") else None
    _pt = time.monotonic()

    def _mark(name: str) -> None:
        nonlocal _pt
        if _ph is not None:
            now = time.monotonic()
            _ph[name] = round(_ph.get(name, 0.0) + (now - _pt), 3)
            _pt = now

    # the group arrives as the concat of a partition's spill files (or
    # the one task's table) — one chunk per file; consolidate once so
    # every to_numpy below is a single contiguous zero-copy view
    group = group.combine_chunks()
    tpart = int(group["tpart"][0].as_py())
    _mark("combine")

    tcol = group.column("term").combine_chunks()
    # exchange spills arrive dictionary-encoded (payload diet);
    # combine_chunks above already unified the per-file dictionaries, so
    # the codes/dictionary pair is free — no string dedup pass on the hot
    # path, and hot-term df lookups resolve to codes via ONE index_in call
    dic = tcol if pa.types.is_dictionary(tcol.type) else pc.dictionary_encode(tcol)
    codes32 = dic.indices.to_numpy()  # native index width, zero-copy
    n_uniq = len(dic.dictionary)
    salts_nat = group["salt"].to_numpy()  # uint8 under the payload diet
    dcol = group.column("docid").combine_chunks()
    if pa.types.is_dictionary(dcol.type):  # payload-diet spills
        dcol = pc.cast(dcol, dcol.type.value_type)
    docids = dcol.to_numpy()
    tf_nat = group["tf"].to_numpy()
    dl_nat = group["dl"].to_numpy()
    nrows = codes32.size
    _mark("extract")

    has_pos = "pos" in group.column_names
    pos_all = (group.column("pos").combine_chunks() if has_pos else None)

    # hot-term global-df overrides, resolved to dictionary codes once per
    # partition (vectorized index_in — no per-vocab Python loop)
    hot_code_df: dict[int, int] = {}
    if hot_df:
        hidx = pc.index_in(pa.array(list(hot_df.keys()), pa.string()),
                           value_set=pc.cast(dic.dictionary, pa.string()))
        for t, i in zip(hot_df, hidx.to_pylist()):
            if i is not None:
                hot_code_df[int(i)] = int(hot_df[t])

    # ---- bucket plan: contiguous code ranges with ~equal row counts ----
    bucket_rows = int(os.environ.get("SI_BUCKET_ROWS", "131072"))
    pre_counts = np.bincount(codes32, minlength=n_uniq)
    S = int(min(65535, max(1, -(-nrows // bucket_rows))))
    cum = np.cumsum(pre_counts)
    targets = (np.arange(1, S, dtype=np.int64) * nrows) // S
    bounds = np.unique(np.concatenate(
        [[0], np.searchsorted(cum, targets, side="left") + 1, [n_uniq]]))
    S = len(bounds) - 1
    code_bucket = (np.searchsorted(bounds, np.arange(n_uniq),
                                   side="right") - 1).astype(np.uint16)
    bid = code_bucket[codes32]
    ord0 = np.argsort(bid, kind="stable")  # radix sort on uint16: O(n)
    sb = bid[ord0]
    # bucket-major copies at NATIVE dtypes (int32 codes/tf/dl, uint8 salt):
    # one random-read/sequential-write gather per column; the int64
    # widening + (code<<8|salt) key pack happen per bucket on
    # cache-resident slices, so the global passes move half the bytes
    codes_p = codes32[ord0]
    salts_p = salts_nat[ord0]
    docids = docids[ord0]
    tf_p = tf_nat[ord0]
    dl_p = dl_nat[ord0]
    if has_pos:
        pos_all = pos_all.take(pa.array(ord0, pa.int64()))
    bstart = np.searchsorted(sb, np.arange(S + 1))
    del codes32, salts_nat, tf_nat, dl_nat, bid, sb, ord0
    _mark("partition")

    p = params
    out_dir = os.path.join(segments_dir, f"tpart={tpart:05d}")
    os.makedirs(out_dir, exist_ok=True)
    btmp = os.path.join(out_dir, "postings.bin.tmp")
    seg_pieces: list[pa.Table] = []
    n_total = 0
    runs_total = 0
    core_bytes = 0  # doc+tf+dl bytes (summary parity across layouts)
    fpos = 0
    f = open(btmp, "wb")
    try:
        for b in range(S):
            lo, hi = int(bstart[b]), int(bstart[b + 1])
            if hi == lo:  # a range of zero-count dictionary codes
                continue
            kb = ((codes_p[lo:hi].astype(np.int64) << np.int64(8))
                  | salts_p[lo:hi])
            db = docids[lo:hi]
            ordb = np.lexsort((db, kb))
            kb = kb[ordb]
            db = db[ordb]
            tfb = tf_p[lo:hi][ordb].astype(np.int64)
            dlb = dl_p[lo:hi][ordb].astype(np.int64)
            pos_b = None
            if has_pos:
                pos_b = pos_all.slice(lo, hi - lo).take(
                    pa.array(ordb, pa.int64()))
            _mark("sort")

            # duplicate (term, salt, docid) rows (docid hash collisions /
            # duplicate source keys): rare — keep the single row with the
            # greatest tf (last on ties) so tf, dl AND the position list
            # stay mutually consistent (a mixed keep-max-tf with another
            # row's positions would break the positions-count == sum(tf)
            # invariant the phrase decoder relies on)
            dup = (np.diff(kb) == 0) & (np.diff(db) == 0)
            if dup.any():
                keep = np.ones(kb.size, dtype=bool)
                run_bounds = np.unique(np.concatenate(
                    [[0], np.flatnonzero(~dup) + 1, [kb.size]]))
                for a, e in zip(run_bounds[:-1], run_bounds[1:]):
                    if e - a > 1:
                        w = a + (e - a - 1) - int(np.argmax(tfb[a:e][::-1]))
                        keep[a:e] = False
                        keep[w] = True
                kb, db, tfb, dlb = kb[keep], db[keep], tfb[keep], dlb[keep]
                if has_pos:
                    pos_b = pos_b.take(
                        pa.array(np.flatnonzero(keep), pa.int64()))

            nb = kb.size
            change = np.flatnonzero(np.diff(kb) != 0)
            starts = np.concatenate([[0], change + 1])
            ends = np.concatenate([change + 1, [nb]])
            lens = ends - starts
            codes_b = kb >> np.int64(8)
            salts_b = kb & np.int64(0xFF)

            # per-run global df: cold terms are bucket-local (a code lives
            # in exactly one bucket, so the bucket count IS the global df);
            # hot terms (postings spread over salted partitions) use the
            # exact global count
            clo, chi = int(bounds[b]), int(bounds[b + 1])
            gdf_u = np.bincount(codes_b - clo, minlength=chi - clo) \
                .astype(np.int64)
            for c, v in hot_code_df.items():
                if clo <= c < chi:
                    gdf_u[c - clo] = v
            run_df = gdf_u[codes_b[starts] - clo]

            # exact per-posting scores: idf over the bucket's UNIQUE dfs,
            # broadcast by code — bitwise-identical to per-row idf, log1p
            # over |vocab slice| values instead of |rows|
            idf_u = idf(gdf_u, p.n_docs)
            scores = (idf_u[codes_b - clo]
                      * tf_norm(tfb, dlb, p)).astype(np.float64)
            _mark("scores")

            # delta streams (restart at each list start; blocks slice the
            # stream)
            deltas = np.empty(nb, dtype=np.uint64)
            deltas[1:] = (db[1:] - db[:-1]).astype(np.uint64)
            deltas[starts] = db[starts].astype(np.uint64)
            doc_blob, doc_len = encode_varint_with_lengths(deltas)
            tf_blob, tf_len = encode_varint_with_lengths(
                tfb.astype(np.uint64))
            dl_blob, dl_len = encode_varint_with_lengths(
                dlb.astype(np.uint64))
            doc_cum = np.concatenate([[0], np.cumsum(doc_len)])
            tf_cum = np.concatenate([[0], np.cumsum(tf_len)])
            dl_cum = np.concatenate([[0], np.cumsum(dl_len)])

            # optional positions: a fourth stream of within-posting position
            # deltas (first position absolute per posting); per-run byte
            # ranges derived from the flattened value counts (= tf/posting)
            pos_blob = b""
            run_pos_off = run_pos_len = None
            if has_pos:
                pvals = pos_b.flatten().to_numpy(
                    zero_copy_only=False).astype(np.int64)
                poffsets = pos_b.offsets.to_numpy(
                    zero_copy_only=False).astype(np.int64)
                pdeltas = pvals.copy()
                firsts = poffsets[:-1]
                pdeltas[1:] -= pvals[:-1]
                pdeltas[firsts] = pvals[firsts]
                pos_blob, pos_vlen = encode_varint_with_lengths(
                    pdeltas.astype(np.uint64))
                pos_vcum = np.concatenate([[0], np.cumsum(pos_vlen)])
                run_pos_off = pos_vcum[poffsets[starts]]
                run_pos_len = pos_vcum[poffsets[ends]] - run_pos_off
            _mark("encode")

            # block structure (BLOCK postings per block, per list) — fully
            # vectorized: a per-run Python listcomp of np.arange calls is
            # O(|vocab|) interpreter work per bucket and dominates on
            # real-web vocabularies (millions of 1-2 posting lists)
            nblocks = (lens + BLOCK - 1) // BLOCK
            run_of_block = np.repeat(np.arange(len(starts)), nblocks)
            nb_cum = np.concatenate([[0], np.cumsum(nblocks)])
            within = np.arange(run_of_block.size) - nb_cum[run_of_block]
            block_starts = starts[run_of_block] + within * BLOCK
            block_ends = np.minimum(block_starts + BLOCK,
                                    ends[run_of_block])
            skip_last = db[block_ends - 1].astype(np.uint64)
            skip_max = np.maximum.reduceat(
                scores, block_starts).astype(np.float32)
            run_max = np.maximum.reduceat(scores, starts).astype(np.float32)
            block_run_bounds = nb_cum

            # Lucene-style two-file layout per term partition:
            #   postings.bin     bucket-major [doc|tf|dl|pos] regions —
            #                    read at query time by byte range (mmap)
            #   segment.parquet  term dictionary: per-(term,salt) metadata,
            #                    absolute byte offsets, block-max skips
            doc_base = fpos
            tf_base = doc_base + len(doc_blob)
            dl_base = tf_base + len(tf_blob)
            pos_base = dl_base + len(dl_blob)

            rel_doc = (doc_cum[block_starts]
                       - doc_cum[starts][run_of_block]).astype(np.int32)
            rel_tf = (tf_cum[block_starts]
                      - tf_cum[starts][run_of_block]).astype(np.int32)
            rel_dl = (dl_cum[block_starts]
                      - dl_cum[starts][run_of_block]).astype(np.int32)

            def _list_col(values: np.ndarray, dtype,
                          _b=block_run_bounds) -> pa.Array:
                return pa.ListArray.from_arrays(
                    pa.array(_b.astype(np.int32)), pa.array(values, dtype))

            seg_b = pa.table({
                "term": pc.cast(dic.dictionary.take(
                    pa.array(codes_b[starts], pa.int64())), pa.string()),
                "salt": pa.array(salts_b[starts].astype(np.int32)),
                "df": pa.array(run_df, pa.int64()),
                "n": pa.array(lens, pa.int64()),
                "max_score": pa.array(run_max, pa.float32()),
                "doc_off": pa.array(
                    (doc_base + doc_cum[starts]).astype(np.int64)),
                "doc_len": pa.array(
                    (doc_cum[ends] - doc_cum[starts]).astype(np.int64)),
                "tf_off": pa.array(
                    (tf_base + tf_cum[starts]).astype(np.int64)),
                "tf_len": pa.array(
                    (tf_cum[ends] - tf_cum[starts]).astype(np.int64)),
                "dl_off": pa.array(
                    (dl_base + dl_cum[starts]).astype(np.int64)),
                "dl_len": pa.array(
                    (dl_cum[ends] - dl_cum[starts]).astype(np.int64)),
                "skip_last": _list_col(skip_last, pa.uint64()),
                "skip_doc_off": _list_col(rel_doc, pa.int32()),
                "skip_tf_off": _list_col(rel_tf, pa.int32()),
                "skip_dl_off": _list_col(rel_dl, pa.int32()),
                "skip_max": _list_col(skip_max, pa.float32()),
            })
            if has_pos:
                seg_b = (seg_b.append_column(
                    "pos_off",
                    pa.array((pos_base + run_pos_off).astype(np.int64)))
                    .append_column(
                    "pos_len", pa.array(run_pos_len.astype(np.int64))))
            seg_pieces.append(seg_b)

            f.write(doc_blob)
            f.write(tf_blob)
            f.write(dl_blob)
            if has_pos:
                f.write(pos_blob)
            fpos = pos_base + len(pos_blob)
            n_total += int(nb)
            runs_total += len(starts)
            core_bytes += len(doc_blob) + len(tf_blob) + len(dl_blob)
            _mark("blocks")
    finally:
        f.close()

    seg = pa.concat_tables(seg_pieces).combine_chunks()
    seg = seg.take(pc.sort_indices(seg, sort_keys=[("term", "ascending"),
                                                   ("salt", "ascending")]))
    _mark("segtable")
    os.replace(btmp, os.path.join(out_dir, "postings.bin"))
    tmp = os.path.join(out_dir, "segment.parquet.tmp")
    pq.write_table(seg, tmp)
    os.replace(tmp, os.path.join(out_dir, "segment.parquet"))
    _mark("write")
    if _ph is not None:
        globals()["_LAST_PHASES"] = dict(_ph, tpart=tpart, n_buckets=S)
        try:  # per-worker phase log (profiling only; see tools/)
            import json as _json
            with open(os.environ.get("SI_PROF_OUT",
                                     "/tmp/si_phases.jsonl"), "a") as _pf:
                _pf.write(_json.dumps(globals()["_LAST_PHASES"]) + "\n")
        except OSError:
            pass
    return pa.table({
        "tpart": pa.array([tpart], pa.int32()),
        "n_terms": pa.array([runs_total], pa.int64()),
        "n_postings": pa.array([n_total], pa.int64()),
        "bytes": pa.array([core_bytes], pa.int64()),
        "wall_s": pa.array([time.monotonic() - t0], pa.float64()),
        "read_s": pa.array([0.0], pa.float64()),
    })


_SUMMARY_SCHEMA = pa.schema([
    ("tpart", pa.int32()), ("n_terms", pa.int64()), ("n_postings", pa.int64()),
    ("bytes", pa.int64()), ("wall_s", pa.float64()), ("read_s", pa.float64()),
])


def _assign_and_count(block: pa.Table, *, num_partitions: int, hot_salt: int,
                      hot_ref) -> tuple[pa.Table, pa.Table]:
    """Assign (tpart, salt) to a postings block and count the postings of
    each salted term in it: the ``(term, cnt)`` partials whose sum over
    all blocks is a salted term's exact global df."""
    block = _assign_tpart(block, num_partitions=num_partitions,
                          hot_salt=hot_salt, hot_ref=hot_ref, emit_hot=True)
    hotmask = block["hot"]
    if pc.any(hotmask).as_py():
        vc = pc.value_counts(block["term"].filter(hotmask).combine_chunks())
        partials = pa.table({"term": vc.field("values"),
                             "cnt": vc.field("counts").cast(pa.int64())})
    else:
        partials = pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
    return block.drop_columns(["hot"]), partials


def _sum_partials(rows) -> dict:
    """Sum ``(term, cnt)`` partial rows per term."""
    sums: dict = {}
    for r in rows:
        sums[r["term"]] = sums.get(r["term"], 0) + int(r["cnt"])
    return sums


def _spill_exchange_block(block: pa.Table, *, exchange_dir: str,
                          num_partitions: int, hot_salt: int,
                          hot_ref) -> pa.Table:
    """Map side of the filesystem exchange: split one postings block by
    tpart and append a spill file per touched partition (atomic rename;
    file names are unique per task attempt, so retries can only add
    duplicate data for blocks whose task failed AFTER writing — guarded by
    the duplicate-row fold in build_segment_group).

    Returns one row: the spill files' uid and the block's EXACT COUNT
    partials for the salted (candidate) terms (:func:`_assign_and_count`)
    — the spill already reads every posting row, so no separate
    exact-stats pass is needed."""
    import uuid
    block, partials = _assign_and_count(block, num_partitions=num_partitions,
                                        hot_salt=hot_salt, hot_ref=hot_ref)
    tp = block["tpart"].to_numpy()
    order = np.argsort(tp, kind="stable")
    sorted_block = block.take(pa.array(order))
    tps = sorted_block["tpart"].to_numpy()
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(tps)) + 1, [len(tps)]])
    written = 0
    uid = uuid.uuid4().hex
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = int(tps[lo])
        d = os.path.join(exchange_dir, f"tpart={part:05d}")
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f"{uid}.arrow.tmp")
        # Arrow IPC, not parquet: spill files are ephemeral exchange
        # payload — IPC reads back as an mmap (zero-copy when
        # uncompressed; a single cheap lz4 inflate otherwise), with no
        # row-group decode machinery between the bytes and the reduce
        sl = sorted_block.slice(lo, hi - lo).combine_chunks()
        # payload diet (~40% fewer exchange bytes — the build's only
        # all-to-all): tpart is the directory name, constant per file —
        # drop it and reconstruct at read; salt < hot_salt (single digit)
        # fits uint8; term dictionary-encodes (Zipf repeats inside a slice
        # make codes+dict much smaller than repeated strings); docid too
        # (a doc's distinct terms land ~uniformly over P partitions, so
        # each docid repeats ~len(doc)/P times per slice: int64 → int32
        # codes + one dictionary entry)
        cols = {"term": pc.dictionary_encode(sl["term"].combine_chunks()),
                "docid": pc.dictionary_encode(sl["docid"].combine_chunks()),
                "tf": sl["tf"], "dl": sl["dl"],
                "salt": pc.cast(sl["salt"], pa.uint8())}
        if "pos" in sl.column_names:
            cols["pos"] = sl["pos"]
        sl = pa.table(cols)
        # buffer compression on top of the diet: the dictionary codes /
        # small ints compress ~4x under lz4 at ~26 ms per 1M rows
        # round-trip — on a shared memory bus (and as cross-node network
        # traffic at cluster scale) bytes are the scarce resource, CPU
        # is not
        opts = pa.ipc.IpcWriteOptions(compression="lz4")
        with pa.OSFile(tmp, "wb") as sink:
            with pa.ipc.new_file(sink, sl.schema, options=opts) as w:
                w.write_table(sl)
        os.replace(tmp, os.path.join(d, f"{uid}.arrow"))
        written += 1
    del written
    # crash-recovery hook (inert in production): dying HERE — after every
    # spill file is renamed but before the task reports success — forces
    # the retry to re-spill this whole block under a new uid, the exact
    # duplicate-data case the docstring's contract delegates to the
    # duplicate-row fold in build_segment_group.
    chaos_kill_once("spill")
    off = pa.array([0, partials.num_rows], pa.int32())
    return pa.table({"spill": [uid], **{
        c: pa.ListArray.from_arrays(off, partials[c].combine_chunks())
        for c in ("term", "cnt")}})


def _read_spill(path: str) -> pa.Table:
    """Zero-copy-mmap one IPC spill file written by
    :func:`_spill_exchange_block`."""
    with pa.memory_map(path) as src:
        return pa.ipc.open_file(src).read_all()


def _build_tpart_from_exchange(batch: pa.Table, *, exchange_dir: str,
                               segments_dir: str, params: BM25Params,
                               hot_df: dict, spill_rank: dict) -> pa.Table:
    """Reduce side: read one term partition's spill files and build its
    segment.  ``spill_rank`` (uid → position of its block in the
    postings read) orders the files, so a partition's rows arrive in
    input order and its segment is the same file whatever the block
    count or task timing; files of a failed attempt come last, where the
    duplicate-row fold drops their rows."""
    outs = []
    for tpart in batch["tpart"].to_pylist():
        d = os.path.join(exchange_dir, f"tpart={int(tpart):05d}")
        if not os.path.isdir(d):
            continue
        files = [os.path.join(d, f) for f in sorted(
            os.listdir(d), key=lambda f: (
                spill_rank.get(f.split(".")[0], len(spill_rank)), f))
                 if f.endswith(".arrow")]
        if not files:
            continue
        t0 = time.monotonic()
        group = pa.concat_tables([_read_spill(f) for f in files])
        # reconstruct the constant partition id dropped from the payload
        group = group.append_column(
            "tpart", pa.array(np.full(group.num_rows, int(tpart), np.int32)))
        read_s = time.monotonic() - t0
        out = build_segment_group(group, segments_dir=segments_dir,
                                  params=params, hot_df=hot_df)
        out = out.set_column(out.schema.get_field_index("read_s"), "read_s",
                             pa.array([round(read_s, 3)], pa.float64()))
        outs.append(out)
    if not outs:
        return _SUMMARY_SCHEMA.empty_table()
    return pa.concat_tables(outs)


def _build_segments_block(block: pa.Table, *, segments_dir: str,
                          params: BM25Params, hot_df: dict) -> pa.Table:
    """Split a tpart-sorted block at partition boundaries and build each
    term partition's segment (a block may carry several tparts when P is
    small or hashes collide)."""
    if block.num_rows == 0:
        return _SUMMARY_SCHEMA.empty_table()
    block = block.combine_chunks()
    tp = block["tpart"].to_numpy()
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(tp)) + 1, [len(tp)]])
    outs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        outs.append(build_segment_group(block.slice(lo, hi - lo),
                                        segments_dir=segments_dir,
                                        params=params, hot_df=hot_df))
    return pa.concat_tables(outs)


# A build with at most this many stage-1 postings builds its segments in one
# Ray task (:func:`_segments_task`) instead of the term exchange.  Measured
# stage-2 walls on a 4-core host (perfbench pages, median of 3), task vs fs
# exchange, at 142k / 431k / 864k / 1.71M postings: 1 cpu 0.27/0.91,
# 0.49/0.91, 0.78/1.68, 1.53/2.37 s; 2 cpus 0.20/0.44, 0.45/0.79,
# 0.86/1.32, 1.68/2.11 s; 4 cpus 0.21/0.44, 0.48/0.62, 0.84/1.01,
# 1.47/1.43 s.  The exchange's fixed cost is ~0.3 s and its per-posting
# work divides over the cpus, so the paths cross near 1.5M postings at
# 4 cpus and not below 1.7M at 1-2; more cpus were not measured and
# should cross lower.  The task holds ~25 B of Arrow and peaks at
# ~140 B of RSS per posting (120 MB at 864k), so memory does not force
# the exchange at this size.
_TASK_POSTINGS = 1 << 20


def build_segments(posts: pa.Table, *, segments_dir: str, params: BM25Params,
                   num_partitions: int, hot_salt: int, salted=None,
                   tparts=None, hot_df: dict | None = None
                   ) -> tuple[list[dict], dict]:
    """Stage 2 in this process: assign term partitions (``salted`` terms
    spread over ``hot_salt`` sub-lists), count the salted terms' exact df
    as the spill does, sort by partition and build the segment of every
    partition in ``tparts`` (default: all).  Rows keep their input order
    within a partition, as in a one-block spill, so the segment files are
    those the exchange writes from the same postings.  ``hot_df``: the
    salted-term df to build with (a resumed build's sidecar); counted when
    None.  Returns the partition summaries and the salted-term df."""
    parts, partials = _assign_and_count(posts, num_partitions=num_partitions,
                                        hot_salt=hot_salt, hot_ref=salted)
    if hot_df is None:
        hot_df = _sum_partials(partials.to_pylist())
    tp = parts["tpart"].to_numpy()
    order = np.argsort(tp, kind="stable")
    if tparts is not None and len(tparts) != num_partitions:
        order = order[np.isin(tp[order], tparts)]
    parts = parts.take(pa.array(order))
    summaries = _build_segments_block(parts, segments_dir=segments_dir,
                                      params=params, hot_df=hot_df)
    return summaries.to_pylist(), hot_df


@ray.remote(max_retries=3)
def _segments_task(post_files: list[str], **kwargs) -> tuple[list[dict], dict]:
    """Stage 2 of a small build as one task: read every stage-1 postings
    file (fresh and re-linked chunks) and :func:`build_segments`."""
    posts = pa.concat_tables([pq.read_table(f) for f in post_files])
    return build_segments(posts, **kwargs)


# ---------------------------------------------------------------------------
# the build driver

def _run_stage1(pending: dict, manifest: dict, manifest_path: str, *,
                postings_dir: str, fields_dir: str, batch_size: int,
                **udf_kwargs) -> None:
    """Tokenize every pending chunk (``cid -> (files, fingerprint, rows)``)
    in ONE Ray Data execution: ``read_parquet(include_paths=True)`` →
    :func:`_stage1_batch`.  The driver streams the per-chunk result rows
    and commits a chunk's manifest record once its rows add up to the
    footer count, so a crashed build still resumes chunk by chunk."""
    chunk_of = {os.path.abspath(f): cid
                for cid, (fs, _, _) in pending.items() for f in fs}
    files = sorted(chunk_of)
    if len(files) != sum(len(fs) for fs, _, _ in pending.values()):
        raise ValueError("an input file is listed in more than one chunk")
    store_fields = udf_kwargs["store_fields"]
    cols = list(dict.fromkeys(
        [udf_kwargs["id_col"],
         udf_kwargs["html_col"] or udf_kwargs["text_col"]] + store_fields))
    # one block per ~64 MB of input, floored at the cluster CPU count and
    # wave-aligned to it (9 equal tasks on 4 cpus run as 4+4+1: the last
    # wave idles 3 cores); Ray's default split made ~200 ms tasks whose
    # dispatch, not their work, set the stage's wall clock
    cpus = int(ray.cluster_resources().get("CPU", 8))
    nblocks = int(max(cpus, sum(os.path.getsize(f) for f in files)
                      // (64 << 20) + 1))
    nblocks = -(-nblocks // cpus) * cpus
    # one UDF call per input block: its rows are tokenized ``batch_size``
    # at a time inside the call but written as ONE file per chunk — a file
    # per 1,024-row batch would triple the exchange's input files
    total_rows = sum(n for _, _, n in pending.values())
    block_rows = max(batch_size, -(-total_rows // nblocks))
    ds = rd.read_parquet(files, columns=cols, include_paths=True,
                         override_num_blocks=nblocks).map_batches(
        _stage1_batch, batch_format="pyarrow", batch_size=block_rows,
        fn_kwargs=dict(chunk_of=chunk_of, postings_dir=postings_dir,
                       fields_dir=fields_dir, slice_rows=batch_size,
                       **udf_kwargs))
    t0 = time.monotonic()
    seen = {cid: [0, 0] for cid in pending}
    for out in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        for cid, rows, tokens in zip(out["chunk"].to_pylist(),
                                     out["rows"].to_pylist(),
                                     out["tokens"].to_pylist()):
            acc = seen[cid]
            acc[0] += rows
            acc[1] += tokens
            fs, fp, n_rows = pending[cid]
            if acc[0] == n_rows:
                manifest["chunks"][cid] = _chunk_record(
                    fs, rows=n_rows, tokens=acc[1], fingerprint=fp,
                    wall_s=time.monotonic() - t0)
                atomic_write_json(manifest_path, manifest)
    short = {cid: (acc[0], pending[cid][2]) for cid, acc in seen.items()
             if acc[0] != pending[cid][2]}
    if short:
        raise RuntimeError(f"stage 1 rows (seen, expected) per chunk: {short}")
    # per-operator Ray Data breakdown of the one stage-1 execution
    manifest["stage1_ray_stats"] = ds.stats()


def build_index(input_paths, index_root: str, *,
                text_col: str = "text", id_col: str = "url",
                id_is_int: bool = False, html_col: str | None = None,
                analyzer: str = "standard",
                num_term_partitions: int | None = None,
                chunk_files: int = 16,
                hot_df_threshold: int | None = None, hot_salt: int = 8,
                hot_candidate_cap: int = 200_000,
                field_shards: int = 16,
                k1: float = K1_DEFAULT, b: float = B_DEFAULT,
                epoch: int = 0, resume: bool = True,
                batch_size: int = 1024,
                with_positions: bool = False,
                store_fields: list[str] | None = None,
                table_config=None,
                exchange_dir: str | None = None,
                chunk_fingerprints: list[str] | None = None,
                reuse_from_epoch: int | None = None) -> dict:
    """Build (or resume building) the inverted index for one epoch.

    Returns the manifest dict.  ``input_paths``: list of Parquet files or a
    directory.  Ray must already be initialized by the caller.

    The input is split into chunks (``chunk_files`` files each, or the
    explicit lists); chunks already done or re-linked by fingerprint are
    skipped, and every other chunk is tokenized in one Ray Data
    execution whose per-chunk records are committed as each chunk
    completes.  The hot-term candidate pass adds one execution when
    ``hot_df_threshold`` is reachable by ``n_docs``.

    Stage 2 depends on the size of stage 1's output.  A build of at most
    ``_TASK_POSTINGS`` (1M) postings, fresh and re-linked, builds every
    pending term partition in ONE Ray task (:func:`build_segments`): it
    reads ``postings/``, assigns partitions with the same ``P``, salt and
    salted set, counts the salted terms' exact df and writes the segments
    — the files the exchange would write.  Such a build runs no spill or
    segment execution.  A larger build moves its postings through the
    term exchange: a spill and a segment execution after stage 1.

    ``store_fields``: structured columns (keyword/numeric/date/bool) to
    store in a per-chunk docvalues sidecar (``fields/chunk=N/``, sorted by
    docid at query load) — the "one stored column, two index artifacts"
    model of the reference's typed mappings
    (/root/reference/src/search-ingest/schemas.cr:211-222, 313-322).  They
    power filtered BM25 (``Searcher.search_terms(filters=...)``) and
    document retrieval (``return_fields``).

    ``table_config``: optional :class:`~search_ingest_ray.schemas.TableConfig`;
    when given, the full ES-style index mapping is generated from the input
    Parquet schema and stored in ``index_meta.json`` — the consistency check
    then uses the order-insensitive ``schemas.equivalent_schema`` (the
    reference's equivalent_schema?, schemas.cr:88-118) so an equivalent but
    reordered mapping resumes instead of forcing a rebuild (T6).

    ``exchange_dir``: where the term exchange above the one-task bound
    spills (default ``<epoch>/exchange``, or ``$SI_EXCHANGE_DIR``; unused
    below the bound, where the manifest records ``exchange.mode =
    "task"``).  The exchange is two-phase over the filesystem: map tasks
    spill per-tpart Arrow IPC files, reduce tasks read their partition
    directory.  CONTRACT: ``index_root`` and the exchange dir must be
    visible to every worker — stage 1 and the segment builds write the
    index root from worker tasks — so on a multi-node cluster both live
    on shared storage (NFS / fuse-mounted object store); single-node any
    local path works.  The mode and the contract are recorded in the
    manifest.
    """
    explicit_chunks: list[list[str]] | None = None
    if isinstance(input_paths, str):
        input_paths = sorted(
            os.path.join(input_paths, f) for f in os.listdir(input_paths)
            if f.endswith(".parquet"))
    elif input_paths and isinstance(input_paths[0], (list, tuple)):
        # explicit-chunk mode (incremental epochs): each element is one
        # chunk's file list; position = chunk id (stable across epochs —
        # empty chunks hold their slot).  ``chunk_fingerprints`` (aligned)
        # gives each chunk an epoch-independent content identity: a chunk
        # whose fingerprint matches the previous epoch's record re-links
        # that epoch's postings instead of re-tokenizing (O(delta) stage 1).
        explicit_chunks = [sorted(c) for c in input_paths]
        input_paths = [f for c in explicit_chunks for f in c]
        if chunk_fingerprints is not None and \
                len(chunk_fingerprints) != len(explicit_chunks):
            raise ValueError("chunk_fingerprints must align with chunks")
    input_paths = sorted(input_paths)
    if not input_paths and explicit_chunks is None:
        raise ValueError("no input files")

    if not (1 <= hot_salt <= 256):
        raise ValueError(f"hot_salt must be in [1, 256] (got {hot_salt}): "
                         "the segment sort packs the salt into 8 bits")
    ed = epoch_dir(index_root, epoch)
    postings_dir = os.path.join(ed, "postings")
    segments_dir = os.path.join(ed, "segments")
    fields_dir = os.path.join(ed, "fields")
    os.makedirs(postings_dir, exist_ok=True)
    os.makedirs(segments_dir, exist_ok=True)
    manifest_path = os.path.join(ed, "manifest.json")

    store_fields = sorted(store_fields) if store_fields else []

    # --- index meta / consistency check (G4/G5 analog) ---------------------
    meta = index_meta(
        analyzer=analyzer, text_col=text_col, id_col=id_col,
        id_is_int=id_is_int, k1=k1, b=b, with_positions=with_positions,
        store_fields=store_fields, table_config=table_config,
        input_schema=(pq.read_schema(input_paths[0])
                      if table_config is not None and input_paths else None))
    if not index_meta_matches(index_root, meta):
        # mapping changed → reindex semantics: epoch data invalid
        # (delete_index + create_index, /root/reference/src/search-ingest/table.cr:61-76)
        log.warning("index meta changed; dropping epoch data for rebuild")
        import shutil
        shutil.rmtree(ed, ignore_errors=True)
        os.makedirs(postings_dir, exist_ok=True)
        os.makedirs(segments_dir, exist_ok=True)
    atomic_write_json(os.path.join(index_root, "index_meta.json"), meta)
    if store_fields:
        # written AFTER the meta consistency check: a spec change rmtree's
        # the epoch dir, and a sharded sidecar without meta.json would
        # silently degrade the reader to legacy load-all mode
        _write_fields_meta(fields_dir, field_shards)

    manifest = read_json(manifest_path) if (resume and os.path.exists(manifest_path)) else {
        "epoch": epoch, "chunks": {}, "segments": {}, "stats": None,
        "status": "building",
    }

    # --- stage 1: every pending chunk in one tokenize pass ------------------
    if explicit_chunks is not None:
        chunks = explicit_chunks
    else:
        chunks = [input_paths[i:i + chunk_files]
                  for i in range(0, len(input_paths), chunk_files)]
    reuse_manifest = None
    reuse_dir = None
    if reuse_from_epoch is not None:
        reuse_dir = epoch_dir(index_root, reuse_from_epoch)
        rm_path = os.path.join(reuse_dir, "manifest.json")
        if os.path.exists(rm_path):
            reuse_manifest = read_json(rm_path)
    # lineage invalidation: any chunk (re)built or dropped this run makes
    # every completed segment stale (its postings / global stats no longer
    # match), so stage 2 must rebuild from scratch — otherwise a resumed
    # build would silently keep segments whose block-max scores were baked
    # with the old corpus stats (no longer sound pruning bounds)
    chunks_changed = False
    pending: dict = {}  # cid -> (files, fingerprint, rows) to tokenize
    expected_cids = {f"{ci:05d}" for ci in range(len(chunks))}
    import shutil
    for cid in sorted(set(manifest["chunks"]) - expected_cids):
        shutil.rmtree(os.path.join(postings_dir, f"chunk={cid}"),
                      ignore_errors=True)
        shutil.rmtree(os.path.join(fields_dir, f"chunk={cid}"),
                      ignore_errors=True)
        del manifest["chunks"][cid]
        chunks_changed = True
    for ci, files in enumerate(chunks):
        cid = f"{ci:05d}"
        fp = chunk_fingerprints[ci] if chunk_fingerprints else None
        rec = manifest["chunks"].get(cid)
        if rec and rec.get("status") == "done" and (
                rec.get("fingerprint") == fp if fp is not None
                else rec.get("files") == files):
            continue
        if fp is not None and reuse_manifest is not None:
            prev = reuse_manifest["chunks"].get(cid)
            if prev and prev.get("status") == "done" \
                    and prev.get("fingerprint") == fp:
                # identical bucket content in the previous epoch: hard-link
                # its postings (and fields) instead of re-tokenizing —
                # the O(delta) incremental-epoch path (ref sync touches only
                # changed docs, table.cr:25-46)
                src_meta = read_json(os.path.join(
                    reuse_dir, "fields", "meta.json")) if os.path.isfile(
                    os.path.join(reuse_dir, "fields", "meta.json")) else None
                same_shards = (not store_fields) or (
                    src_meta is not None
                    and src_meta.get("field_shards") == field_shards)
                if not same_shards:
                    # shard layout changed: fields must be regenerated, and
                    # they are only written together with postings — fall
                    # through to a full rebuild of this chunk
                    pass
                else:
                    psrc = os.path.join(reuse_dir, "postings", f"chunk={cid}")
                    if os.path.isdir(psrc):  # empty buckets: no postings dir
                        _link_tree(psrc,
                                   os.path.join(postings_dir, f"chunk={cid}"))
                    fsrc = os.path.join(reuse_dir, "fields", f"chunk={cid}")
                    if os.path.isdir(fsrc):
                        # fshard=S subdirs survive the link (recursive)
                        _link_tree(fsrc,
                                   os.path.join(fields_dir, f"chunk={cid}"))
                    # a fresh record: no lineage of the reuse epoch's own
                    # merge or re-link carries over
                    manifest["chunks"][cid] = _chunk_record(
                        files, rows=prev["rows"], tokens=prev["tokens"],
                        fingerprint=fp, wall_s=0.0,
                        reused_from_epoch=reuse_from_epoch)
                    atomic_write_json(manifest_path, manifest)
                    chunks_changed = True
                    continue
        chunks_changed = True
        for d in (postings_dir, fields_dir):  # a crashed run's partial output
            shutil.rmtree(os.path.join(d, f"chunk={cid}"), ignore_errors=True)
        n_rows = sum(pq.read_metadata(f).num_rows for f in files)
        if not n_rows:  # an empty bucket holds its chunk slot
            manifest["chunks"][cid] = _chunk_record(
                files, rows=0, tokens=0, fingerprint=fp, wall_s=0.0)
            atomic_write_json(manifest_path, manifest)
            continue
        pending[cid] = (files, fp, n_rows)

    t_stage1 = time.monotonic()
    if pending:
        _run_stage1(pending, manifest, manifest_path,
                    postings_dir=postings_dir, fields_dir=fields_dir,
                    text_col=text_col, id_col=id_col, id_is_int=id_is_int,
                    html_col=html_col, analyzer=analyzer,
                    with_positions=with_positions, store_fields=store_fields,
                    field_shards=field_shards, batch_size=batch_size)
    n_docs = sum(c["rows"] for c in manifest["chunks"].values())
    total_tokens = sum(c.get("tokens", 0) for c in manifest["chunks"].values())

    _t_stage1_done = time.monotonic()

    # --- stage 1.5: corpus stats (E6) --------------------------------------
    # row counts come free from Parquet footers — no Ray job
    post_files = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(postings_dir)
        for f in fs if f.endswith(".parquet"))
    n_postings = 0
    post_unc_bytes = 0  # uncompressed footprint, for exchange block sizing
    for _pf in post_files:
        _md = pq.read_metadata(_pf)
        n_postings += _md.num_rows
        post_unc_bytes += sum(_md.row_group(i).total_byte_size
                              for i in range(_md.num_row_groups))

    if num_term_partitions is None:
        # floor P at the cluster's builder-slot count (cpus / builder_cpus,
        # matching the reservation below) so stage 2 can fill the machine
        # even on small corpora — P=10 left a 32-cpu node 10-way parallel
        # and measured 24% slower than P=16 on the 300k-doc bench
        _cpus = int(ray.cluster_resources().get("CPU", 8))
        _slots = max(1, _cpus // (2 if _cpus >= 8 else 1))
        _raw = max(8, _slots, n_postings // 4_000_000)
        # wave-align P to the builder-slot count: P=17 on 4 slots runs as
        # 4 full waves + a 1-task straggler wave (3 idle slots for a full
        # segment build) — round UP to a slot multiple so every wave is
        # full; smaller partitions also help the cache-blocked encode
        num_term_partitions = int(min(512, -(-_raw // _slots) * _slots))
    P = num_term_partitions
    if hot_df_threshold is None:
        hot_df_threshold = max(10_000, n_docs // 10)

    # --- stage 2a: hot-term detection (E12) ---------------------------------
    # A full groupby(term).count() would shuffle every posting row.  Instead
    # a CANDIDATE pass over a file sample: per-batch value_counts keeps
    # terms whose in-batch count could plausibly extrapolate to the hot
    # threshold (4x safety margin).  Every candidate gets SALTED; its exact
    # global df (needed for the scores baked into its salted sub-lists) is
    # counted where the partitions are assigned (:func:`_assign_and_count`,
    # in the fs spill or the small build's one task), so no separate full
    # term-column scan runs.  Mis-detection only shifts skew handling, never
    # correctness: cold terms compute exact df locally in their single
    # partition, and sub-threshold candidates just carry (exact) df on more
    # sub-lists than strictly needed.
    #
    # SALT-SET RESUME SIDECAR: the candidate sample is not
    # block-deterministic across runs, and completed segments bake the salt
    # layout — a resumed build must salt EXACTLY the set its done segments
    # used.  The salted-set df map is persisted to hot_df.json as soon as
    # it is known and reloaded on resume (this also fixes the latent
    # pre-fusion risk of a re-sampled candidate set diverging from done
    # segments).
    hot_sidecar = os.path.join(ed, "hot_df.json")
    if chunks_changed and os.path.exists(hot_sidecar):
        os.unlink(hot_sidecar)

    candidates: set = set()
    hot_df: dict = {}
    sidecar_loaded = False
    if resume and os.path.exists(hot_sidecar):
        rec = read_json(hot_sidecar)
        if (rec.get("num_term_partitions") == P
                and rec.get("hot_salt") == hot_salt):
            hot_df = {t: int(c) for t, c in rec["hot_terms"].items()}
            candidates = set(hot_df)
            sidecar_loaded = True
    if (not sidecar_loaded and resume and not chunks_changed
            and manifest["segments"] and (manifest.get("stats") or {})
            .get("num_term_partitions") == P
            and manifest["stats"].get("hot_salt") == hot_salt):
        # pre-sidecar index with committed stats (e.g. a completed legacy
        # build re-entered): its recorded salted set is authoritative —
        # recomputing could diverge from the done segments' layout
        hot_df = {t: int(c)
                  for t, c in manifest["stats"]["hot_terms"].items()}
        candidates = set(hot_df)
        sidecar_loaded = True
    if n_postings and not sidecar_loaded:
        sample_files, sampled_rows = _sample_files(post_files, 2_000_000)
        # the REAL noise-margin cut runs on the GLOBAL sampled sum, where
        # batch geometry can't distort it: a df ≥ threshold term's
        # expected sampled count is e_g = thr·sampled/total, so keep terms
        # ≥ 4 Poisson σ below that.  (Per-batch extrapolation alone is
        # batch-size-fragile: at 32 cpus the sampled read splits into
        # ~200 small blocks, each batch ≈ one block, the per-batch cut
        # floors at 2, and ~10k mid-tail terms were salted where ~100
        # clear the threshold.)
        e_g = hot_df_threshold * sampled_rows / max(1, n_postings)
        cut_g = max(2.0, e_g - 4.0 * e_g ** 0.5)
        # a term's sampled count is at most the number of input rows, so
        # below the cut the candidate set is provably empty: skip the pass
        if n_docs >= cut_g:
            cand_ds = rd.read_parquet(sample_files, columns=["term"]) \
                .map_batches(_hot_candidates_batch, batch_format="pyarrow",
                             batch_size=131072,
                             fn_kwargs=dict(threshold=hot_df_threshold,
                                            total_rows=n_postings))
            # enforce the cap DISTRIBUTED, before anything reaches the
            # driver: sum the per-batch partials per term, keep the
            # top-cap by count — the take_all below is bounded by
            # hot_candidate_cap rows no matter how pathological the
            # vocabulary/threshold combination is.  Terms trimmed here
            # just lose salting (correctness unaffected: cold terms
            # compute exact df inside their single partition).
            cand_rows = (cand_ds.groupby("term").sum("cnt")
                         .sort("sum(cnt)", descending=True)
                         .limit(hot_candidate_cap).take_all())
            candidates = {r["term"] for r in cand_rows
                          if r["sum(cnt)"] >= cut_g}
            if len(cand_rows) >= hot_candidate_cap:
                log.warning("hot-candidate set hit the cap (%d); kept the "
                            "top by partial count", hot_candidate_cap)

    if any("tokens" not in c for c in manifest["chunks"].values()):
        # manifest predates per-chunk token sums (resume from an older
        # build): one projected scan recovers the total
        total_tokens = int(rd.read_parquet(postings_dir, columns=["tf"])
                           .sum("tf") or 0) if n_postings else 0

    def _persist_hot(df_map: dict) -> None:
        atomic_write_json(hot_sidecar, {
            "num_term_partitions": P, "hot_salt": hot_salt,
            "hot_terms": df_map})

    # a small build skips the exchange: one task counts the salted df too
    in_task = n_postings <= _TASK_POSTINGS
    avgdl = (total_tokens / n_docs) if n_docs else 1.0
    params = BM25Params(k1=k1, b=b, n_docs=n_docs, avgdl=avgdl)
    _t_stats_done = time.monotonic()
    prev_stats = manifest.get("stats") or {}
    if (manifest["segments"] and prev_stats
            and (prev_stats.get("num_term_partitions") != P
                 or prev_stats.get("hot_salt") != hot_salt)):
        chunks_changed = True  # partitioning layout changed → same staleness
    if chunks_changed and manifest["segments"]:
        log.info("input chunks changed; invalidating %d completed segments",
                 len(manifest["segments"]))
        import shutil as _sh
        manifest["segments"] = {}
        _sh.rmtree(segments_dir, ignore_errors=True)
        os.makedirs(segments_dir, exist_ok=True)
        atomic_write_json(manifest_path, manifest)
    done_tparts = {int(k) for k, v in manifest["segments"].items()
                   if v.get("status") == "done"} if resume else set()
    pending_tparts = [p for p in range(P) if p not in done_tparts]

    def _finish(summaries: list, walls: dict) -> dict:
        manifest["segments"].update(_segment_records(
            summaries, pending_tparts if n_postings else []))
        manifest["stage_walls"] = {
            "stage1_s": round(_t_stage1_done - t_stage1, 3),
            "stats_and_hot_s": round(_t_stats_done - _t_stage1_done, 3),
            "shuffle_and_segments_s": round(
                time.monotonic() - _t_stats_done, 3),
            **walls,
        }
        return commit_epoch(ed, manifest, n_docs=n_docs,
                            n_postings=n_postings, total_tokens=total_tokens,
                            k1=k1, b=b, analyzer=analyzer,
                            num_term_partitions=P, hot_salt=hot_salt,
                            hot_df_threshold=hot_df_threshold,
                            hot_terms=hot_df)

    if in_task:
        manifest["exchange"] = {"mode": "task", "dir": None,
                                "contract": None}
        if not (pending_tparts and n_postings):
            return _finish([], {})
        t0 = time.monotonic()
        summaries, hot_df = ray.get(_segments_task.remote(
            post_files, segments_dir=segments_dir, params=params,
            num_partitions=P, hot_salt=hot_salt,
            salted=frozenset(candidates), tparts=pending_tparts,
            hot_df=hot_df if sidecar_loaded else None))
        if not sidecar_loaded:
            _persist_hot(hot_df)
        # spill_s = 0.0 is a placeholder, not a measured wall (no spill
        # ran): it keeps the walls summing to the stage-2 wall, and
        # perfbench counts a missing build.spill_s as a failed operation.
        # segments_s is the task's round trip.
        return _finish(summaries, {
            "spill_s": 0.0, "segments_s": round(time.monotonic() - t0, 3)})

    # --- stage 2b: the term exchange -------------------------------------
    # A filesystem-based two-phase exchange (the classic external shuffle):
    # map tasks split each postings block by tpart and write one Arrow IPC
    # spill file per partition; reduce tasks then build each term
    # partition from its spill directory.  Chosen over Ray's built-in sort/hash shuffles
    # after measurement: both moved this exchange at <10 MB/s here (global
    # sort / aggregator-actor overheads), while partitioned spill + direct
    # reads run at disk speed, need no actor reservations (no tiny-cluster
    # deadlocks), and give per-term-partition resume for free.
    # assignment needs only the salted SET; df values flow to the reduce
    salt_ref = ray.put(frozenset(candidates))
    ex_base = exchange_dir or os.environ.get("SI_EXCHANGE_DIR")
    if ex_base:
        # namespace per (index, epoch): a shared SI_EXCHANGE_DIR serving
        # concurrent builds (TableManager.backfill_all) must not let one
        # build's start/cleanup rmtree destroy another's in-flight spill
        import hashlib as _hl
        tag = _hl.sha1(os.path.abspath(index_root).encode()).hexdigest()[:12]
        exchange_dir = os.path.join(ex_base, f"ex-{tag}-e{epoch:04d}")
    else:
        exchange_dir = os.path.join(ed, "exchange")

    import functools
    _cluster_cpus = int(ray.cluster_resources().get("CPU", 8))
    # builders are memory-bandwidth-bound: reserving 2 CPUs per task on
    # ≥8-CPU clusters halves concurrent builders and measures ~5% faster
    # than 1-per-core
    builder_cpus = 2 if _cluster_cpus >= 8 else 1
    # Exchange-read granularity, re-measured AFTER the assign-stage
    # vectorization (the earlier small-block advantage was the python
    # per-term cache loop, now gone): ~24 MB UNCOMPRESSED per block is
    # the sweet spot with a sharp cliff above ~50 MB (58 MB-compressed
    # postings: 16 blocks → 7.1 s at 1 cpu / 4.2 s at 4, but 8 blocks →
    # 29.7 / 9.1 and Ray's default 240 → 12.8 / 7.4).  Floored at the
    # CPU count so small inputs still use every core.
    exchange_blocks = int(max(_cluster_cpus,
                              post_unc_bytes // (24 << 20) + 1))
    # wave-align (same rationale as the stage-1 read blocks): a partial
    # final wave idles cores for a whole ~24 MB-block scan
    exchange_blocks = -(-exchange_blocks // _cluster_cpus) * _cluster_cpus
    # Ray's parquet reader streams 10k-row record batches out of the read
    # task, and a fused map_batches(batch_size=None) runs once PER RECORD
    # BATCH — measured 5,244 spill calls (and 5,244 tiny files per tpart
    # dir) on the 300k-doc bench where ~32 were intended.  An explicit
    # rows-per-~24MB batch_size makes the map coalesce to the designed
    # granularity; the tiny-file read storm on the reduce side goes away.
    # batch sizing must use ARROW in-memory width, not the parquet
    # uncompressed footprint: term strings + int64 docids decode to
    # ~5x the parquet byte count, and a footprint-derived row target
    # made 660 MB in-memory batches at the 3M-doc scale probe (object
    # store pressure turned the spill into 166 s of the 257 s build)
    if post_files:
        # the first 64k rows, not row group 0: a stage-1 file is one row
        # group of up to 1M rows per input block
        _sample = next(pq.ParquetFile(post_files[0]).iter_batches(
            batch_size=65536))
        arrow_bpr = max(8.0, _sample.nbytes / max(1, _sample.num_rows))
        del _sample
    else:
        arrow_bpr = 32.0
    # scale the batch with P so per-tpart spill files stay chunky
    # (a 24 MB batch split 512 ways is a 47 KB-file storm), capped at
    # 64 MB in-memory so batch x concurrency x sort copies stays inside
    # worker heaps
    _batch_bytes = min(64 << 20, max(24 << 20, (3 << 19) * P))
    exchange_batch_rows = int(max(10_000, _batch_bytes / arrow_bpr))

    _t_spill_done = None
    if pending_tparts and n_postings:
        import shutil as _shutil
        _shutil.rmtree(exchange_dir, ignore_errors=True)
        os.makedirs(exchange_dir, exist_ok=True)
        postings = rd.read_parquet(postings_dir,
                                   override_num_blocks=exchange_blocks)
        spill = postings.map_batches(
            _spill_exchange_block, batch_size=exchange_batch_rows,
            batch_format="pyarrow",
            fn_kwargs=dict(exchange_dir=exchange_dir, num_partitions=P,
                           hot_salt=hot_salt, hot_ref=salt_ref))
        # blocks come back in read order: it orders the reduce's files
        spill.context.execution_options.preserve_order = True
        spilled = spill.take_all()
        spill_rank = {r["spill"]: i for i, r in enumerate(spilled)}
        if not sidecar_loaded:
            # fused exact stats: the spill pass counted every salted
            # (candidate) term's postings while it split the blocks
            hot_df = _sum_partials(
                {"term": t, "cnt": c}
                for r in spilled for t, c in zip(r["term"], r["cnt"]))
            _persist_hot(hot_df)
            sidecar_loaded = True
        del spilled
        _t_spill_done = time.monotonic()

        builder = functools.partial(
            _build_tpart_from_exchange, exchange_dir=exchange_dir,
            segments_dir=segments_dir, params=params, hot_df=hot_df,
            spill_rank=spill_rank)
        # one block per tpart — from_items alone yields a single block and
        # would serialize every partition build into one task
        parts_ds = rd.from_items([{"tpart": p} for p in pending_tparts],
                                 override_num_blocks=len(pending_tparts))
        summaries = parts_ds.map_batches(
            builder, batch_size=1, batch_format="pyarrow",
            num_cpus=builder_cpus).take_all()
        if not os.environ.get("SI_KEEP_EXCHANGE"):  # debug: keep spills
            _shutil.rmtree(exchange_dir, ignore_errors=True)
    else:
        summaries = []
    _t_build_done = time.monotonic()
    manifest["exchange"] = {
        "mode": "fs", "dir": exchange_dir,
        "contract": ("index root and exchange dir must be on storage "
                     "visible to every worker (shared FS / object-store "
                     "mount) on multi-node clusters"),
    }
    return _finish(summaries, {
        "spill_s": round(_t_spill_done - _t_stats_done, 3),
        "segments_s": round(_t_build_done - _t_spill_done, 3),
    } if _t_spill_done is not None else {})


def build_table_index(table: pa.Table, ed: str, *, files: list[str],
                      id_col: str, text_col: str, html_col: str | None,
                      id_is_int: bool, analyzer: str, num_buckets: int,
                      k1: float = K1_DEFAULT, b: float = B_DEFAULT,
                      with_positions: bool = False,
                      store_fields: list[str] | None = None,
                      field_shards: int = 16,
                      num_term_partitions: int | None = None) -> dict:
    """Index one in-memory table as an epoch's only chunk, in this process
    and without Ray Data — for a table small enough for one task (a delta
    epoch's surviving rows).  Writes the layout ``build_index`` writes:
    postings from the same emitter, segments from :func:`build_segments`
    without hot terms (``num_term_partitions`` defaults to 1) and the
    docvalues sidecar.  The postings are kept split by snapshot bucket
    (``stable_partition_column(id, num_buckets)``) as
    ``postings/chunk=<B:05d>/part-0.parquet``, the layout of a changefeed's
    full epoch, so a compaction merges them instead of re-tokenizing;
    ``postings/_DONE`` commits them.  Every file is
    written tmp + rename, so a rerun is idempotent.
    Returns the manifest parts (``chunks``, ``segments``) and the corpus
    stats for :func:`commit_epoch`."""
    t0 = time.monotonic()
    src = extract_batch(table.select([id_col, html_col])) if html_col \
        else table.select([id_col, text_col])
    posts = _emit(src, text_col=text_col, id_col=id_col, id_is_int=id_is_int,
                  analyzer=analyzer, with_positions=with_positions)
    n_docs, n_postings = table.num_rows, posts.num_rows
    total_tokens = int(pc.sum(posts["tf"]).as_py() or 0)
    P = int(num_term_partitions or 1)
    import shutil
    postings_dir = os.path.join(ed, "postings")
    shutil.rmtree(postings_dir, ignore_errors=True)
    _write_bucket_postings(posts, table[id_col], postings_dir,
                           id_is_int=id_is_int, num_buckets=num_buckets)
    segments_dir = os.path.join(ed, "segments")
    shutil.rmtree(segments_dir, ignore_errors=True)
    os.makedirs(segments_dir)
    summaries = []
    if n_postings:
        params = BM25Params(k1=k1, b=b, n_docs=n_docs,
                            avgdl=total_tokens / n_docs)
        summaries, _ = build_segments(posts, segments_dir=segments_dir,
                                      params=params, num_partitions=P,
                                      hot_salt=1)
    fields_dir = os.path.join(ed, "fields")
    shutil.rmtree(fields_dir, ignore_errors=True)
    if store_fields:
        store_fields = sorted(store_fields)
        _write_fields_meta(fields_dir, field_shards)
        _write_fields(table, os.path.join(fields_dir, "chunk=00000"),
                      "part-0.parquet", id_col=id_col, id_is_int=id_is_int,
                      store_fields=store_fields, field_shards=field_shards)
    wall = time.monotonic() - t0
    return {"chunks": {"00000": _chunk_record(
                files, rows=n_docs, tokens=total_tokens, fingerprint=None,
                wall_s=wall)},
            "segments": _segment_records(summaries,
                                         range(P) if n_postings else []),
            "n_docs": n_docs, "n_postings": n_postings,
            "total_tokens": total_tokens, "num_term_partitions": P,
            "wall_s": wall}


def _write_bucket_postings(posts: pa.Table, ids, postings_dir: str, *,
                           id_is_int: bool, num_buckets: int) -> None:
    """Write ``posts`` as ``postings_dir/chunk=<B:05d>/part-0.parquet``,
    one file per snapshot bucket ``B`` of the posting's document (``ids``:
    the id column of the rows the postings were emitted from), then the
    ``_DONE`` marker."""
    if posts.num_rows:
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) \
            else ids
        ids = ids.filter(pc.is_valid(ids))
        docids = (ids.to_numpy(zero_copy_only=False).astype(np.int64)
                  if id_is_int
                  else np.array(hash_ids(ids.to_pylist()), dtype=np.int64))
        order = np.argsort(docids, kind="stable")
        docids = docids[order]
        row_bucket = stable_partition_column(ids, num_buckets)[order]
        pd_ = posts["docid"].to_numpy()
        at = np.searchsorted(docids, pd_).clip(max=docids.size - 1)
        if not (docids[at] == pd_).all():
            raise ValueError("a posting's docid is not among the rows' ids")
        bucket = row_bucket[at]
        for b in np.unique(bucket):
            _write_parquet(posts.filter(pa.array(bucket == b)),
                           os.path.join(postings_dir, f"chunk={int(b):05d}",
                                        "part-0.parquet"))
    os.makedirs(postings_dir, exist_ok=True)
    with open(os.path.join(postings_dir, "_DONE"), "w") as f:
        f.write("ok")


def commit_epoch(ed: str, manifest: dict, *, n_docs: int, n_postings: int,
                 total_tokens: int, k1: float, b: float, analyzer: str,
                 num_term_partitions: int, hot_salt: int,
                 hot_df_threshold: int, hot_terms: dict) -> dict:
    """Record an epoch's corpus stats and mark its manifest done: writes
    ``manifest.json``, then ``stats.json`` (the file searchers open)."""
    manifest["stats"] = {
        "n_docs": int(n_docs), "n_postings": int(n_postings),
        "total_tokens": int(total_tokens),
        "avgdl": float(total_tokens / n_docs) if n_docs else 1.0,
        "k1": k1, "b": b, "analyzer": analyzer,
        "num_term_partitions": int(num_term_partitions),
        "hot_salt": int(hot_salt),
        "hot_df_threshold": int(hot_df_threshold),
        "hot_terms": hot_terms,
    }
    manifest["status"] = "done"
    atomic_write_json(os.path.join(ed, "manifest.json"), manifest)
    atomic_write_json(os.path.join(ed, "stats.json"), manifest["stats"])
    return manifest


def reindex(index_root: str, epoch: int = 0) -> None:
    """Drop epoch data, keep index meta — the analog of the reference's
    reindex (delete_index + apply mapping, table.cr:61-76) / empty_indices
    (elastic.cr:569-587)."""
    import shutil
    shutil.rmtree(epoch_dir(index_root, epoch), ignore_errors=True)
