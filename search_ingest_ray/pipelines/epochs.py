"""Incremental index epochs — the Ray-native analogue of the reference's
changefeed-driven sync (/root/reference/src/search-ingest/table.cr:25-46).

Model: the live table is a sequence of epoch snapshots kept in a
HASH-BUCKETED layout (``snapshots/eNNNN/__bucket=B/``).  Applying a delta:

1. the driver reads the delta (a delta whose Parquet footer reports more
   than ``_TASK_DELTA_BYTES`` is applied as a full rewrite, like a
   backfill) and splits it by ``hash(id) % NB``;
2. one plain Ray task per TOUCHED bucket reads the previous snapshot's
   bucket once, folds it with the bucket's delta rows (last-write-wins +
   tombstones, ``stages.fold._fold_partition``) and writes it back
   (tmp + rename); every untouched bucket's files are hard-linked from the
   previous snapshot (content-identical, zero IO).  A bucket task holds
   its whole bucket in memory, so its memory grows with the snapshot /
   ``num_buckets``, not with the delta.

Two index-maintenance modes per epoch:

- ``mode="full"`` (snapshot rebuild, default): build the epoch's index
  over the whole snapshot with one chunk per bucket and an
  epoch-independent chunk fingerprint ``b<bucket>:v<version>`` — unchanged
  buckets RE-LINK the previous epoch's postings instead of re-tokenizing,
  so stage 1 is O(delta); stage 2 (exchange + segments) rebuilds from the
  full postings, keeping stored block-max bounds exact.
- ``mode="delta"`` (Lucene-style delta segments): the epoch indexes ONLY
  the delta's surviving docs, in one more Ray task, and records a
  DEAD-docid set (old versions of updated/deleted docs) plus exact
  cumulative stats (N, total tokens).  The bucket tasks take the old
  versions of the delta's ids out of the bucket they already read and
  tokenize them once: their postings give each old doc's length and a
  DEAD-TERM PATCH (``df_patch/``), which lets the multi-searcher compute
  exact chain-wide df from metadata and prune posting blocks with
  stat-drift-corrected block-max bounds (see ``query/multi.py``).  Queries
  go through :class:`~search_ingest_ray.query.multi.MultiEpochSearcher`,
  which suppresses dead docids and scores with the exact CURRENT global
  stats — results are identical to a full rebuild.  The epoch keeps its
  postings split by snapshot bucket (``postings/chunk=B/``, committed by
  ``postings/_DONE``).  Per-epoch cost is O(delta) tokenize and segment
  work plus O(touched buckets) snapshot I/O (a touched bucket is
  rewritten whole), with no Ray Data execution.

:func:`compact_chain` rolls a delta chain into a new full epoch without
tokenizing: each bucket touched since the last full epoch merges that
epoch's postings with the delta epochs' kept postings, dropping the
docids a later epoch killed (one Ray task per bucket), and every other
bucket re-links its postings.

Properties preserved from the reference:

- at-least-once deltas are idempotent (upsert keyed on id — doc_as_upsert,
  elastic.cr:431-449): replaying an epoch is a no-op resume;
- deletes are tombstones that remove the doc (elastic.cr:452-464);
- docids are stable content-key hashes (util.doc_id_hash), so an unchanged
  document keeps its docid across epochs;
- a crashed epoch build resumes from the manifest without re-tokenizing
  completed (or reusable) chunks.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from ..index.build import (_chunk_record, _emit, _write_fields,
                           _write_parquet, build_index, build_table_index,
                           commit_epoch, epoch_dir, index_meta,
                           index_meta_matches)
from ..query.bm25 import B_DEFAULT, K1_DEFAULT
from ..stages.analyze import extract_batch
from ..stages.fold import _PART_COL, _fold_partition, apply_epoch, tag_base
from ..util import (atomic_write_json, chaos_kill_once, hash_ids, read_json,
                    stable_partition_column)

_BUCKET_COL = "__bucket"

# Largest delta (uncompressed bytes, from its Parquet footer) that the
# driver reads whole and hands to the epoch's tasks; a larger one is
# folded into a full snapshot rewrite by Ray Data, as a backfill is.  64 MB
# is the input block one stage-1 task of build_index reads.  The bound
# caps only the delta-proportional memory: measured in-process on a
# 1-core host (300-word synthetic docs, "standard", every delta row an
# update), the segment task peaks at ~15 MB RSS per footer MB of delta
# (~1 GB at the bound) and a bucket task at ~13 MB per MB of its delta
# share PLUS ~6 MB per MB of the previous bucket, which it reads whole —
# per-task memory grows with bucket size, and nothing here limits that
# (LSM snapshot runs would).
_TASK_DELTA_BYTES = 64 << 20


def snapshot_dir(index_root: str, epoch: int) -> str:
    return os.path.join(index_root, "snapshots", f"e{epoch:04d}")


def _bucket_files(sd: str, b: int) -> list[str]:
    d = os.path.join(sd, f"{_BUCKET_COL}={b}")
    if not os.path.isdir(d):
        return []
    return sorted(os.path.join(d, f) for f in os.listdir(d)
                  if f.endswith(".parquet"))


def _parquet_files(d: str) -> list[str]:
    return sorted(os.path.join(r, f) for r, _, fs in os.walk(d)
                  for f in fs if f.endswith(".parquet"))


def _tag_bucket(batch: pa.Table, *, id_col: str, num_buckets: int) -> pa.Table:
    part = stable_partition_column(batch[id_col], num_buckets)
    return batch.append_column(_BUCKET_COL, pa.array(part.astype(np.int64)))


def _link_file(src: str, dst: str) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def _delta_files(delta_paths) -> list[str]:
    paths = [delta_paths] if isinstance(delta_paths, str) else delta_paths
    out = []
    for p in paths:
        out.extend(_parquet_files(p) if os.path.isdir(p) else [p])
    return out


def _delta_bytes(files: list[str]) -> int:
    total = 0
    for f in files:
        md = pq.read_metadata(f)
        total += sum(md.row_group(i).total_byte_size
                     for i in range(md.num_row_groups))
    return total


def _read_tables(files: list[str], columns: list[str] | None = None
                 ) -> pa.Table | None:
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f, columns=columns)
                             for f in files], promote_options="default")


def _fold_rows(base: pa.Table | None, delta: pa.Table,
               id_col: str) -> pa.Table:
    """``apply_epoch`` on Arrow tables: base rows are epoch -1 ``created``
    rows, the fold keeps each id's latest row and drops tombstoned ids;
    the result has the base's columns (the delta's without a base)."""
    if base is not None:
        base = tag_base(base)
        delta = pa.concat_tables(
            [base, delta.select(base.column_names).cast(base.schema)])
    delta = delta.append_column(
        _PART_COL, pa.array(np.zeros(delta.num_rows, np.int32)))
    out = _fold_partition(delta, key_cols=[id_col], order_cols=["epoch"],
                          keep="last", action_col="action")
    return out.drop_columns([c for c in ("epoch", "action")
                             if c in out.column_names])


def _live_schema(delta_schema: pa.Schema) -> pa.Schema:
    """A delta's schema without the fold's order and action columns: the
    schema of the rows it leaves in the snapshot."""
    for c in ("epoch", "action"):
        if c in delta_schema.names:
            delta_schema = delta_schema.remove(delta_schema.get_field_index(c))
    return delta_schema


def _docids(t: pa.Table, id_col: str, id_is_int: bool) -> np.ndarray:
    if id_is_int:
        return t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return np.array(hash_ids(t[id_col].to_pylist()), dtype=np.int64)


def _old_version_stats(prev: pa.Table | None, delta: pa.Table, *, bucket,
                       id_col, text_col, html_col, analyzer, id_is_int,
                       patch_dir) -> dict:
    """Tokenize the previous versions of the delta's ids (from the bucket
    already in memory) once: their docids are dead from this epoch on,
    their postings give each doc's length (0 without postings) and this
    bucket's part of the DEAD-TERM PATCH — per term, the number of dead
    docs containing it.  Summed over the chain the patch gives the exact
    number of postings a term loses to dead-docid suppression, so
    :class:`~search_ingest_ray.query.multi.MultiEpochSearcher` computes
    the exact chain-wide df from term-dictionary metadata alone."""
    t0 = time.monotonic()
    old = None
    if prev is not None:
        ids = pc.unique(delta[id_col].combine_chunks()).drop_null()
        old = prev.filter(pc.is_in(prev[id_col], value_set=ids))
        old = old.filter(pc.is_valid(old[id_col]))
    if old is None or old.num_rows == 0:
        return {"dead": np.empty(0, np.int64), "n_old": 0, "sum_dl_old": 0,
                "old_stats_s": time.monotonic() - t0}
    # chaos point: a WORKER dies mid old-version retokenize (delta epochs
    # only) — Ray task retry must reproduce identical stats
    chaos_kill_once("old_dl")
    src = extract_batch(old.select([id_col, html_col])) if html_col \
        else old.select([id_col, text_col])
    posts = _emit(src, text_col=text_col, id_col=id_col, id_is_int=id_is_int,
                  analyzer=analyzer)
    dead = _docids(old, id_col, id_is_int)
    dl = np.zeros(dead.size, np.int64)  # a doc without postings has dl 0
    if posts.num_rows:
        docs, first = np.unique(posts["docid"].to_numpy(), return_index=True)
        at = np.searchsorted(docs, dead).clip(max=docs.size - 1)
        hit = docs[at] == dead
        dl[hit] = posts["dl"].to_numpy()[first][at[hit]]
    # chaos point: a WORKER dies mid dead-term-patch write — the retried
    # task rewrites the same part file
    chaos_kill_once("df_patch")
    if posts.num_rows:
        # one posting row per distinct (term, doc) → rows-per-term is the
        # bucket's dead-doc count per term
        vc = pc.value_counts(posts["term"])
        _write_parquet(pa.table({
            "term": vc.field("values"),
            "cnt": pc.cast(vc.field("counts"), pa.int64())}),
            os.path.join(patch_dir, f"part-{bucket:05d}.parquet"))
    return {"dead": np.sort(dead), "n_old": int(old.num_rows),
            "sum_dl_old": int(dl.sum()), "old_stats_s": time.monotonic() - t0}


@ray.remote(max_retries=3)
def _advance_bucket(prev_files: list[str], delta: pa.Table, sd: str,
                    bucket: int, *, id_col: str,
                    dead_set: dict | None) -> dict | None:
    """One touched bucket: read the previous snapshot's bucket once, fold
    it with the bucket's delta rows and write it (tmp + rename, so a
    retried task is idempotent).  With ``dead_set`` (delta epochs) the
    same pass also computes the old-version stats."""
    prev = _read_tables(prev_files)
    stats = None
    if dead_set is not None:
        stats = _old_version_stats(prev, delta, bucket=bucket, id_col=id_col,
                                   **dead_set)
    folded = _fold_rows(prev, delta, id_col)
    if folded.num_rows:
        _write_parquet(folded, os.path.join(sd, f"{_BUCKET_COL}={bucket}",
                                            "part-0.parquet"))
    return stats


def _commit_dead_set(ed: str, stats: list[dict], tasks: int) -> None:
    np.save(os.path.join(ed, "dead_docids.npy"),
            np.sort(np.concatenate([s["dead"] for s in stats]))
            if stats else np.empty(0, np.int64))
    _mark_done(os.path.join(ed, "df_patch"))
    atomic_write_json(os.path.join(ed, "delta_meta.json"), {
        "mode": "delta",
        "n_old": sum(s["n_old"] for s in stats),
        "sum_dl_old": sum(s["sum_dl_old"] for s in stats),
        "old_stats_s": round(sum(s["old_stats_s"] for s in stats), 4),
        "tasks": tasks,
    })


def _update_snapshot(index_root: str, delta_paths, epoch: int, *,
                     id_col: str, num_buckets: int,
                     base_paths=None, dead_set: dict | None = None
                     ) -> tuple[str, dict]:
    """Maintain the bucketed snapshot for ``epoch`` (idempotent via the
    _SNAPSHOT_DONE marker).  Returns (snapshot dir, bucket versions).

    ``dead_set`` (delta epochs: the analyzer settings) makes the bucket
    tasks also compute the old-version stats, committed to the epoch dir
    (``dead_docids.npy``, ``df_patch/``, ``delta_meta.json``) before the
    snapshot is."""
    sd = snapshot_dir(index_root, epoch)
    done_marker = os.path.join(sd, "_SNAPSHOT_DONE")
    meta_path = os.path.join(index_root, "snapshot_meta.json")
    meta = read_json(meta_path) if os.path.exists(meta_path) else \
        {"num_buckets": num_buckets, "epochs": {}}
    num_buckets = int(meta["num_buckets"])
    ed = epoch_dir(index_root, epoch) if dead_set is not None else None
    done = os.path.exists(done_marker) and (
        ed is None or os.path.exists(os.path.join(ed, "delta_meta.json")))

    if not done:
        shutil.rmtree(sd, ignore_errors=True)  # clear partial snapshot
        os.makedirs(sd, exist_ok=True)
        if epoch == 0 or base_paths is not None:
            # a plain read, so apply_epoch takes its column names from
            # the Parquet footers (a schema() of a projection or of the
            # fold would run it once more); the fold carries both
            # epoch and action, which the snapshot drops
            base = rd.read_parquet(base_paths)
            cols = base.schema().names
            if _BUCKET_COL in cols:  # hive key of a snapshot
                base = rd.read_parquet(
                    base_paths, columns=[c for c in cols if c != _BUCKET_COL])
            if delta_paths is not None:
                folded = apply_epoch(base, rd.read_parquet(delta_paths),
                                     id_col).drop_columns(["epoch", "action"])
            else:
                folded = base
            tagged = folded.map_batches(
                _tag_bucket, batch_format="pyarrow",
                fn_kwargs=dict(id_col=id_col, num_buckets=num_buckets))
            tagged.write_parquet(sd, partition_cols=[_BUCKET_COL])
            # a (re-)backfill bumps EVERY bucket past the previous epoch's
            # version — fingerprints must never collide with older content,
            # or build_index would re-link stale postings
            prev_versions = meta["epochs"].get(str(epoch - 1), {})
            versions = {str(b): int(prev_versions.get(str(b), -1)) + 1
                        for b in range(num_buckets)}
        else:
            # untouched buckets are hard-linked with their version
            # UNCHANGED (a compaction epoch has no delta and touches none,
            # so the full build's chunk fingerprints still match the last
            # full epoch's and its postings re-link); each touched bucket
            # bumps its version and is folded by one task
            prev_sd = snapshot_dir(index_root, epoch - 1)
            prev_versions = meta["epochs"][str(epoch - 1)]
            touched: dict[int, pa.Table] = {}
            if delta_paths is not None:
                delta = _read_tables(_delta_files(delta_paths))
                bucket = stable_partition_column(delta[id_col], num_buckets)
                touched = {int(b): delta.filter(pa.array(bucket == b))
                           for b in np.unique(bucket)}
            versions = {str(b): int(prev_versions[str(b)]) + (b in touched)
                        for b in range(num_buckets)}
            for b in range(num_buckets):
                files = [] if b in touched else _bucket_files(prev_sd, b)
                if files:
                    dstd = os.path.join(sd, f"{_BUCKET_COL}={b}")
                    os.makedirs(dstd, exist_ok=True)
                    for f in files:
                        _link_file(f, os.path.join(dstd, os.path.basename(f)))
            if ed is not None:
                patch_dir = os.path.join(ed, "df_patch")
                shutil.rmtree(patch_dir, ignore_errors=True)
                dead_set = {**dead_set, "patch_dir": patch_dir}
            stats = ray.get([
                _advance_bucket.remote(_bucket_files(prev_sd, b), part, sd, b,
                                       id_col=id_col, dead_set=dead_set)
                for b, part in sorted(touched.items())])
            if ed is not None:
                _commit_dead_set(ed, stats, len(touched))
                # chaos point: driver dies with the dead-set/df-patch
                # committed but before the snapshot advance — the rerun
                # redoes the (idempotent) bucket tasks and commits both
                chaos_kill_once(f"delta_meta_e{epoch}")
        # chaos point: driver dies with the snapshot files written but no
        # done marker — the rerun must rmtree the partial snapshot and
        # redo it (tests/test_chaos.py::test_epoch_apply_driver_crashes)
        chaos_kill_once(f"snapshot_e{epoch}")
        meta["epochs"][str(epoch)] = versions
        atomic_write_json(meta_path, meta)
        with open(done_marker, "w") as f:
            f.write("ok")

    meta = read_json(meta_path)
    return sd, meta["epochs"][str(epoch)]


def _record_chain(index_root: str, epoch: int, mode: str) -> None:
    chain_path = os.path.join(index_root, "epochs.json")
    chain = read_json(chain_path) if os.path.exists(chain_path) else \
        {"epochs": [], "modes": {}}
    chain.setdefault("modes", {})
    if epoch not in chain["epochs"]:
        chain["epochs"].append(epoch)
        chain["epochs"].sort()
    chain["modes"][str(epoch)] = mode
    chain["latest"] = max(chain["epochs"])
    atomic_write_json(chain_path, chain)


def apply_delta_epoch(index_root: str, delta_paths, epoch: int, *,
                      id_col: str = "url", text_col: str = "text",
                      html_col: str | None = None, id_is_int: bool = False,
                      analyzer: str = "standard",
                      base_paths=None, num_buckets: int = 16,
                      mode: str = "full", reuse_from: int | None = None,
                      **build_kwargs) -> dict:
    """Fold a delta onto the previous snapshot and build the epoch's index.

    ``base_paths``: input for epoch 0 (the backfill); later epochs read the
    previous bucketed snapshot.  ``mode``: "full" (snapshot rebuild,
    O(delta) tokenize + full stage 2) or "delta" (delta segments + dead-set
    suppression, O(delta) tokenize and segment work — query via
    MultiEpochSearcher).  A delta larger than ``_TASK_DELTA_BYTES`` is
    applied as "full" with the whole previous snapshot as its base.
    Returns the epoch build manifest.
    """
    if mode not in ("full", "delta"):
        raise ValueError(f"unknown epoch mode {mode!r}")
    if mode == "delta" and (epoch == 0 or base_paths is not None):
        mode = "full"  # a backfill is by definition a full build
    if (delta_paths is not None and base_paths is None and epoch > 0
            and _delta_bytes(_delta_files(delta_paths)) > _TASK_DELTA_BYTES):
        mode = "full"
        base_paths = _parquet_files(snapshot_dir(index_root, epoch - 1))

    if mode == "delta":
        return _apply_delta_segments(
            index_root, delta_paths, epoch, id_col=id_col, text_col=text_col,
            html_col=html_col, id_is_int=id_is_int, analyzer=analyzer,
            num_buckets=num_buckets, **build_kwargs)

    sd, versions = _update_snapshot(index_root, delta_paths, epoch,
                                    id_col=id_col, num_buckets=num_buckets,
                                    base_paths=base_paths)
    # chaos point: driver dies with the snapshot committed but no index —
    # the rerun must take the done-marker fast path and build from the
    # SAME bucket versions (stale fingerprints would re-link old postings)
    chaos_kill_once(f"epoch_prebuild_e{epoch}")
    meta = read_json(os.path.join(index_root, "snapshot_meta.json"))
    num_buckets = int(meta["num_buckets"])
    chunks = [_bucket_files(sd, b) for b in range(num_buckets)]
    fps = [f"b{b}:v{versions[str(b)]}" for b in range(num_buckets)]
    build_kwargs.pop("chunk_files", None)  # chunking is per bucket here
    if reuse_from is None and epoch > 0:
        reuse_from = epoch - 1
    merge_s = None
    if delta_paths is None and base_paths is None and reuse_from is not None:
        # a compaction: the buckets touched since ``reuse_from`` merge the
        # chain's kept postings, so build_index finds them done
        merge_s = _merge_touched_buckets(
            index_root, epoch, chunks, fps, base=reuse_from, id_col=id_col,
            id_is_int=id_is_int,
            store_fields=sorted(build_kwargs.get("store_fields") or []),
            field_shards=build_kwargs.get("field_shards", 16))
    manifest = build_index(
        chunks, index_root, epoch=epoch, id_col=id_col, text_col=text_col,
        html_col=html_col, id_is_int=id_is_int, analyzer=analyzer,
        chunk_fingerprints=fps, reuse_from_epoch=reuse_from, **build_kwargs)
    if merge_s is not None:
        manifest["stage_walls"]["merge_s"] = round(merge_s, 3)
        atomic_write_json(os.path.join(epoch_dir(index_root, epoch),
                                       "manifest.json"), manifest)
    _record_chain(index_root, epoch, "full")
    return manifest


# ---------------------------------------------------------------------------
# compaction as a postings merge


@ray.remote(max_retries=3)
def _merge_bucket(sources: list[tuple[list[str], np.ndarray]],
                  snap_files: list[str], postings_out: str,
                  fields_out: str, *, id_col: str, id_is_int: bool,
                  store_fields: list[str], field_shards: int) -> dict:
    """One touched bucket of a compaction: concatenate each source epoch's
    kept postings of the bucket without the docids that a later epoch
    killed (``sources``: (posting files, sorted killed docids) in chain
    order), write them as the bucket's chunk, and write its docvalues from
    the snapshot bucket's columns.  Returns the chunk's ``rows`` (snapshot
    footers) and ``tokens`` (Σ tf).  Tokenizes nothing; files are written
    tmp + rename under fixed names, so a retried task is idempotent."""
    t0 = time.monotonic()
    parts = []
    for files, killed in sources:
        for f in files:
            t = pq.read_table(f)
            if killed.size:
                t = t.filter(pa.array(
                    ~np.isin(t["docid"].to_numpy(), killed)))
            parts.append(t)
    posts = pa.concat_tables(parts) if parts else None
    tokens = int(pc.sum(posts["tf"]).as_py() or 0) if posts else 0
    if tokens:
        _write_parquet(posts, os.path.join(postings_out, "part-0.parquet"))
    # chaos point: a WORKER dies with the merged postings renamed into
    # place — the retry rewrites the same file
    chaos_kill_once("merge")
    if store_fields:
        _write_fields(_read_tables(snap_files, [id_col] + store_fields),
                      fields_out, "part-0.parquet", id_col=id_col,
                      id_is_int=id_is_int, store_fields=store_fields,
                      field_shards=field_shards)
    return {"rows": sum(pq.read_metadata(f).num_rows for f in snap_files),
            "tokens": tokens, "wall_s": time.monotonic() - t0}


def _merge_touched_buckets(index_root: str, epoch: int,
                           chunks: list[list[str]], fps: list[str], *,
                           base: int, id_col: str, id_is_int: bool,
                           store_fields: list[str], field_shards: int
                           ) -> float:
    """Compaction's stage 1 without tokenizing.  Each bucket whose
    fingerprint differs from full epoch ``base``'s chunk record takes
    ``base``'s postings of the bucket plus every later delta epoch's, each
    without the docids a still later epoch killed — the suppression
    :class:`~search_ingest_ray.query.multi.MultiEpochSearcher` applies at
    query time — in one Ray task per bucket (:func:`_merge_bucket`).  The
    driver commits each merged chunk's record under its fingerprint, so
    ``build_index`` finds it done.  Merges nothing unless ``base`` is a
    full epoch and every epoch after it is a delta epoch that kept its
    postings by bucket; a bucket not merged stays pending for stage 1.
    Returns the merge wall in seconds."""
    t0 = time.monotonic()
    chain = read_json(os.path.join(index_root, "epochs.json"))
    modes = chain.get("modes", {})
    later = sorted(e for e in chain["epochs"] if base < e < epoch)
    base_ed = epoch_dir(index_root, base)
    if (modes.get(str(base), "full") != "full" or not later
            or not os.path.exists(os.path.join(base_ed, "manifest.json"))
            or any(modes.get(str(e)) != "delta" or not os.path.exists(
                os.path.join(epoch_dir(index_root, e), "postings", "_DONE"))
                   for e in later)):
        return time.monotonic() - t0
    base_chunks = read_json(os.path.join(base_ed, "manifest.json"))["chunks"]
    dead = [np.load(os.path.join(epoch_dir(index_root, e),
                                 "dead_docids.npy")) for e in later]
    # killed[i]: docids that epochs after source i killed (source 0 = base)
    killed = [np.unique(np.concatenate(dead[i:])) for i in range(len(dead))]
    killed.append(np.empty(0, np.int64))

    ed = epoch_dir(index_root, epoch)
    manifest_path = os.path.join(ed, "manifest.json")
    manifest = read_json(manifest_path) if os.path.exists(manifest_path) \
        else {"epoch": epoch, "chunks": {}, "segments": {}, "stats": None,
              "status": "building"}
    refs = {}
    for b, (files, fp) in enumerate(zip(chunks, fps)):
        cid = f"{b:05d}"
        rec = manifest["chunks"].get(cid) or {}
        prev = base_chunks.get(cid) or {}
        if ((rec.get("status") == "done" and rec.get("fingerprint") == fp)
                or prev.get("status") != "done"
                or prev.get("fingerprint") in (None, fp) or not files):
            continue  # done, re-linked by build_index, or not mergeable
        src = [os.path.join(epoch_dir(index_root, e), "postings",
                            f"chunk={cid}") for e in [base] + later]
        sources = [(_parquet_files(d), k) for d, k in zip(src, killed)]
        out = {d: os.path.join(ed, d, f"chunk={cid}")
               for d in ("postings", "fields")}
        for d in out.values():  # a crashed run's partial output
            shutil.rmtree(d, ignore_errors=True)
        ref = _merge_bucket.remote(
            sources, sorted(files), out["postings"], out["fields"],
            id_col=id_col, id_is_int=id_is_int, store_fields=store_fields,
            field_shards=field_shards)
        refs[ref] = (cid, sorted(files), fp)
    waiting = list(refs)
    while waiting:
        ready, waiting = ray.wait(waiting, num_returns=1)
        for ref in ready:
            cid, files, fp = refs[ref]
            out = ray.get(ref)
            manifest["chunks"][cid] = _chunk_record(
                files, rows=out["rows"], tokens=out["tokens"],
                fingerprint=fp, wall_s=out["wall_s"],
                merged_from_epochs=[base] + later)
            atomic_write_json(manifest_path, manifest)
    if refs:
        # chaos point: driver dies with every merged chunk committed — the
        # rerun must find them done and merge none again
        chaos_kill_once(f"merged_e{epoch}")
    return time.monotonic() - t0


# ---------------------------------------------------------------------------
# delta-segment mode


def _mark_done(d: str) -> None:
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "_DONE"), "w") as f:
        f.write("ok")


def _prev_cum_stats(index_root: str, epoch: int) -> dict:
    """Exact cumulative (n_docs, total_tokens) after ``epoch``."""
    ed = epoch_dir(index_root, epoch)
    cp = os.path.join(ed, "cum_stats.json")
    if os.path.exists(cp):
        return read_json(cp)
    st = read_json(os.path.join(ed, "stats.json"))
    return {"n_docs": st["n_docs"], "total_tokens": st["total_tokens"],
            "k1": st["k1"], "b": st["b"]}


# ``build_index`` options in a delta epoch: its one-task segment honours
# _SEGMENT_OPTIONS; ``table_config`` enters only the index-meta check;
# the options of the Ray Data build do not apply to one task and are
# ignored (a delta epoch always resumes from its commit markers, so
# ``resume`` too).  Any other option raises TypeError, as build_index does.
_SEGMENT_OPTIONS = frozenset({"k1", "b", "with_positions", "store_fields",
                              "field_shards", "num_term_partitions"})
_DELTA_IGNORED = frozenset({"table_config", "chunk_files", "batch_size",
                            "hot_df_threshold", "hot_salt",
                            "hot_candidate_cap", "exchange_dir", "resume"})


def _segment_options(index_root: str, epoch: int, files: list[str], *,
                     id_col, text_col, id_is_int, analyzer,
                     build_kwargs: dict) -> dict:
    """Check a delta epoch's build options and return those its segment
    honours.  The chain's epochs must share one ``index_meta.json`` spec
    (the multi-searcher merges their postings and stats as one index), so
    a delta with other analysis settings is refused."""
    unknown = set(build_kwargs) - _SEGMENT_OPTIONS - _DELTA_IGNORED
    if unknown:
        raise TypeError(f"unexpected build options for a delta epoch: "
                        f"{sorted(unknown)}")
    opts = {k: v for k, v in build_kwargs.items() if k in _SEGMENT_OPTIONS}
    table_config = build_kwargs.get("table_config")
    meta = index_meta(
        analyzer=analyzer, text_col=text_col, id_col=id_col,
        id_is_int=id_is_int, k1=opts.get("k1", K1_DEFAULT),
        b=opts.get("b", B_DEFAULT),
        with_positions=opts.get("with_positions", False),
        store_fields=opts.get("store_fields") or [],
        table_config=table_config,
        input_schema=(_live_schema(pq.read_schema(files[0]))
                      if table_config is not None and files else None))
    if not index_meta_matches(index_root, meta):
        raise ValueError(
            f"delta epoch {epoch}: its analysis settings differ from the "
            f"chain's index_meta.json; rebuild the chain (mode='full' from "
            f"a backfill) to change them")
    return opts


@ray.remote(max_retries=3)
def _delta_segment(delta_files: list[str], ed: str, *, id_col: str,
                   **build) -> dict:
    """The epoch's own index over the delta's surviving rows, in one task
    (``build.build_table_index``, which keeps the postings by snapshot
    bucket for the next compaction)."""
    live = _fold_rows(None, _read_tables(delta_files), id_col)
    return build_table_index(live, ed, files=delta_files, id_col=id_col,
                             **build)


def _apply_delta_segments(index_root: str, delta_paths, epoch: int, *,
                          id_col, text_col, html_col, id_is_int, analyzer,
                          num_buckets, **build_kwargs) -> dict:
    files = _delta_files(delta_paths)
    seg_opts = _segment_options(index_root, epoch, files, id_col=id_col,
                                text_col=text_col, id_is_int=id_is_int,
                                analyzer=analyzer, build_kwargs=build_kwargs)
    ed = epoch_dir(index_root, epoch)
    os.makedirs(ed, exist_ok=True)
    manifest_path = os.path.join(ed, "manifest.json")
    analysis = dict(text_col=text_col, html_col=html_col,
                    id_is_int=id_is_int, analyzer=analyzer)
    manifest = read_json(manifest_path) if os.path.exists(manifest_path) \
        else {}
    t0 = time.monotonic()
    # dispatched first: the segment task needs only the delta, so it runs
    # beside the bucket tasks
    num_buckets = int(read_json(os.path.join(
        index_root, "snapshot_meta.json"))["num_buckets"])
    seg_ref = None if manifest.get("status") == "done" else \
        _delta_segment.remote(files, ed, id_col=id_col,
                              num_buckets=num_buckets, **analysis,
                              **seg_opts)
    _update_snapshot(index_root, files, epoch, id_col=id_col,
                     num_buckets=num_buckets, dead_set=analysis)
    snapshot_s = time.monotonic() - t0
    dmeta = read_json(os.path.join(ed, "delta_meta.json"))

    if seg_ref is not None:
        seg = ray.get(seg_ref)
        manifest = {
            "epoch": epoch, "chunks": seg["chunks"],
            "segments": seg["segments"],
            "stage_walls": {"snapshot_s": round(snapshot_s, 3),
                            "old_stats_s": dmeta["old_stats_s"],
                            "segment_s": round(seg["wall_s"], 3)},
            "tasks": dmeta["tasks"] + 1,
        }
        commit_epoch(ed, manifest, n_docs=seg["n_docs"],
                     n_postings=seg["n_postings"],
                     total_tokens=seg["total_tokens"],
                     k1=seg_opts.get("k1", K1_DEFAULT),
                     b=seg_opts.get("b", B_DEFAULT), analyzer=analyzer,
                     num_term_partitions=seg["num_term_partitions"],
                     hot_salt=1, hot_df_threshold=0, hot_terms={})
    ep_stats = manifest["stats"]

    # exact cumulative stats: prev − old versions + new versions
    prev = _prev_cum_stats(index_root, epoch - 1)
    cum = {
        "n_docs": int(prev["n_docs"]) - dmeta["n_old"] + int(ep_stats["n_docs"]),
        "total_tokens": (int(prev["total_tokens"]) - dmeta["sum_dl_old"]
                         + int(ep_stats["total_tokens"])),
        "k1": ep_stats["k1"], "b": ep_stats["b"],
    }
    cum["avgdl"] = (cum["total_tokens"] / cum["n_docs"]) if cum["n_docs"] \
        else 1.0
    atomic_write_json(os.path.join(ed, "cum_stats.json"), cum)

    _record_chain(index_root, epoch, "delta")
    return manifest


def latest_epoch(index_root: str) -> int:
    chain_path = os.path.join(index_root, "epochs.json")
    if os.path.exists(chain_path):
        return int(read_json(chain_path)["latest"])
    return 0


def epoch_chain(index_root: str) -> list[tuple[int, str]]:
    """Ordered (epoch, mode) pairs starting at the LAST full epoch — the
    set a multi-epoch query must consult."""
    chain_path = os.path.join(index_root, "epochs.json")
    if not os.path.exists(chain_path):
        return [(0, "full")]
    chain = read_json(chain_path)
    modes = chain.get("modes", {})
    epochs = sorted(chain["epochs"])
    out = [(e, modes.get(str(e), "full")) for e in epochs]
    last_full = max((i for i, (_, m) in enumerate(out) if m == "full"),
                    default=0)
    return out[last_full:]


def epoch_mode(index_root: str, epoch: int) -> str:
    """``"delta"`` if ``epoch`` was recorded as a delta epoch, else
    ``"full"`` (also for epochs built outside the chain record)."""
    chain_path = os.path.join(index_root, "epochs.json")
    if not os.path.exists(chain_path):
        return "full"
    return read_json(chain_path).get("modes", {}).get(str(epoch), "full")


def compact_chain(index_root: str, *, id_col: str = "url",
                  text_col: str = "text", html_col: str | None = None,
                  id_is_int: bool = False, analyzer: str = "standard",
                  **build_kwargs) -> dict:
    """Roll the current delta chain into a NEW full epoch — the ES
    force-merge analog (the reference delegates segment merging to ES;
    /root/reference/src/search-ingest/elastic.cr keeps one live index per
    table and lets ES compact it).

    The latest bucketed snapshot already holds the folded logical state
    (every delta epoch advances it), so compaction is a no-delta full
    apply at ``latest + 1``: all buckets hard-link from the previous
    snapshot with their versions UNCHANGED.  It tokenizes nothing.  A
    bucket untouched since the LAST FULL epoch re-links that epoch's
    postings (``reuse_from``); a touched bucket merges them with each
    delta epoch's kept postings of the bucket, without the docids a later
    epoch killed, in one Ray task per bucket
    (:func:`_merge_touched_buckets`), and writes its docvalues from the
    snapshot bucket's columns.  The work is O(postings of the touched
    buckets).  Stage 2 rebuilds the segments with exact stored block-max
    bounds and NO dead-docid suppression; below the one-task bound the
    compaction starts no Ray Data execution.  A chain whose delta epochs
    kept no postings (written before they did) re-tokenizes its touched
    buckets in stage 1 instead.  After compaction :func:`epoch_chain`
    starts at the new epoch, so
    :class:`~search_ingest_ray.query.multi.MultiEpochSearcher` collapses
    to single-epoch serving (no per-query dead-set masks or df patches).
    Idempotent/resumable through the same snapshot + manifest markers as
    any full epoch; a merged chunk's record is committed as its task
    finishes, so a resumed compaction merges it no more.  No-op (returns
    the latest manifest) when the chain is already a single full epoch."""
    chain = epoch_chain(index_root)
    last_full, latest = chain[0][0], chain[-1][0]
    if latest == last_full:
        return read_json(os.path.join(epoch_dir(index_root, latest),
                                      "manifest.json"))
    return apply_delta_epoch(
        index_root, None, latest + 1, id_col=id_col, text_col=text_col,
        html_col=html_col, id_is_int=id_is_int, analyzer=analyzer,
        mode="full", reuse_from=last_full, **build_kwargs)


def watch_deltas(index_root: str, feed_dir: str, *, poll_sec: float = 1.0,
                 max_epochs: int | None = None, stop_when=None,
                 mode: str = "delta", **delta_kwargs) -> list[dict]:
    """Tail a changefeed directory — the engine-native analog of the
    reference's RethinkDB changefeed watch loop (table.cr:25-46, which
    re-subscribes and applies each change as it arrives).

    Contract: the feed publishes one parquet per epoch named
    ``delta-e{N:04d}.parquet`` (atomic rename by the producer).  The
    watcher applies epochs strictly in order starting after the highest
    committed epoch, so it is RESUMABLE: restarting it re-scans the chain
    and continues where the last run stopped; a replayed epoch is
    idempotent (``apply_delta_epoch`` short-circuits on a committed
    manifest).  ``stop_when`` (callable → bool, checked each poll) and
    ``max_epochs`` bound the loop for tests/one-shot drains; by default
    it runs until stopped.  Returns the applied epoch manifests."""
    import time as _time

    applied: list[dict] = []
    chain_path = os.path.join(index_root, "epochs.json")
    while True:
        if stop_when is not None and stop_when():
            return applied
        nxt = (read_json(chain_path)["latest"] + 1
               if os.path.exists(chain_path) else 0)
        path = os.path.join(feed_dir, f"delta-e{nxt:04d}.parquet")
        if not os.path.exists(path):
            _time.sleep(poll_sec)
            continue
        try:
            # Footer barrier: a producer that renames atomically
            # (publish_epoch) always passes; a non-atomic producer
            # mid-write just makes the watcher wait one poll instead of
            # crashing the daemon on a truncated file.
            pq.read_metadata(path)
        except Exception:
            _time.sleep(poll_sec)
            continue
        if nxt == 0:
            # epoch 0 in the feed is the backfill table itself
            applied.append(apply_delta_epoch(index_root, None, 0,
                                             base_paths=[path],
                                             **delta_kwargs))
        else:
            applied.append(apply_delta_epoch(index_root, [path], nxt,
                                             mode=mode, **delta_kwargs))
        if max_epochs is not None and len(applied) >= max_epochs:
            return applied


def publish_epoch(feed_dir: str, epoch: int, table: pa.Table) -> str:
    """Producer-side durable atomic publish — the feed-contract barrier.

    Write the epoch parquet under a temp name, fsync the FILE, rename to
    its final ``delta-e{N:04d}.parquet`` name, then fsync the DIRECTORY:
    after a producer crash at any point, watchers either see the complete
    durable epoch or nothing — never a half-visible file.  (rename alone
    is atomic in the namespace but not durable: without the two fsyncs a
    power cut can surface a named file with missing tail pages.)"""
    os.makedirs(feed_dir, exist_ok=True)
    final = os.path.join(feed_dir, f"delta-e{epoch:04d}.parquet")
    tmp = final + ".tmp"
    pq.write_table(table, tmp)
    with open(tmp, "rb+") as f:
        os.fsync(f.fileno())
    os.rename(tmp, final)
    dfd = os.open(feed_dir, os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)
    return final
