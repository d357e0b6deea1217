"""Relational companions to the engine: temporal as-of join, broadcast
range (interval) join, tumbling-window aggregation and gap-based session
windows over event tables.

The reference delegates relational work to the search backend (filters and
aggregations over indexed fields, /root/reference/src/search-ingest
mappings); a large-scale training-data pipeline needs the same operations
directly over event/metadata tables.  Ray Data has no as-of/range join or
window primitives, so each is expressed in the engine's standard scale
shape:

- :func:`asof_join` — hash-co-partition BOTH sides by the join key (one
  int32 shuffle key), then ONE vectorized merged-lexsort +
  segmented-cummax pass per partition: the classic sort-merge as-of,
  O(n log n) per partition, no per-row Python.  An as-of match never
  crosses join keys, so co-partitioning is the only exchange needed and
  skew salting is inherited from the partition count.
- :func:`range_join_broadcast` — the small interval table rides the object
  store once (``ray.put``) and every batch resolves membership with one
  ``np.searchsorted`` pass: a map-side join, zero shuffle.  For a LARGE
  interval side, range-partition both inputs by the interval keyspace and
  apply the same kernel per partition (same kernel, different exchange).
- :func:`tumbling_window` — the window id is a pure function of the
  timestamp (``ts_us // width * width``), so per-batch partial aggregation
  (one C++ ``pyarrow`` group_by per batch) shrinks the shuffle to
  O(windows x keys) partial rows before the small native groupby — the
  combiner pattern, same as the posting build's partial stats.
- :func:`session_windows` — sessionization is per-entity, so
  hash-partition by the entity key and run one vectorized lexsort +
  gap-scan + boundary-slice pass per partition.

All money/ratio outputs use integer micro-units (``floor(x * 1e6)`` in
float64) so results are bit-comparable with a SQL oracle computing the
same IEEE expression.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import stable_partition_column

_PART_COL = "__rel_part"
_SIDE = "__asof_side"   # 0 = right (build/as-of source), 1 = left (probe)
_TS = "__asof_ts"
_TIE = "__asof_tie"
_KEY = "__asof_k"


def _tag_partition(batch: pa.Table, *, key_col: str,
                   num_partitions: int) -> pa.Table:
    part = stable_partition_column(batch[key_col], num_partitions)
    return batch.append_column(_PART_COL, pa.array(part))


# -- as-of join --------------------------------------------------------------

def _asof_prep(batch: pa.Table, *, key: str, ts: str, keep: list[str],
               other_names: list[str], other_types: list[pa.DataType],
               side: int, tie_col: str | None) -> pa.Table:
    """Project one side onto the shared union schema
    ``[_KEY, _TS, _SIDE, _TIE, *left_cols, *right_cols]`` (absent side's
    payload columns become typed nulls)."""
    batch = batch.combine_chunks()
    mask = pc.and_(pc.is_valid(batch[key]), pc.is_valid(batch[ts]))
    if pc.any(pc.invert(mask)).as_py():
        batch = batch.filter(mask)
    n = batch.num_rows
    cols: dict[str, pa.Array | pa.ChunkedArray] = {
        _KEY: batch[key].cast(pa.int64()),
        _TS: batch[ts].cast(pa.int64()),
        _SIDE: pa.array(np.full(n, side, np.int8)),
        # null tie must sort SMALLEST (a null-tie row never beats a real
        # tie at equal ts); unguarded nulls would degrade to float64 NaN
        # in to_numpy and sort largest
        _TIE: (pc.fill_null(batch[tie_col].cast(pa.int64()),
                            pa.scalar(-(2 ** 63), pa.int64()))
               if side == 0 and tie_col is not None
               else pa.array(np.zeros(n, np.int64))),
    }
    own = {c: batch[c] for c in keep}
    if side == 1:  # left payload first, then null right payload
        cols.update(own)
        for name, typ in zip(other_names, other_types):
            cols[name] = pa.nulls(n, typ)
    else:
        for name, typ in zip(other_names, other_types):
            cols[name] = pa.nulls(n, typ)
        cols.update(own)
    return pa.table(cols)


def _asof_kernel(g: pa.Table, *, left_cols: list[str],
                 right_cols: list[str]) -> pa.Table:
    """One co-partitioned group: merged lexsort by (key, ts, side, tie) with
    right rows ordering before left at equal ts (inclusive as-of), then a
    segmented cummax forward-fills each left row with the position of the
    latest right row at or before it within the same key segment.  Ties on
    (key, ts) resolve to the largest ``tie_col`` (right rows sort tie-asc,
    the fill takes the positionally-last)."""
    g = g.combine_chunks()
    n = g.num_rows
    out_schema = pa.schema(
        [(c, g.schema.field(c).type) for c in (*left_cols, *right_cols)])
    if n == 0:
        return out_schema.empty_table()
    k = g[_KEY].to_numpy()
    t = g[_TS].to_numpy()
    s = g[_SIDE].to_numpy()
    tie = g[_TIE].to_numpy()
    order = np.lexsort((tie, s, t, k))
    ks, ss = k[order], s[order]
    rid = np.where(ss == 0, np.arange(n, dtype=np.int64), np.int64(-1))
    grp_start = np.empty(n, bool)
    grp_start[0] = True
    grp_start[1:] = ks[1:] != ks[:-1]
    seg = np.cumsum(grp_start) - 1
    # segment-local forward max: offset each right position by seg*n so a
    # fill can never leak across key segments (prev-segment values < seg*n)
    tmp = np.where(rid >= 0, rid + seg * n, np.int64(-1))
    ff = np.maximum.accumulate(tmp)
    matched_left = (ss == 1) & (ff >= seg * n)
    left_orig = pa.array(order[matched_left])
    right_orig = pa.array(order[ff[matched_left] - seg[matched_left] * n])
    cols = {c: g[c].take(left_orig) for c in left_cols}
    cols.update({c: g[c].take(right_orig) for c in right_cols})
    return pa.table(cols).cast(out_schema)


def asof_join(left, right, *, on: str, left_ts: str, right_ts: str,
              left_cols: list[str], right_cols: list[str],
              right_on: str | None = None, tie_col: str | None = None,
              num_partitions: int = 32):
    """Backward inclusive as-of join: for every left row, the right row with
    the same key and the greatest ``(right_ts, tie_col) <= (left_ts, +inf)``.
    Inner semantics — unmatched left rows are dropped.  Returns a Dataset
    with ``left_cols + right_cols`` (payload names must be disjoint; right
    payload values pass through untouched, so floats stay bit-exact)."""
    right_on = right_on or on
    overlap = set(left_cols) & set(right_cols)
    if overlap:
        raise ValueError(f"asof_join payload columns must be disjoint: {overlap}")
    lsch, rsch = left.schema(), right.schema()
    ltypes = dict(zip(lsch.names, lsch.types))
    rtypes = dict(zip(rsch.names, rsch.types))
    lprep = left.map_batches(functools.partial(
        _asof_prep, key=on, ts=left_ts, keep=left_cols,
        other_names=right_cols, other_types=[rtypes[c] for c in right_cols],
        side=1, tie_col=None), batch_format="pyarrow")
    rprep = right.map_batches(functools.partial(
        _asof_prep, key=right_on, ts=right_ts, keep=right_cols,
        other_names=left_cols, other_types=[ltypes[c] for c in left_cols],
        side=0, tie_col=tie_col), batch_format="pyarrow")
    tagged = lprep.union(rprep).map_batches(
        functools.partial(_tag_partition, key_col=_KEY,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return tagged.groupby(_PART_COL).map_groups(
        functools.partial(_asof_kernel, left_cols=left_cols,
                          right_cols=right_cols),
        batch_format="pyarrow")


# -- broadcast range (interval) join -----------------------------------------

def _range_kernel(batch: pa.Table, *, iv_ref, value_col: str,
                  out_col: str) -> pa.Table:
    import ray
    lows, highs, ids = (iv_ref if isinstance(iv_ref, tuple)
                        else ray.get(iv_ref))
    batch = batch.combine_chunks()
    if pc.any(pc.is_null(batch[value_col])).as_py():
        batch = batch.filter(pc.is_valid(batch[value_col]))
    v = batch[value_col].to_numpy()
    pos = np.searchsorted(lows, v, side="right") - 1
    clipped = np.clip(pos, 0, len(lows) - 1)
    ok = (pos >= 0) & (v < highs[clipped])
    matched = batch.filter(pa.array(ok))
    return matched.append_column(
        out_col, pa.array(ids[clipped[ok]].astype(np.int64)))


def range_join_broadcast(ds, intervals, *, value_col: str,
                         out_col: str = "interval_id"):
    """Join each row to the interval containing ``value_col``
    (``lo <= v < hi``).  ``intervals`` is a sequence of ``(id, lo, hi)``,
    non-overlapping; rows outside every interval are dropped.  The interval
    table is broadcast once via ``ray.put`` and each batch resolves with one
    ``np.searchsorted`` — no shuffle."""
    import ray
    iv = sorted(intervals, key=lambda r: r[1])
    lows = np.array([r[1] for r in iv], np.float64)
    highs = np.array([r[2] for r in iv], np.float64)
    if len(iv) > 1 and np.any(highs[:-1] > lows[1:]):
        raise ValueError("range_join_broadcast intervals must not overlap")
    ids = np.array([r[0] for r in iv], np.int64)
    iv_ref = ray.put((lows, highs, ids))
    return ds.map_batches(
        _range_kernel, batch_format="pyarrow",
        fn_kwargs=dict(iv_ref=iv_ref, value_col=value_col, out_col=out_col))


# -- distributed interval join (LARGE interval side) --------------------------

_IJ_SIDE = "__ij_side"   # 0 = interval row, 1 = point row
_IJ_BIN = "__ij_bin"
_IJ_V = "__ij_v"
_IJ_LO = "__ij_lo"
_IJ_HI = "__ij_hi"


def _ij_point_batch(batch: pa.Table, *, value_col, point_cols,
                    interval_cols, types, bin_width,
                    num_partitions) -> pa.Table:
    batch = batch.combine_chunks()
    if pc.any(pc.is_null(batch[value_col])).as_py():
        batch = batch.filter(pc.is_valid(batch[value_col]))
    v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    bins = np.floor(v / bin_width).astype(np.int64)
    n = len(batch)
    cols = {c: batch[c] for c in point_cols}
    cols.update({c: pa.nulls(n, types[c]) for c in interval_cols})
    cols[_IJ_V] = pa.array(v, pa.float64())
    cols[_IJ_LO] = pa.nulls(n, pa.float64())
    cols[_IJ_HI] = pa.nulls(n, pa.float64())
    cols[_IJ_SIDE] = pa.array(np.ones(n, np.int8))
    cols[_IJ_BIN] = pa.array(bins)
    t = pa.table(cols)
    part = stable_partition_column(t[_IJ_BIN], num_partitions)
    return t.append_column(_PART_COL, pa.array(part))


def _ij_interval_batch(batch: pa.Table, *, lo_col, hi_col, point_cols,
                       types, interval_cols, bin_width,
                       num_partitions) -> pa.Table:
    batch = batch.combine_chunks()
    lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.float64)
    hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.float64)
    valid = ~(np.isnan(lo) | np.isnan(hi)) & (hi > lo)
    if not valid.all():
        batch = batch.filter(pa.array(valid))
        lo, hi = lo[valid], hi[valid]
    b0 = np.floor(lo / bin_width).astype(np.int64)
    b1 = np.ceil(hi / bin_width).astype(np.int64) - 1   # hi exclusive
    np.maximum(b1, b0, out=b1)
    reps = (b1 - b0 + 1)
    idx = np.repeat(np.arange(len(batch), dtype=np.int64), reps)
    # per-row arange via cumsum offsets: bin of each replica
    starts = np.repeat(b0, reps)
    within = (np.arange(int(reps.sum()), dtype=np.int64)
              - np.repeat(np.cumsum(reps) - reps, reps))
    bins = starts + within
    rep = batch.take(pa.array(idx))
    n = len(rep)
    cols = {c: pa.nulls(n, types[c]) for c in point_cols}
    cols.update({c: rep[c] for c in interval_cols})
    cols[_IJ_V] = pa.nulls(n, pa.float64())
    cols[_IJ_LO] = pa.array(lo[idx], pa.float64())
    cols[_IJ_HI] = pa.array(hi[idx], pa.float64())
    cols[_IJ_SIDE] = pa.array(np.zeros(n, np.int8))
    cols[_IJ_BIN] = pa.array(bins)
    t = pa.table(cols)
    part = stable_partition_column(t[_IJ_BIN], num_partitions)
    return t.append_column(_PART_COL, pa.array(part))


def _ij_kernel(g: pa.Table, *, point_cols, interval_cols,
               block_bools: int = 1 << 24) -> pa.Table:
    g = g.combine_chunks()
    side = g[_IJ_SIDE].to_numpy()
    pts = g.filter(pa.array(side == 1))
    ivs = g.filter(pa.array(side == 0))
    out_names = list(point_cols) + list(interval_cols)
    empty = pa.table({c: pa.chunked_array([g[c].combine_chunks()[:0]])
                      for c in out_names})
    if len(pts) == 0 or len(ivs) == 0:
        return empty
    v = pts[_IJ_V].to_numpy()
    pbin = pts[_IJ_BIN].to_numpy()
    lo = ivs[_IJ_LO].to_numpy()
    hi = ivs[_IJ_HI].to_numpy()
    ibin = ivs[_IJ_BIN].to_numpy()
    ni = len(ivs)
    block = max(256, block_bools // ni)
    pi_parts, ii_parts = [], []
    for s in range(0, len(pts), block):
        e = min(s + block, len(pts))
        # bin-equality guard makes each (point, interval) pair match in
        # exactly ONE partition (the point's own bin), so replicated
        # intervals never produce duplicate output rows
        m = ((v[s:e, None] >= lo[None, :]) & (v[s:e, None] < hi[None, :])
             & (pbin[s:e, None] == ibin[None, :]))
        bi, bj = np.nonzero(m)
        pi_parts.append(bi + s)
        ii_parts.append(bj)
    pi = np.concatenate(pi_parts)
    ii = np.concatenate(ii_parts)
    if pi.size == 0:
        return empty
    ptake = pts.select(list(point_cols)).take(pa.array(pi))
    itake = ivs.select(list(interval_cols)).take(pa.array(ii))
    cols = {c: ptake[c] for c in point_cols}
    cols.update({c: itake[c] for c in interval_cols})
    return pa.table(cols)


def interval_join(points, intervals, *, value_col: str, lo_col: str,
                  hi_col: str, point_cols: list[str],
                  interval_cols: list[str], bin_width: float | None = None,
                  num_partitions: int = 64,
                  types: dict[str, pa.DataType] | None = None):
    """Distributed interval (range) join where BOTH sides are large
    Datasets and intervals may OVERLAP — the scale path
    :func:`range_join_broadcast`'s docstring promises.

    Inner join on ``lo <= v < hi`` emitting ``point_cols`` +
    ``interval_cols`` for every containing interval.  Shape: bin the
    value domain at ``bin_width``; each interval is replicated to every
    bin it overlaps (vectorized repeat), each point goes to its one bin;
    both streams hash-partition on the bin (ONE exchange each) and every
    partition resolves containment with blockwise boolean broadcasting
    (block x n_intervals bools, capped ~16 MB) guarded by bin equality —
    so replicated intervals can never double-match and no distinct pass
    is needed.

    Partitioning contract: per-partition interval count ~
    n_intervals x mean(len/bin_width) / num_partitions; an interval
    costs O(length / bin_width) replicas, so pick ``bin_width`` near the
    TYPICAL interval length (the default derives mean length with one
    tiny aggregate pass over ``intervals``).  A single giant interval
    degrades gracefully (many cheap replicas) rather than melting one
    task.  Nulls on either side never match (SQL semantics); empty
    intervals (``hi <= lo``) are dropped.

    ``types``: the Arrow types of ``point_cols`` and ``interval_cols``
    (each side carries the other's columns as typed nulls).  A column not
    named there takes its type from its input's ``schema()``, which runs
    nothing for a plain read but runs a mapped input's whole pipeline
    once more, so a caller that maps an input names its types."""
    if set(point_cols) & set(interval_cols):
        raise ValueError("point_cols and interval_cols must be disjoint")
    types = dict(types or {})
    for ds, cols in ((points, point_cols), (intervals, interval_cols)):
        if any(c not in types for c in cols):
            schema = ds.schema()
            types.update((c, t) for c, t in zip(schema.names, schema.types)
                         if c in cols and c not in types)
    if bin_width is None:
        from ray.data.aggregate import Mean
        stats = (intervals
                 .map_batches(lambda b: pa.table({"__len": pc.subtract(
                     b[hi_col], b[lo_col])}), batch_format="pyarrow")
                 .aggregate(Mean("__len")))
        bin_width = float(stats["mean(__len)"] or 1.0)
        if not (bin_width > 0):
            bin_width = 1.0
    pts = points.map_batches(
        functools.partial(_ij_point_batch, value_col=value_col,
                          point_cols=point_cols, interval_cols=interval_cols,
                          types=types, bin_width=bin_width,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    ivs = intervals.map_batches(
        functools.partial(_ij_interval_batch, lo_col=lo_col, hi_col=hi_col,
                          point_cols=point_cols, types=types,
                          interval_cols=interval_cols, bin_width=bin_width,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return pts.union(ivs).groupby(_PART_COL).map_groups(
        functools.partial(_ij_kernel, point_cols=point_cols,
                          interval_cols=interval_cols),
        batch_format="pyarrow")


# -- tumbling window ----------------------------------------------------------

def _window_partial(batch: pa.Table, *, ts_col: str, width_us: int,
                    key_col: str, value_col: str) -> pa.Table:
    batch = batch.combine_chunks()
    if batch[ts_col].null_count:
        # events missing the timestamp can't join any window (ES
        # date_histogram skips docs without the field); an unguarded
        # to_numpy would turn nulls into NaN and garbage int buckets
        batch = batch.filter(pc.is_valid(batch[ts_col]))
    tus = batch[ts_col].cast(pa.int64()).to_numpy()
    win = (tus // width_us) * width_us
    v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
    vm = np.floor(v * 1e6)
    null_v = ~np.isfinite(vm)
    vm = np.where(null_v, 0, vm).astype(np.int64)
    part = pa.table({
        "window_us": pa.array(win),
        key_col: batch[key_col],
        "n_events": pa.array(np.ones(len(win), np.int64)),
        "sum_value_micro": pa.array(vm),
    })
    agg = pa.TableGroupBy(part, ["window_us", key_col]).aggregate(
        [("n_events", "sum"), ("sum_value_micro", "sum")])
    return pa.table({       # select by name — pyarrow key/agg column order
        "window_us": agg["window_us"], key_col: agg[key_col],
        "n_events": agg["n_events_sum"],
        "sum_value_micro": agg["sum_value_micro_sum"]})


def tumbling_window(ds, *, ts_col: str, width_us: int, key_col: str,
                    value_col: str):
    """Tumbling-window aggregate: per ``(window_start, key)`` the event count
    and the micro-unit value sum (``sum(floor(value * 1e6))`` — integer, so
    bit-exact under any summation order).  Per-batch partials shrink the
    shuffle to O(windows x keys) rows."""
    partial = ds.map_batches(
        functools.partial(_window_partial, ts_col=ts_col, width_us=width_us,
                          key_col=key_col, value_col=value_col),
        batch_format="pyarrow")
    agg = partial.groupby(["window_us", key_col]).sum(
        ["n_events", "sum_value_micro"])
    return agg.map_batches(
        lambda t: pa.table({
            "window_us": t["window_us"], key_col: t[key_col],
            "n_events": t["sum(n_events)"],
            "sum_value_micro": t["sum(sum_value_micro)"]}),
        batch_format="pyarrow")


def _sliding_partial(batch: pa.Table, *, ts_col: str, size_us: int,
                     hop_us: int, key_col: str) -> pa.Table:
    """Per-batch partial for sliding windows: each event is replicated to
    every covering window start (``size/hop`` copies, vectorized repeat),
    then partially counted — the replication factor is the well-known
    hopping-window cost and the ONLY blowup; the shuffle moves
    O(windows × keys) partial rows."""
    batch = batch.combine_chunks()
    if batch[ts_col].null_count:
        batch = batch.filter(pc.is_valid(batch[ts_col]))  # see _window_partial
    tus = batch[ts_col].cast(pa.int64()).to_numpy()
    n = tus.size
    if n == 0:
        return pa.table({"window_us": pa.array([], pa.int64()),
                         key_col: batch[key_col],
                         "n_events": pa.array([], pa.int64())})
    # window starts s ≡ 0 (mod hop) with s <= t < s+size:
    # s from hop*floor((t-size)/hop)+hop  to  hop*floor(t/hop)
    lo = (tus - size_us) // hop_us * hop_us + hop_us
    hi = tus // hop_us * hop_us
    counts = ((hi - lo) // hop_us + 1).astype(np.int64)
    starts = np.repeat(lo, counts)
    seg_off = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(int(counts.sum()), dtype=np.int64) - \
        np.repeat(seg_off, counts)
    win = starts + within * hop_us
    keys = batch[key_col].take(
        pa.array(np.repeat(np.arange(n), counts), pa.int64()))
    part = pa.table({
        "window_us": pa.array(win),
        key_col: keys,
        "n_events": pa.array(np.ones(win.size, np.int64)),
    })
    agg = pa.TableGroupBy(part, ["window_us", key_col]).aggregate(
        [("n_events", "sum")])
    return pa.table({"window_us": agg["window_us"], key_col: agg[key_col],
                     "n_events": agg["n_events_sum"]})


def sliding_window(ds, *, ts_col: str, size_us: int, hop_us: int,
                   key_col: str):
    """Sliding (hopping) window counts: per ``(window_start, key)`` the
    number of events with ``window_start <= ts < window_start + size``,
    window starts aligned to ``hop_us``.  ``hop == size`` degenerates to
    the tumbling window.  Same combiner shape as
    :func:`tumbling_window`: vectorized per-batch replication + partial
    group-by, one small global aggregate."""
    if size_us % hop_us != 0:
        raise ValueError("size_us must be a multiple of hop_us")
    partial = ds.map_batches(
        functools.partial(_sliding_partial, ts_col=ts_col, size_us=size_us,
                          hop_us=hop_us, key_col=key_col),
        batch_format="pyarrow")
    agg = partial.groupby(["window_us", key_col]).sum(["n_events"])
    return agg.map_batches(
        lambda t: pa.table({
            "window_us": t["window_us"], key_col: t[key_col],
            "n_events": t["sum(n_events)"]}),
        batch_format="pyarrow")


# -- session windows ----------------------------------------------------------

def _session_kernel(g: pa.Table, *, user_col: str, ts_col: str,
                    gap_us: int) -> pa.Table:
    g = g.combine_chunks()
    if g.num_rows and (g[ts_col].null_count or g[user_col].null_count):
        g = g.filter(pc.and_(pc.is_valid(g[ts_col]),
                             pc.is_valid(g[user_col])))  # see _window_partial
    out_schema = pa.schema([(user_col, pa.int64()),
                            ("session_start_us", pa.int64()),
                            ("session_end_us", pa.int64()),
                            ("n_events", pa.int64())])
    n = g.num_rows
    if n == 0:
        return out_schema.empty_table()
    u = g[user_col].cast(pa.int64()).to_numpy()
    t = g[ts_col].cast(pa.int64()).to_numpy()
    order = np.lexsort((t, u))
    us, ts_ = u[order], t[order]
    new = np.empty(n, bool)
    new[0] = True
    new[1:] = (us[1:] != us[:-1]) | (ts_[1:] - ts_[:-1] > gap_us)
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], n] - 1
    return pa.table({
        user_col: pa.array(us[starts]),
        "session_start_us": pa.array(ts_[starts]),
        "session_end_us": pa.array(ts_[ends]),
        "n_events": pa.array(np.diff(np.r_[starts, n]).astype(np.int64)),
    })


def session_windows(ds, *, user_col: str, ts_col: str, gap_us: int,
                    num_partitions: int = 32):
    """Gap-based sessionization: one session per maximal run of a user's
    events with inter-event gaps <= ``gap_us``.  Hash-partitioned by user
    (sessions never cross users), one vectorized pass per partition.
    Returns ``(user, session_start_us, session_end_us, n_events)``."""
    def prep(batch: pa.Table) -> pa.Table:
        batch = batch.combine_chunks()
        mask = pc.and_(pc.is_valid(batch[user_col]),
                       pc.is_valid(batch[ts_col]))
        if pc.any(pc.invert(mask)).as_py():
            batch = batch.filter(mask)
        return pa.table({user_col: batch[user_col].cast(pa.int64()),
                         ts_col: batch[ts_col].cast(pa.int64())})

    tagged = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        functools.partial(_tag_partition, key_col=user_col,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    return tagged.groupby(_PART_COL).map_groups(
        functools.partial(_session_kernel, user_col=user_col, ts_col=ts_col,
                          gap_us=gap_us),
        batch_format="pyarrow")
