"""Upsert/delete fold (operator E9) — the batch analog of the reference's
changefeed sync.

The reference applies changefeed events one at a time with at-least-once
delivery made idempotent by ``doc_as_upsert`` keyed on document id
(/root/reference/src/search-ingest/elastic.cr:420, 431-449) and deletes via
tombstones (elastic.cr:452-464).  Ray-native restatement: delta rows carry
``(action ∈ {created, updated, deleted}, epoch)``; folding is last-write-wins
per id on ``(epoch, seq)`` with delete tombstones dropping the document.

Execution shape (scale-critical): a naive ``groupby(id).map_groups`` makes
one Python call per distinct id — a per-row Python loop behind a shuffle at
billions of ids.  Instead the fold hash-partitions rows by key into P
partitions (one small int shuffle key) and runs ONE vectorized
sort-and-keep-winner pass per partition: Python call count is O(P), all
per-row work is Arrow kernels.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc

from ..util import stable_partition_column

ACTIONS = ("created", "updated", "deleted")

_PART_COL = "__fold_part"


def _tag_partition(batch: pa.Table, *, key_cols: list[str],
                   num_partitions: int) -> pa.Table:
    part = stable_partition_column(batch[key_cols[0]], num_partitions)
    if len(key_cols) > 1:
        # combine multi-column keys by xor-mixing per-column partitions
        import numpy as np
        acc = part.astype(np.int64)
        for k in key_cols[1:]:
            acc = acc * 31 + stable_partition_column(batch[k], num_partitions)
        part = (acc % num_partitions).astype(np.int32)
    return batch.append_column(_PART_COL, pa.array(part))


def _sortable(t) -> bool:
    import pyarrow as _pa
    return not (_pa.types.is_nested(t) or _pa.types.is_binary(t)
                or _pa.types.is_large_binary(t))


def _run_firsts_mask(tbl: pa.Table, key_cols: list[str]):
    """Boolean numpy mask marking the first row of each equal-key run in a
    key-sorted table (vectorized adjacent-row comparison)."""
    import numpy as np
    n = tbl.num_rows
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    if n == 1:
        return mask
    neq = np.zeros(n - 1, dtype=bool)
    for k in key_cols:
        col = tbl[k].combine_chunks() if isinstance(tbl[k], pa.ChunkedArray) else tbl[k]
        a, b = col.slice(0, n - 1), col.slice(1, n)
        # null vs value → not equal; null vs null → equal (grouping semantics)
        eq = pc.fill_null(pc.equal(a, b), False)
        both_null = pc.and_(pc.invert(a.is_valid()), pc.invert(b.is_valid()))
        eq = pc.or_(eq, both_null)
        neq |= pc.invert(eq).to_numpy(zero_copy_only=False)
    mask[1:] = neq
    return mask


def _fold_partition(group: pa.Table, *, key_cols: list[str],
                    order_cols: list[str], keep: str,
                    action_col: str | None) -> pa.Table:
    """One hash partition: sort by (keys, order) and keep each key's winner —
    fully vectorized (one sort + one adjacent-compare per partition)."""
    group = group.combine_chunks()
    if group.num_rows == 0:
        return group.drop_columns([_PART_COL])
    ord_dir = "descending" if keep == "last" else "ascending"
    # remaining columns act as a DETERMINISTIC tie-break: when order_cols
    # don't form a total order within a key (degenerate input), the winner
    # must not depend on Ray block arrival order — sort the full row
    rest = [c for c in group.column_names
            if c not in key_cols and c not in order_cols and c != _PART_COL
            and _sortable(group.schema.field(c).type)]
    sort_keys = ([(k, "ascending") for k in key_cols]
                 + [(o, ord_dir) for o in order_cols]
                 + [(c, ord_dir) for c in rest])
    group = group.take(pc.sort_indices(group, sort_keys=sort_keys))
    winners = group.filter(pa.array(_run_firsts_mask(group, key_cols)))
    if action_col is not None:
        winners = winners.filter(
            pc.not_equal(pc.coalesce(winners[action_col], pa.scalar("")),
                         pa.scalar("deleted")))
    return winners.drop_columns([_PART_COL])


def partitioned_fold(ds, key_cols: list[str], order_cols: list[str],
                     keep: str = "last", action_col: str | None = None,
                     num_partitions: int = 32):
    """Fold a Dataset to one surviving row per distinct ``key_cols`` value.

    ``keep='last'``: the row with the greatest ``order_cols`` tuple wins;
    ``keep='first'``: the smallest.  ``action_col``: a winning row whose
    action is ``'deleted'`` removes the key entirely (tombstone).

    ``num_partitions`` bounds Python-call overhead (one vectorized call per
    partition); size it ~2-4× the cluster's cores at scale.
    """
    assert keep in ("last", "first")
    tagged = ds.map_batches(
        functools.partial(_tag_partition, key_cols=key_cols,
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    folder = functools.partial(_fold_partition, key_cols=key_cols,
                               order_cols=order_cols, keep=keep,
                               action_col=action_col)
    return tagged.groupby(_PART_COL).map_groups(folder, batch_format="pyarrow")


def keys_with_sum(ds, key_col: str, value_col: str, total: int):
    """Dataset of the ``key_col`` values whose ``value_col`` sums to
    ``total`` (a vote count).  Same shape as the fold: hash-partition on
    the key, then one Arrow ``group_by`` per partition, in place of Ray
    Data's hash ``Aggregate`` over the full key space (``incremental_near_dup``
    at sf0.1: 2.7-3.1 s → 2.0-2.4 s)."""
    tagged = ds.map_batches(
        functools.partial(_tag_partition, key_cols=[key_col],
                          num_partitions=32),
        batch_format="pyarrow")

    def combine(group: pa.Table) -> pa.Table:
        g = (group.select([key_col, value_col])
             .group_by(key_col, use_threads=False)
             .aggregate([(value_col, "sum")]))
        return g.filter(pc.equal(g[f"{value_col}_sum"], total)) \
            .select([key_col])

    return tagged.groupby(_PART_COL).map_groups(combine,
                                                batch_format="pyarrow")


def fold_last_write_wins(ds, id_col: str, order_cols: list[str],
                         action_col: str | None = None,
                         drop_order_cols: bool = False,
                         num_partitions: int = 32):
    """Fold a delta Dataset to one surviving row per ``id_col``.

    ``order_cols``: total order within an id (e.g. ["epoch"] or ["ts",
    "event_id"]); the row with the greatest order wins.  If ``action_col``
    is given, a winning row whose action is ``deleted`` removes the document
    entirely (tombstone, analog of S5).
    """
    out = partitioned_fold(ds, [id_col], order_cols, keep="last",
                           action_col=action_col,
                           num_partitions=num_partitions)
    if drop_order_cols:
        keep_cols = [c for c in ds.schema().names if c not in order_cols]
        out = out.select_columns(keep_cols)
    return out


def _merge_partition(group: pa.Table, *, key_cols: list[str],
                     order_cols: list[str],
                     action_col: str | None) -> pa.Table:
    """One hash partition of the changed-fields merge: sort newest-first
    per key, then per column keep each key's NEWEST NON-NULL value — all
    reduceat/take kernels, one Python call per partition."""
    import numpy as np
    group = group.combine_chunks()
    if group.num_rows == 0:
        return group.drop_columns([_PART_COL])
    rest = [c for c in group.column_names
            if c not in key_cols and c not in order_cols and c != _PART_COL
            and _sortable(group.schema.field(c).type)]
    sort_keys = ([(k, "ascending") for k in key_cols]
                 + [(o, "descending") for o in order_cols]
                 + [(c, "descending") for c in rest])
    group = group.take(pc.sort_indices(group, sort_keys=sort_keys))
    n = group.num_rows
    firsts = _run_firsts_mask(group, key_cols)
    run_starts = np.flatnonzero(firsts)
    run_id = np.cumsum(firsts) - 1
    idx = np.arange(n, dtype=np.int64)
    if action_col is not None:
        deleted = pc.equal(pc.coalesce(group[action_col], pa.scalar("")),
                           pa.scalar("deleted")).to_numpy(
                               zero_copy_only=False)
        del_pos_run = np.minimum.reduceat(np.where(deleted, idx, n),
                                          run_starts)
    else:
        del_pos_run = np.full(len(run_starts), n, dtype=np.int64)
    # rows at/after the newest tombstone are dead history; a key whose
    # newest row IS the tombstone disappears entirely
    eligible = idx < del_pos_run[run_id]
    alive = del_pos_run != run_starts
    head_cols = set(key_cols) | set(order_cols) | (
        {action_col} if action_col else set())
    out = {}
    for name in group.column_names:
        if name == _PART_COL:
            continue
        col = group[name]
        if name in head_cols:
            # identity / order / action come from the newest row per key
            out[name] = col.take(pa.array(run_starts[alive], pa.int64()))
            continue
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        first = np.minimum.reduceat(np.where(valid & eligible, idx, n),
                                    run_starts)[alive]
        missing = first == n
        vals = col.take(pa.array(np.minimum(first, n - 1), pa.int64()))
        if missing.any():
            vals = pc.if_else(pa.array(~missing), vals,
                              pa.scalar(None, type=vals.type))
        out[name] = vals
    return pa.table(out)


def fold_changed_fields(ds, id_col: str, order_cols: list[str],
                        action_col: str | None = None,
                        num_partitions: int = 32):
    """Fold a PARTIAL-ROW delta stream to one merged row per ``id_col``.

    The reference updates documents with ``document.changed_json`` — only
    the attributes that changed — merged by Elasticsearch's
    ``doc_as_upsert`` (/root/reference/src/search-ingest/elastic.cr:231-232,
    420).  This is the batch analog for CDC feeds whose delta rows carry
    only changed columns: within an id, each column independently takes its
    NEWEST NON-NULL value (``order_cols`` descending); a null means "this
    delta did not touch the column" (genuine null assignment is not
    representable — exactly ES's absent-key semantics).  A winning
    ``action_col == 'deleted'`` tombstone removes the id, and any partial
    updates OLDER than the newest tombstone never leak into the merge
    (delete clears the document; only newer deltas rebuild it).

    Same scale shape as :func:`partitioned_fold`: hash-partition on the id,
    one vectorized sort + reduceat pass per partition.
    """
    tagged = ds.map_batches(
        functools.partial(_tag_partition, key_cols=[id_col],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    merger = functools.partial(_merge_partition, key_cols=[id_col],
                               order_cols=order_cols, action_col=action_col)
    return tagged.groupby(_PART_COL).map_groups(merger, batch_format="pyarrow")


def tag_base(batch: pa.Table, *, epoch_col: str = "epoch",
             action_col: str = "action") -> pa.Table:
    """Give snapshot (base) rows the delta's order and action columns:
    epoch -1, ``created`` — so any delta row of the same id wins the
    fold."""
    n = batch.num_rows
    if epoch_col not in batch.column_names:
        batch = batch.append_column(epoch_col, pa.array([-1] * n, pa.int64()))
    if action_col not in batch.column_names:
        batch = batch.append_column(action_col, pa.array(["created"] * n, pa.string()))
    return batch


def apply_epoch(base_ds, delta_ds, id_col: str, epoch_col: str = "epoch",
                action_col: str = "action"):
    """Apply one epoch of deltas onto a base snapshot: union then fold.

    Base rows are treated as epoch -1 ``created`` rows; the fold keeps the
    latest state per id and drops tombstoned docs.  Equivalent reference
    behavior: process_resource created/updated/deleted dispatch
    (/root/reference/src/search-ingest/table.cr:25-46).

    The column names come from ``base_ds.schema()``, which runs nothing
    for a plain read (Parquet footers) but runs the plan once more for
    anything mapped or projected, so pass a read.  The result has those
    columns plus ``epoch_col`` and ``action_col``.
    """
    cols = list(base_ds.schema().names)
    cols += [c for c in (epoch_col, action_col) if c not in cols]
    base = base_ds.map_batches(
        tag_base, batch_format="pyarrow",
        fn_kwargs=dict(epoch_col=epoch_col, action_col=action_col))
    merged = base.union(delta_ds.select_columns(cols))
    return fold_last_write_wins(merged, id_col, [epoch_col], action_col)
