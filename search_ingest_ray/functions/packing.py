"""Output sharding + sequence packing — the LAST stages of a
training-data pipeline: lay a filtered corpus out as N deterministically
"shuffled" shards, then pack documents into fixed-token training
examples.

Both stages order rows by the same stable md5-low63 hash of
``salt || key`` the sampling family uses, which is what makes the global
shuffle DETERMINISTIC: re-running the pipeline (or resuming one shard)
reproduces byte-identical shard contents — no RNG state, no dependence
on block arrival order.  A hash order is exactly as "shuffled" as a
seeded permutation for training purposes (adjacent input docs land far
apart), but unlike `random_shuffle` it needs no extra all-to-all pass:
the shard id IS the partition key of the one exchange.

Scale shape: ``shard_plan`` is one hash exchange (8-byte keys + payload)
+ a vectorized per-shard sort; ``pack_sequences`` adds a per-shard
greedy scan that is O(blocks · log n) via searchsorted over the token
cumsum — block-count iterations, never per-doc Python.  Each shard is an
independent task → resumable partitioned output
(``write_parquet(partition_cols=['shard'])``).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from .sampling import _con

_H63 = 9_223_372_036_854_775_808  # 2^63


def _key_h63(col, salt: str) -> np.ndarray:
    """md5_number_lower(salt || key) % 2^63 — full-width order/shard hash
    (DuckDB's vectorized md5 kernel; same family as content_hash_batch)."""
    con = _con()
    src = pa.table({"k": col})
    con.register("_shd_src", src)
    try:
        out = con.execute(
            "SELECT (md5_number_lower($salt || coalesce(CAST(k AS VARCHAR),"
            " '')) % 9223372036854775808)::BIGINT AS h FROM _shd_src",
            {"salt": salt},
        ).arrow()["h"]
    finally:
        con.unregister("_shd_src")
    return out.combine_chunks().to_numpy()


def _shard_tag(batch: pa.Table, *, key_col: str, salt: str,
               nshards: int) -> pa.Table:
    h = _key_h63(batch[key_col], salt)
    return (batch.append_column("__h", pa.array(h, pa.int64()))
                 .append_column("shard", pa.array((h % nshards)
                                                  .astype(np.int64))))


def _shard_order(g: pa.Table, *, key_col: str,
                 emit_pos: bool) -> pa.Table:
    g = g.combine_chunks()
    h = g["__h"].to_numpy()
    k = g[key_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((k, h))
    g = g.take(pa.array(order))
    if emit_pos:
        g = g.append_column("pos", pa.array(
            np.arange(len(g), dtype=np.int64)))
    return g.drop_columns(["__h"])


def shard_plan(ds, nshards: int, *, key_col: str = "doc_id",
               salt: str = "shard"):
    """Deterministic shuffled shard layout: every row gets
    ``shard = md5_63(salt||key) % nshards`` and ``pos`` = its rank within
    the shard by (hash, key) — i.e. a stable pseudorandom permutation,
    materialized as one exchange + per-shard vectorized sort.  SQL:
    ``row_number() OVER (PARTITION BY shard ORDER BY h, key) - 1``."""
    tagged = ds.map_batches(_shard_tag, batch_format="pyarrow",
                            fn_kwargs=dict(key_col=key_col, salt=salt,
                                           nshards=nshards))
    return tagged.groupby("shard").map_groups(
        functools.partial(_shard_order, key_col=key_col, emit_pos=True),
        batch_format="pyarrow")


def _pack_group(g: pa.Table, *, key_col: str, len_col: str,
                max_tokens: int) -> pa.Table:
    """Greedy sequential packing of one shard (rows already hash-ordered
    by _shard_order): blocks break when the next doc would overflow
    ``max_tokens``; an oversized doc gets a block of its own (consumer
    truncates).  O(blocks) searchsorted scan over the cumsum."""
    g = _shard_order(g, key_col=key_col, emit_pos=False)
    lens = g[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(lens)
    block = np.empty(n, dtype=np.int64)
    offset = np.empty(n, dtype=np.int64)
    cum = np.cumsum(lens)
    start, b = 0, 0
    while start < n:
        base = cum[start - 1] if start else 0
        # furthest doc whose cumulative size still fits the budget
        end = int(np.searchsorted(cum, base + max_tokens, side="right"))
        if end == start:           # oversized single doc: own block
            end = start + 1
        block[start:end] = b
        offset[start:end] = cum[start:end] - lens[start:end] - base
        b += 1
        start = end
    return (g.append_column("block", pa.array(block))
             .append_column("offset", pa.array(offset)))


def pack_sequences(ds, max_tokens: int, *, nshards: int = 32,
                   key_col: str = "doc_id", len_col: str = "n_tokens",
                   salt: str = "shard"):
    """Pack documents into fixed-token training examples: shard by the
    stable hash, order each shard by (hash, key) — the same deterministic
    shuffle as :func:`shard_plan` — then greedily fill blocks of
    ``max_tokens``.  Emits (shard, block, offset): ``block`` is the
    training example index within the shard, ``offset`` the doc's token
    start inside it.  The greedy scan is the SEMANTICS (packing is
    inherently sequential per shard); shards run in parallel and each is
    an independent resumable output partition."""
    tagged = ds.map_batches(_shard_tag, batch_format="pyarrow",
                            fn_kwargs=dict(key_col=key_col, salt=salt,
                                           nshards=nshards))
    return tagged.groupby("shard").map_groups(
        functools.partial(_pack_group, key_col=key_col, len_col=len_col,
                          max_tokens=max_tokens),
        batch_format="pyarrow")


def chunk_plan_batch(batch: pa.Table, *, max_tokens: int, stride: int,
                     key_col: str = "doc_id",
                     len_col: str = "n_tokens") -> pa.Table:
    """Sliding-window chunk plan for one batch: per doc of ``n`` tokens,
    one chunk per window start ``0, stride, 2·stride, …  < n`` with
    ``n_toks = min(max_tokens, n − start)`` (the overlapping-context
    layout used to cut long documents into model-context windows;
    ``stride == max_tokens`` degenerates to disjoint chunks).  Zero-token
    docs emit no chunks.  Fully vectorized repeat/arange expansion — the
    plan is metadata-only (``key_col`` with its input type, chunk_idx,
    start_tok, n_toks); the text/token slicing itself is a map-side
    gather at training-data export time, so no shuffle is ever needed."""
    n = batch[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = np.where(n > 0, (n + stride - 1) // stride, 0)
    doc = np.repeat(np.arange(n.size), cnt)
    idx = np.arange(doc.size, dtype=np.int64) - (np.cumsum(cnt) - cnt)[doc]
    start = idx * stride
    return pa.table({
        key_col: batch[key_col].take(pa.array(doc, pa.int64())),
        "chunk_idx": pa.array(idx, pa.int64()),
        "start_tok": pa.array(start, pa.int64()),
        "n_toks": pa.array(np.minimum(max_tokens, n[doc] - start),
                           pa.int64()),
    })


def chunk_plan(ds, max_tokens: int, stride: int | None = None, *,
               key_col: str = "doc_id", len_col: str = "n_tokens"):
    """Dataset-level sliding-window chunk plan (see
    :func:`chunk_plan_batch`) — embarrassingly parallel map_batches, no
    shuffle; at 100 TB each input block expands independently."""
    import functools as _ft
    stride = max_tokens if stride is None else stride
    return ds.map_batches(
        _ft.partial(chunk_plan_batch, max_tokens=max_tokens, stride=stride,
                    key_col=key_col, len_col=len_col),
        batch_format="pyarrow")
