"""Similarity search over an embedding column (``list<float>``).

- Brute-force cosine top-k: the query matrix is broadcast once via
  ``ray.put``; every batch does one numpy matmul and emits only its local
  top-k candidates, so the final exact reduce sees ≤ k×num_blocks rows —
  never the full corpus (the "broadcast small side, never shuffle the big
  side" join pattern).
- LSH-bucketed ANN (scale path): random-hyperplane signatures bucket
  vectors; queries probe only their own bucket (+ multiprobe bit flips for
  recall).  Scoring is hash-partitioned on the bucket key with
  memory-bounded blockwise matmuls — NO per-bucket pandas group and no
  unbounded per-task materialization.
- Embedding near-dup: multi-table LSH banding → (table, bucket) keys →
  hash-partitioned vectorized pair emission (same shape as the
  simhash/minhash candidates path in ``dedup.py``) → native distinct.
  The shuffle key is (table, bucket); per-partition pair work is blockwise
  gram matmuls bounded by ``block``² regardless of bucket size.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..stages.fold import _tag_partition, _PART_COL
from .dedup import _bucket_runs, _distinct_pairs


def _as_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return m / nrm


_QCACHE: dict = {}


def _topk_partial(batch: pa.Table, *, q_ref, k: int, id_col: str,
                  vec_col: str, round_to: int | None) -> pa.Table:
    key = q_ref.hex() if hasattr(q_ref, "hex") else id(q_ref)
    qn = _QCACHE.get(key)
    if qn is None:
        if len(_QCACHE) > 64:  # ref-keyed; long-lived workers must not grow unboundedly
            _QCACHE.clear()
        q = ray.get(q_ref) if not isinstance(q_ref, np.ndarray) else q_ref
        qn = _QCACHE[key] = _normalize(np.atleast_2d(np.asarray(q, dtype=np.float64)))
    m = _normalize(_as_matrix(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    sims = qn @ m.T  # (Q, B)
    if round_to is not None:
        sims = np.round(sims, round_to)
    qids_out, ids_out, cos_out = [], [], []
    kk = min(k, sims.shape[1])
    for qi in range(sims.shape[0]):
        row = sims[qi]
        # local top-k with deterministic (-cos, id) order
        idx = np.lexsort((ids, -row))[:kk]
        qids_out.append(np.full(kk, qi, dtype=np.int64))
        ids_out.append(ids[idx])
        cos_out.append(row[idx])
    return pa.table({
        "query_id": pa.array(np.concatenate(qids_out)),
        "vec_id": pa.array(np.concatenate(ids_out)),
        "cos": pa.array(np.concatenate(cos_out)),
    })


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, nbits) sign matrix into int64 bucket ids (bit i = col i)."""
    out = np.zeros(bits.shape[0], dtype=np.int64)
    for i in range(bits.shape[1]):
        out |= bits[:, i].astype(np.int64) << i
    return out


def _final_topk_group(g: pa.Table, *, k: int) -> pa.Table:
    """Arrow-native per-query exact top-k reduce over the ≤ k×blocks
    partial candidates: sort by (-cos, vec_id), head k, append rank."""
    g = g.combine_chunks()
    idx = pc.sort_indices(g, sort_keys=[("cos", "descending"),
                                        ("vec_id", "ascending")])
    g = g.take(idx.slice(0, min(k, len(idx))))
    return g.append_column(
        "rank", pa.array(np.arange(1, g.num_rows + 1, dtype=np.int64)))


def knn_cosine(ds, query_vecs, k: int = 10, id_col: str = "vec_id",
               vec_col: str = "embedding", round_to: int | None = None):
    """Exact cosine top-k per query vector.  Returns a Dataset with columns
    (query_id, vec_id, cos, rank) — k rows per query, sorted by (-cos, vec_id)."""
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    q_ref = ray.put(q)
    partial = ds.map_batches(
        _topk_partial, batch_format="pyarrow", batch_size=4096,
        fn_kwargs=dict(q_ref=q_ref, k=k, id_col=id_col, vec_col=vec_col,
                       round_to=round_to))
    return partial.groupby("query_id").map_groups(
        functools.partial(_final_topk_group, k=k), batch_format="pyarrow")


# -- embedding near-duplicate pairs (banded multi-table LSH) -----------------

_NDUP_PAIRS_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                ("cos", pa.float64())])


def _vec_list_array(flat: np.ndarray, dim: int) -> pa.Array:
    return pa.FixedSizeListArray.from_arrays(pa.array(flat, pa.float64()), dim)


_NDUP_EXPLODE_SCHEMA = pa.schema([
    ("table", pa.int32()), ("bucket", pa.int64()), ("id", pa.int64()),
    ("vec", pa.list_(pa.float64()))])
_PLANES: dict = {}


def _neardup_planes(dim: int, nbits: int, seed: int,
                    ntables: int) -> np.ndarray:
    """The (ntables, nbits, dim) hyperplanes of table t = seed + t, drawn
    once per dimension in each worker."""
    key = (dim, nbits, seed, ntables)
    planes = _PLANES.get(key)
    if planes is None:
        planes = _PLANES[key] = np.stack([_hyperplanes(dim, nbits, seed + t)
                                          for t in range(ntables)])
    return planes


def _neardup_explode(batch: pa.Table, *, nbits: int, seed: int,
                     ntables: int, id_col: str, vec_col: str) -> pa.Table:
    """doc → ``ntables`` rows (table, bucket, id, vec).  The shuffle key is
    the (table, bucket) pair — raw vectors ride along once per table, the
    heavy text/html columns never enter the exchange.  The hyperplanes
    come from the batch's vector dimension and the seed, so the caller
    need not read a row to learn the dimension."""
    if batch.num_rows == 0:
        return _NDUP_EXPLODE_SCHEMA.empty_table()
    m = _as_matrix(batch[vec_col])
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    n, dim = m.shape
    planes = _neardup_planes(dim, nbits, seed, ntables)
    tables, buckets = [], []
    for t in range(ntables):
        tables.append(np.full(n, t, dtype=np.int32))
        buckets.append(_pack_bits((m @ planes[t].T) > 0))
    # a variable-size list, so an empty batch has the same schema
    flat = pa.array(np.tile(m.ravel(), ntables), pa.float64())
    offsets = pa.array(np.arange(n * ntables + 1, dtype=np.int32) * dim)
    return pa.table({
        "table": pa.array(np.concatenate(tables), pa.int32()),
        "bucket": pa.array(np.concatenate(buckets), pa.int64()),
        "id": pa.array(np.tile(ids, ntables), pa.int64()),
        "vec": pa.ListArray.from_arrays(offsets, flat),
    })


def _neardup_pairs_partition(group: pa.Table, *, threshold: float,
                             block: int) -> pa.Table:
    """Exact-cosine pair emission for one hash partition: per multi-member
    (table, bucket) run, blockwise gram matmuls (≤ block² floats live at
    once) — bucket size bounds memory no more."""
    group, starts, ends = _bucket_runs(group, ["table", "bucket"])
    if len(starts) == 0:
        return _NDUP_PAIRS_SCHEMA.empty_table()
    ids = group["id"].to_numpy(zero_copy_only=False)
    m = _normalize(_as_matrix(group["vec"]))
    out_a, out_b, out_c = [], [], []
    for s, e in zip(starts, ends):
        uniq, first = np.unique(ids[s:e], return_index=True)
        sub = m[s:e][first]
        mlen = len(uniq)
        if mlen < 2:
            continue
        for i0 in range(0, mlen, block):
            mi = sub[i0:i0 + block]
            for j0 in range(i0, mlen, block):
                sims = mi @ sub[j0:j0 + block].T
                mask = sims >= threshold
                if i0 == j0:
                    mask &= np.triu(np.ones(sims.shape, dtype=bool), k=1)
                ii, jj = np.nonzero(mask)
                if ii.size:
                    out_a.append(uniq[i0 + ii])
                    out_b.append(uniq[j0 + jj])
                    out_c.append(sims[ii, jj])
    if not out_a:
        return _NDUP_PAIRS_SCHEMA.empty_table()
    return pa.table({"a": pa.array(np.concatenate(out_a)),
                     "b": pa.array(np.concatenate(out_b)),
                     "cos": pa.array(np.concatenate(out_c))})


def embedding_near_dup(ds, threshold: float = 0.95, id_col: str = "vec_id",
                       vec_col: str = "embedding", nbits: int = 6,
                       seed: int = 11, ntables: int = 1,
                       num_partitions: int = 32, block: int = 1024):
    """Embedding-cosine near-duplicate pairs (a < b, cos ≥ threshold).

    Scale shape (mirrors ``dedup.simhash_candidates``): ``ntables``
    independent hyperplane tables band each vector into (table, bucket)
    keys; candidate buckets are hash-partitioned and pairs are emitted by
    blockwise exact-cosine matmuls, then deduped across tables by a NATIVE
    groupby — no global buckets, no per-bucket pandas gram, no task whose
    memory grows with bucket size.  Recall is tuned by (nbits, ntables):
    grow nbits with log2(N) to keep expected bucket size flat; add tables
    to recover the recall a finer bucketing loses.  Table 0 with the same
    seed reproduces the legacy single-table bucketing exactly."""
    exploded = ds.map_batches(
        _neardup_explode, batch_format="pyarrow",
        fn_kwargs=dict(nbits=nbits, seed=seed, ntables=ntables,
                       id_col=id_col, vec_col=vec_col))
    tagged = exploded.map_batches(
        functools.partial(_tag_partition, key_cols=["table", "bucket"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    cand = tagged.groupby(_PART_COL).map_groups(
        functools.partial(_neardup_pairs_partition, threshold=threshold,
                          block=block),
        batch_format="pyarrow")
    return _distinct_pairs(cand, extra_min="cos")


# -- LSH-bucketed ANN (scale path) ------------------------------------------


def _hyperplanes(dim: int, nbits: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nbits, dim))


# -- IVF ANN (coarse-quantizer scale path) -----------------------------------


def kmeans_fit(vecs: np.ndarray, nlist: int, iters: int = 10,
               seed: int = 13) -> np.ndarray:
    """Deterministic spherical k-means (seeded init, fixed iterations) —
    the coarse quantizer for IVF.  Vectors and centroids are L2-normalized
    (cosine assignment)."""
    v = _normalize(np.asarray(vecs, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = len(v)
    k = min(nlist, n)
    # Greedy farthest-point init (deterministic k-means++ flavor): seed
    # one point, then repeatedly take the point least similar to its
    # nearest chosen centroid.  Plain random init over a skewed sample
    # can drop a whole (small, well-separated) cluster — exactly the
    # corpora the coarse quantizer exists for.
    first = int(rng.integers(n))
    chosen = [first]
    best = v @ v[first]  # cosine to nearest chosen centroid
    for _ in range(1, k):
        nxt = int(np.argmin(best))
        chosen.append(nxt)
        best = np.maximum(best, v @ v[nxt])
    cent = v[chosen].copy()
    for _ in range(iters):
        assign = np.argmax(v @ cent.T, axis=1)
        new = np.zeros_like(cent)
        np.add.at(new, assign, v)
        counts = np.bincount(assign, minlength=len(cent))
        empty = counts == 0
        new[empty] = cent[empty]  # keep empty clusters stable
        cent = _normalize(new)
    return cent


def ivf_fit(ds, nlist: int = 16, sample: int = 4096,
            vec_col: str = "embedding", iters: int = 10,
            seed: int = 13) -> np.ndarray:
    """Fit the coarse quantizer on a bounded UNIFORM sample (the
    10^12-scale path trains on a sample, never the full corpus).

    Sampling is a seeded Bernoulli ``random_sample`` over the stream —
    NOT ``limit()``, which takes the first blocks: on a corpus sorted or
    clustered by source, the head is one cluster and the quantizer it
    trains is biased (every other cluster lands in one catch-all list,
    destroying the pruned-probe story).  ``count()`` on a parquet read is
    metadata-only.  The Bernoulli draw overshoots ``sample`` slightly
    (bounded: ~1.05×); the trim back down is a seeded uniform choice over
    the materialized sample, never a stream ``limit`` (which would cut
    the sampled TAIL and re-introduce the head bias)."""
    n = ds.count()
    if n > sample:
        ds = ds.random_sample(min(1.0, 1.05 * sample / n), seed=seed)
    rows = ds.take_all()
    vecs = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in rows])
    if len(vecs) > sample:
        idx = np.random.default_rng(seed).choice(len(vecs), size=sample,
                                                 replace=False)
        vecs = vecs[np.sort(idx)]
    return kmeans_fit(vecs, nlist, iters=iters, seed=seed)


_CENT_CACHE: dict = {}


def _ivf_assign_batch(batch: pa.Table, *, cent_ref,
                      vec_col: str) -> pa.Table:
    key = cent_ref.hex() if hasattr(cent_ref, "hex") else id(cent_ref)
    cent = _CENT_CACHE.get(key)
    if cent is None:
        if len(_CENT_CACHE) > 64:
            _CENT_CACHE.clear()
        cent = _CENT_CACHE[key] = ray.get(cent_ref) \
            if not isinstance(cent_ref, np.ndarray) else cent_ref
    m = _normalize(_as_matrix(batch[vec_col]))
    assign = np.argmax(m @ cent.T, axis=1).astype(np.int32)
    return batch.append_column("ivf_list", pa.array(assign))


def ivf_assign(ds, centroids: np.ndarray, vec_col: str = "embedding"):
    """Add the ``ivf_list`` column (nearest centroid per vector).  Persist
    with ``write_parquet(..., partition_cols=['ivf_list'])`` to make probes
    a partition-pruned read at scale."""
    cent_ref = ray.put(centroids)
    return ds.map_batches(_ivf_assign_batch, batch_format="pyarrow",
                          fn_kwargs=dict(cent_ref=cent_ref, vec_col=vec_col))


def _ivf_topk_partial(batch: pa.Table, *, q_ref, probe_ref, k: int,
                      id_col: str, vec_col: str) -> pa.Table:
    """Per-batch partial top-k with PER-QUERY probe masks: a query scores a
    row only if the row's ivf_list is among that query's probed lists."""
    key = (q_ref.hex() if hasattr(q_ref, "hex") else id(q_ref))
    ent = _QCACHE.get(("ivf", key))
    if ent is None:
        if len(_QCACHE) > 64:
            _QCACHE.clear()
        qn = _normalize(np.atleast_2d(np.asarray(ray.get(q_ref), np.float64)))
        probes = ray.get(probe_ref)  # (Q, nprobe) int32
        ent = _QCACHE[("ivf", key)] = (qn, probes)
    qn, probes = ent
    m = _normalize(_as_matrix(batch[vec_col]))
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    lists = batch["ivf_list"].to_numpy()
    sims = qn @ m.T  # (Q, B)
    # mask out rows not in the query's probe set
    allowed = (probes[:, :, None] == lists[None, None, :]).any(axis=1)
    sims = np.where(allowed, sims, -np.inf)
    qids_out, ids_out, cos_out = [], [], []
    for qi in range(sims.shape[0]):
        row = sims[qi]
        ok = np.flatnonzero(row > -np.inf)
        if ok.size == 0:
            continue
        kk = min(k, ok.size)
        idx = ok[np.lexsort((ids[ok], -row[ok]))[:kk]]
        qids_out.append(np.full(kk, qi, dtype=np.int64))
        ids_out.append(ids[idx])
        cos_out.append(row[idx])
    if not qids_out:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64()),
                         "cos": pa.array([], pa.float64())})
    return pa.table({
        "query_id": pa.array(np.concatenate(qids_out)),
        "vec_id": pa.array(np.concatenate(ids_out)),
        "cos": pa.array(np.concatenate(cos_out)),
    })


def ann_ivf(ds, query_vecs, k: int = 10, nlist: int = 16, nprobe: int = 2,
            id_col: str = "vec_id", vec_col: str = "embedding",
            sample: int = 4096, iters: int = 10, seed: int = 13,
            centroids: np.ndarray | None = None):
    """IVF approximate top-k: train a spherical-k-means coarse quantizer on
    a sample, assign vectors to inverted lists, probe only each query's
    ``nprobe`` nearest lists with exact cosine inside.

    ``nprobe == nlist`` degrades to EXACT brute force (verified against
    ``knn_cosine`` in tests) — recall is tuned by nprobe.  Scale shape: at
    10^12 vectors the assigned dataset is written partitioned by
    ``ivf_list`` so a probe reads only ~nprobe/nlist of the data; here the
    probe filter is an ``is_in`` mask over the streamed batches."""
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    cent = centroids if centroids is not None else \
        ivf_fit(ds, nlist=nlist, sample=sample, vec_col=vec_col,
                iters=iters, seed=seed)
    assigned = ivf_assign(ds, cent, vec_col=vec_col)
    qn = _normalize(q)
    order = np.argsort(-(qn @ cent.T), axis=1, kind="stable")
    probes = order[:, :min(nprobe, len(cent))].astype(np.int32)
    wanted = pa.array(sorted(set(probes.ravel().tolist())), pa.int32())

    def keep_probed(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.is_in(t["ivf_list"], value_set=wanted))

    cand = assigned.map_batches(keep_probed, batch_format="pyarrow")
    q_ref = ray.put(q)
    probe_ref = ray.put(probes)
    partial = cand.map_batches(
        _ivf_topk_partial, batch_format="pyarrow", batch_size=4096,
        fn_kwargs=dict(q_ref=q_ref, probe_ref=probe_ref, k=k,
                       id_col=id_col, vec_col=vec_col))
    return partial.groupby("query_id").map_groups(
        functools.partial(_final_topk_group, k=k), batch_format="pyarrow")


# -- LSH ANN with multiprobe (scale path) ------------------------------------

_ANN_PARTIAL_SCHEMA = pa.schema([("query_id", pa.int64()),
                                 ("vec_id", pa.int64()),
                                 ("cos", pa.float64())])


def _ann_prepare(batch: pa.Table, *, planes: np.ndarray, wanted: np.ndarray,
                 id_col: str, vec_col: str) -> pa.Table:
    """Fused bucket + probe-filter + project: emits (bucket, id, vec) only
    for rows landing in a probed bucket — everything else is dropped before
    the exchange, so the shuffle moves ~(probed buckets / 2^nbits) of the
    data."""
    dim = planes.shape[1]
    if batch.num_rows == 0:
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "id": pa.array([], pa.int64()),
                         "vec": _vec_list_array(np.empty(0, np.float64), dim)})
    m = _as_matrix(batch[vec_col])
    b = _pack_bits((m @ planes.T) > 0)
    keep = np.isin(b, wanted)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({"bucket": pa.array(b[keep]),
                     "id": pa.array(ids[keep]),
                     "vec": _vec_list_array(m[keep].ravel(), m.shape[1])})


def _ann_score_partition(group: pa.Table, *, q_norm: np.ndarray,
                         bucket2q: dict, k: int, block: int) -> pa.Table:
    """Score one hash partition: per bucket run, matmul the probing queries
    against the run's vectors in ``block``-row slices, emitting each
    block's local top-k — the global per-query reduce merges them.  Memory
    per task ≤ Q×block floats no matter how large a bucket grows."""
    group, starts, ends = _bucket_runs(group, ["bucket"], min_size=1)
    if len(starts) == 0:
        return _ANN_PARTIAL_SCHEMA.empty_table()
    ids = group["id"].to_numpy(zero_copy_only=False)
    buckets = group["bucket"].to_numpy(zero_copy_only=False)
    m = _normalize(_as_matrix(group["vec"]))
    out_q, out_v, out_c = [], [], []
    for s, e in zip(starts, ends):
        qidx = bucket2q.get(int(buckets[s]))
        if not qidx:
            continue
        qsub = q_norm[qidx]
        for i0 in range(s, e, block):
            sl = slice(i0, min(i0 + block, e))
            sims = qsub @ m[sl].T      # (Qb, ≤block)
            bids = ids[sl]
            kk = min(k, sims.shape[1])
            for row_i, qi in enumerate(qidx):
                row = sims[row_i]
                idx = np.lexsort((bids, -row))[:kk]
                out_q.append(np.full(kk, qi, dtype=np.int64))
                out_v.append(bids[idx])
                out_c.append(row[idx])
    if not out_q:
        return _ANN_PARTIAL_SCHEMA.empty_table()
    return pa.table({"query_id": pa.array(np.concatenate(out_q)),
                     "vec_id": pa.array(np.concatenate(out_v)),
                     "cos": pa.array(np.concatenate(out_c))})


def ann_lsh(ds, query_vecs, k: int = 10, nbits: int = 8, id_col: str = "vec_id",
            vec_col: str = "embedding", seed: int = 11, multiprobe: int = 1,
            num_partitions: int = 32, block: int = 4096):
    """Approximate top-k: probe each query's own LSH bucket plus its
    ``multiprobe`` nearest neighbor buckets (flip the lowest-|margin| bits
    — the hyperplanes the query sits closest to, hence the most likely
    sign flips of its true neighbors).

    Scale shape: candidates are hash-partitioned on the bucket key and
    scored with blockwise matmuls (no per-bucket pandas group, no task
    memory proportional to bucket size); the per-query exact reduce sees
    ≤ k × scored-blocks rows.  Partitioning assumption (SURVEY §2.2):
    recall depends on (nbits, multiprobe) and data distribution — the
    brute-force `knn_cosine` is the correctness baseline."""
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    planes = _hyperplanes(q.shape[1], nbits, seed)
    qn = _normalize(q)
    margins = qn @ planes.T                      # (Q, nbits) signed distances
    qbuckets = _pack_bits(margins > 0)
    bucket2q: dict[int, list[int]] = {}
    flip_order = np.argsort(np.abs(margins), axis=1, kind="stable")
    for qi in range(len(q)):
        probes = [int(qbuckets[qi])]
        for j in range(min(multiprobe, nbits)):
            probes.append(int(qbuckets[qi]) ^ (1 << int(flip_order[qi, j])))
        for b in probes:
            bucket2q.setdefault(b, [])
            if qi not in bucket2q[b]:
                bucket2q[b].append(qi)
    wanted = np.array(sorted(bucket2q), dtype=np.int64)
    cand = ds.map_batches(
        _ann_prepare, batch_format="pyarrow",
        fn_kwargs=dict(planes=planes, wanted=wanted, id_col=id_col,
                       vec_col=vec_col))
    tagged = cand.map_batches(
        functools.partial(_tag_partition, key_cols=["bucket"],
                          num_partitions=num_partitions),
        batch_format="pyarrow")
    partial = tagged.groupby(_PART_COL).map_groups(
        functools.partial(_ann_score_partition, q_norm=qn, bucket2q=bucket2q,
                          k=k, block=block),
        batch_format="pyarrow")
    return partial.groupby("query_id").map_groups(
        functools.partial(_final_topk_group, k=k), batch_format="pyarrow")


# -- SemDeDup-style semantic dedup (cluster-partitioned) -----------------------

def _semdedup_partition(group: pa.Table, *, threshold: float, block: int,
                        id_col: str, vec_col: str) -> pa.Table:
    """Per-cluster shadowing dedup: sort by id, drop a row iff some
    LOWER-id row in the same cluster has cosine ≥ threshold with it
    (survival of the earlier row is irrelevant — one deterministic
    pass, no chained-suppression ambiguity).  Blockwise grams keep live
    memory ≤ block² floats regardless of cluster size."""
    if group.num_rows == 0:
        return group.drop_columns(["ivf_list"])
    group = group.combine_chunks()
    ids = group[id_col].to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    group = group.take(pa.array(order))
    ids = ids[order]
    m = _normalize(_as_matrix(group[vec_col]))
    n = len(ids)
    drop = np.zeros(n, dtype=bool)
    for i0 in range(0, n, block):
        mi = m[i0:i0 + block]
        for j0 in range(0, i0 + len(mi), block):
            sims = mi @ m[j0:j0 + block].T
            mask = sims >= threshold
            if j0 == i0:
                # earlier rows only: strict lower triangle
                mask &= np.tri(*sims.shape, k=-1, dtype=bool)
            elif j0 > i0:
                break
            drop[i0:i0 + len(mi)] |= mask.any(axis=1)
    return group.filter(pa.array(~drop)).drop_columns(["ivf_list"])


def semantic_dedup(ds, threshold: float = 0.95, *, id_col: str = "vec_id",
                   vec_col: str = "embedding", nlist: int = 16,
                   sample: int = 4096, seed: int = 13, block: int = 1024):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding space with a sampled spherical k-means coarse quantizer,
    then deduplicate WITHIN each cluster by cosine threshold — the
    cluster partition turns an O(N²) global gram into Σ O(|cluster|²)
    local ones, and at scale each cluster is an independent partition
    task (``ivf_list`` is the partition key; a hive-partitioned parquet
    layout makes re-runs per-cluster resumable).

    Keep rule (deterministic, documented deviation from the paper's
    farthest-from-centroid tie-break): the LOWEST id among near-dups
    survives — a row is dropped iff a lower-id row in its cluster is
    ≥ threshold similar.  Approximate BY DESIGN across clusters: a
    near-dup pair split by the quantizer is not seen (the paper accepts
    the same trade; raise nlist accuracy with ``sample``/``iters``, or
    catch stragglers with ``embedding_near_dup``'s multi-table LSH).

    Returns the surviving rows with original columns."""
    cents = ivf_fit(ds, nlist=nlist, sample=sample, vec_col=vec_col,
                    seed=seed)
    assigned = ivf_assign(ds, cents, vec_col=vec_col)
    return assigned.groupby("ivf_list").map_groups(
        functools.partial(_semdedup_partition, threshold=threshold,
                          block=block, id_col=id_col, vec_col=vec_col),
        batch_format="pyarrow")
