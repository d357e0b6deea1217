"""Scatter-gather sharded query serving over the term-partitioned index.

:class:`ServePool` (serve.py) replicates the FULL index view into every
actor — right for QPS fan-out on an index that fits one node, wrong at
10^12 docs where a single dictionary no longer fits in one worker's heap.
This module is the multi-node shape for a TERM-partitioned index:

- one :class:`PartitionShard` actor per term partition, holding ONLY that
  partition's term dictionary (vocab / P entries) and an mmap of its
  postings file — per-actor memory is bounded by the partition, and P
  scales out with the corpus;
- a :class:`ShardedSearcher` coordinator that routes each query term to
  the shard(s) owning it (the same ``term_partition`` hash the build
  used; a salted hot term owns up to S shards) and gathers raw posting
  rows over the object store.

``ShardedSearcher`` subclasses :class:`Searcher` and overrides ONLY the
lookup/vocab-scan layer, so every scoring path — two-phase MaxScore
(``search_terms``), bool/disjunction micro scoring, phrases, filters,
aggregations — runs unchanged on the coordinator against gathered rows.

What crosses the wire is the posting rows a query actually touches
(blobs move zero-copy through the object store), and the coordinator's
per-term cache (inherited from ``Searcher``) keeps hot query terms from
being re-fetched: steady-state traffic is the cold-term tail.  Dictionary
expansions (prefix/fuzzy/wildcard) run SHARD-SIDE over each partition's
sorted dictionary and return only (term, df) pairs — the scan
parallelizes across shards instead of looping over partitions locally.

At real multi-node scale the remaining step is placement: spread shard
actors across nodes (``scheduling_strategy="SPREAD"``) so the aggregate
dictionary lives in aggregate cluster memory.  Document-partitioned
serving (every shard scores its own docs, coordinator merges top-k) is
the classic alternative; term partitioning was chosen by the build for
posting-list locality, and scatter-gather keeps serving consistent with
that layout without a second index.
"""

from __future__ import annotations

from ..util import term_partition
from .searcher import Searcher


def _shard_cls():
    import ray

    # max_restarts/max_task_retries: a shard is a PURE READER of an
    # immutable on-disk partition, so a lost actor (node failure at
    # cluster scale) is rebuilt from its index_root and the in-flight
    # call retries transparently — serving self-heals instead of
    # surfacing RayActorError to every query touching that partition.
    # num_cpus=0: a shard only answers the coordinator's lookups, so it
    # reserves no CPU, and all P shards place in a session of any size.
    @ray.remote(num_cpus=0, max_restarts=4, max_task_retries=4)
    class _PartitionShard:
        """Owns one term partition: its dictionary (in memory) + postings
        mmap.  The Searcher inside loads ONLY ``tpart`` — `_part` is
        called for no other partition, which a test asserts."""

        def __init__(self, index_root: str, tpart: int, epoch: int = 0):
            self._s = Searcher(index_root, epoch=epoch)
            self.tpart = tpart
            self._s._part(tpart)  # eager: dictionary resident at startup

        def get_rows(self, terms: list[str]) -> dict:
            """Raw posting rows (term dict metadata + blob bytes) for the
            terms of this partition that exist here."""
            ent = self._s._part(self.tpart)
            if ent is None:
                return {}
            out = {}
            for t in terms:
                rows = self._s._rows_for(ent, t)
                if rows:
                    out[t] = rows
            return out

        def expand(self, kind: str, arg, k: int) -> list[tuple[str, int]]:
            """Shard-local dictionary expansion: top-k (term, df) of THIS
            partition's dictionary for a prefix / fuzzy / wildcard probe
            (never touches another partition).  Per-shard top-k is safe to
            merge: the coordinator re-ranks the union, and a term outside
            its shard's local top-k cannot enter the global top-k (df is
            the exact global df on every sub-list).  Predicates and the
            merge are the SAME code the local scan uses
            (:func:`searcher.expansion_pairs` / ``merge_expansion``), so
            local and sharded serving cannot drift."""
            from .searcher import expansion_pairs, merge_expansion
            ent = self._s._part(self.tpart)
            if ent is None:
                return []
            tbl = ent[0]
            pairs = expansion_pairs(
                tbl["term"].to_numpy(zero_copy_only=False),
                tbl["df"].to_numpy(), kind, arg)
            return merge_expansion([pairs], k)

        def get_dfs(self, terms: list[str]) -> dict[str, int]:
            """Dictionary-only exact global df for the given terms of this
            partition (absent terms omitted) — the shard half of the
            coordinator's ``_dfs_of``; no posting blobs cross the wire."""
            ent = self._s._part(self.tpart)
            if ent is None:
                return {}
            tbl, tcol, _ = ent
            out = {}
            from .searcher import term_row_range
            for t in terms:
                best = 0
                for i in range(*term_row_range(tcol, t)):
                    d = tbl["df"][i].as_py()
                    if d > best:
                        best = int(d)
                if best:
                    out[t] = best
            return out

        def loaded_partitions(self) -> list[int]:
            return [tp for tp, ent in self._s._parts.items()
                    if ent is not None]

    return _PartitionShard


class ShardedSearcher(Searcher):
    """Coordinator: a :class:`Searcher` whose term lookups scatter to
    per-partition shard actors and gather over the object store.  All
    scoring/aggregation code paths are inherited unchanged."""

    def __init__(self, index_root: str, epoch: int = 0):
        super().__init__(index_root, epoch=epoch)
        index_root = self.index_root  # alias resolved ONCE; shards pinned
        cls = _shard_cls()
        # one actor per term partition; SPREAD so a multi-node cluster
        # spreads dictionary memory instead of stacking one node
        import ray
        strategy = "SPREAD" if len(ray.nodes()) > 1 else "DEFAULT"
        self._shards = {
            tp: cls.options(scheduling_strategy=strategy).remote(
                index_root, tp, epoch)
            for tp in range(self.P)
        }

    def warm(self) -> int:
        """Warm the SHARD actors, not the coordinator: the inherited
        ``warm()`` would load every partition's dictionary into this one
        process — exactly the aggregate-memory footprint the sharded shape
        exists to avoid.  Shards load their dictionary eagerly in
        ``__init__``; this just blocks until each is up and counts the
        ones holding a partition."""
        import ray
        loaded = ray.get([s.loaded_partitions.remote()
                          for s in self._shards.values()])
        return sum(1 for lst in loaded if lst)

    # -- distributed lookup --------------------------------------------------

    def _dfs_of(self, terms: list[str]) -> dict[str, int]:
        """Bulk exact-df lookup as one parallel shard gather (the local
        implementation would call ``self._part`` per partition, pulling
        every dictionary into the coordinator)."""
        import ray
        by_tpart: dict[int, list[str]] = {}
        for t in terms:
            parts = ([term_partition(t, self.P, salt=s)
                      for s in range(self.S)]
                     if t in self.hot else [term_partition(t, self.P)])
            for tp in dict.fromkeys(parts):
                by_tpart.setdefault(tp, []).append(t)
        tps = list(by_tpart)
        replies = ray.get([self._shards[tp].get_dfs.remote(by_tpart[tp])
                           for tp in tps])
        out = {t: 0 for t in terms}
        for reply in replies:
            for t, df in reply.items():
                if df > out[t]:
                    out[t] = df
        return out

    def df_of(self, term: str) -> int:
        return self._dfs_of([term]).get(term, 0)

    def _lookup(self, terms: list[str]) -> dict[str, list[dict]]:
        cached = {t: self._term_cache[t] for t in terms
                  if t in self._term_cache}
        terms = [t for t in terms if t not in cached]
        if not terms:
            return cached
        import ray
        by_tpart: dict[int, list[str]] = {}
        for t in terms:
            parts = ([term_partition(t, self.P, salt=s)
                      for s in range(self.S)]
                     if t in self.hot else [term_partition(t, self.P)])
            for tp in dict.fromkeys(parts):
                by_tpart.setdefault(tp, []).append(t)
        tps = list(by_tpart)
        replies = ray.get([self._shards[tp].get_rows.remote(by_tpart[tp])
                           for tp in tps])  # one parallel gather
        out: dict[str, list[dict]] = {t: [] for t in terms}
        for reply in replies:
            for t, rows in reply.items():
                out[t].extend(rows)
        if len(self._term_cache) < self._term_cache_cap:
            self._term_cache.update(out)
        out.update(cached)
        return out

    # -- distributed dictionary expansions -----------------------------------

    def _vocab_agg(self, kind: str, arg, k: int = 10):
        """Dictionary scans scatter to the shards (suggest / fuzzy_terms /
        wildcard_terms inherit from Searcher and route through here)."""
        import ray

        from .searcher import merge_expansion
        per = ray.get([s.expand.remote(kind, arg, k)
                       for s in self._shards.values()])
        return merge_expansion(per, k)

    def shard_loaded_partitions(self) -> dict[int, list[int]]:
        """For tests: which partitions each shard actor actually loaded."""
        import ray
        return {tp: ray.get(s.loaded_partitions.remote())
                for tp, s in self._shards.items()}
