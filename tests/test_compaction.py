"""Chain compaction (ES force-merge analog): rolling a full→delta→delta
chain into a new FULL epoch must (a) return bit-identical query results,
(b) tokenize nothing: the buckets touched since the LAST FULL epoch
merge the chain's kept postings and every other chunk is
hard-link-reused (manifest lineage), (c) collapse
MultiEpochSearcher to single-epoch serving, and (d) keep accepting deltas
afterwards."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.pipelines.epochs import (apply_delta_epoch,
                                                compact_chain, epoch_chain)
from search_ingest_ray.query.multi import MultiEpochSearcher
from search_ingest_ray.util import stable_partition_column

N_DOCS = 150
NB = 8
KW = dict(id_col="url", analyzer="simple", num_term_partitions=2,
          num_buckets=NB, hot_df_threshold=10**9)
QUERIES = (["tok1", "tok7"], ["tok3"], ["freshword"], ["tok12", "tok20"])


def _texts(rng, n):
    vocab = [f"tok{i}" for i in range(40)]
    return [" ".join(rng.choice(vocab, size=int(rng.integers(6, 20))))
            for _ in range(n)]


def _delta(tmp_path, name, urls, texts, epoch, actions):
    t = pa.table({
        "url": urls, "text": texts,
        "epoch": pa.array([epoch] * len(urls), pa.int64()),
        "action": actions,
    })
    p = str(tmp_path / f"{name}.parquet")
    pq.write_table(t, p)
    return p


@pytest.fixture(scope="module")
def chain_root(ray_session, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("compact")
    rng = np.random.default_rng(23)
    base = str(tmp_path / "base.parquet")
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(N_DOCS)],
        "text": _texts(rng, N_DOCS),
    }), base)
    root = str(tmp_path / "idx")
    apply_delta_epoch(root, None, 0, base_paths=[base], mode="full", **KW)
    d1 = _delta(tmp_path, "d1", ["u3", "u17", "u300"],
                ["freshword alpha", "freshword beta", "freshword gamma"],
                1, ["updated", "updated", "created"])
    apply_delta_epoch(root, [d1], 1, mode="delta", **KW)
    d2 = _delta(tmp_path, "d2", ["u5", "u3"],
                ["tok1 tok1 tok7", "x"], 2, ["updated", "deleted"])
    apply_delta_epoch(root, [d2], 2, mode="delta", **KW)
    return root, tmp_path


def _results(root):
    ms = MultiEpochSearcher(root)
    out = []
    for terms in QUERIES:
        d, sc = ms.search_terms(terms, k=20)
        out.append((terms, [int(x) for x in d],
                    [round(float(x), 10) for x in sc]))
    return out, dict(ms.stats)


def test_compaction_identity_lineage_and_continuity(chain_root):
    root, tmp_path = chain_root
    before, stats_before = _results(root)
    assert [m for _, m in epoch_chain(root)] == ["full", "delta", "delta"]

    m = compact_chain(root, **{k: v for k, v in KW.items()
                               if k not in ("num_buckets",)})
    # chain collapses to the single new full epoch
    assert epoch_chain(root) == [(3, "full")]
    after, stats_after = _results(root)
    assert after == before
    assert int(stats_after["n_docs"]) == int(stats_before["n_docs"])
    assert int(stats_after["total_tokens"]) == \
        int(stats_before["total_tokens"])

    # lineage: no chunk was tokenized — the buckets touched by d1 ∪ d2
    # merged the chain's kept postings, the rest hard-link-reused the
    # LAST FULL epoch's (e0)
    touched = {f"{b:05d}" for b in stable_partition_column(
        pa.array(["u3", "u17", "u300", "u5"]), NB).tolist()}
    reused = {cid for cid, rec in m["chunks"].items()
              if rec.get("reused_from_epoch") == 0}
    merged = {cid for cid, rec in m["chunks"].items()
              if rec.get("merged_from_epochs") == [0, 1, 2]}
    assert merged == touched
    assert reused == set(m["chunks"]) - touched
    assert "stage1_ray_stats" not in m

    # compacting an already-single-full chain is a no-op
    m2 = compact_chain(root, **{k: v for k, v in KW.items()
                                if k not in ("num_buckets",)})
    assert epoch_chain(root) == [(3, "full")]
    assert m2["epoch"] == 3

    # continuity: a delta applied on top of the compacted epoch works
    d4 = _delta(tmp_path, "d4", ["u7"], ["freshword delta"], 4, ["updated"])
    apply_delta_epoch(root, [d4], 4, mode="delta", **KW)
    ms = MultiEpochSearcher(root)
    d, _sc = ms.search_terms(["freshword"], k=20)
    from search_ingest_ray.util import doc_id_hash
    assert doc_id_hash("u7") in set(int(x) for x in d)
    assert epoch_chain(root) == [(3, "full"), (4, "delta")]
