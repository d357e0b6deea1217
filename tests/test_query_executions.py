"""A driver query runs its Ray Data plan once per call, whatever way the
caller reads the result: ``queries()`` returns each lazy result
materialized, so ``to_arrow_refs`` (which on a lazy plan runs it, then
runs it again for ``schema()``), ``take_all``, ``to_pandas`` and
``count`` read the one snapshot."""

import json

import numpy as np
import pyarrow as pa
import pytest
import ray

HYGIENE = ["token_count", "quality", "gopher_rules", "repetition"]


def _rows(rows) -> list[str]:
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)


@pytest.mark.parametrize("name", HYGIENE)
def test_hygiene_query_runs_its_plan_once(ray_session, sf_dir, ray_counts,
                                          name):
    import __ray_entry__ as e
    fn = e.queries()[name]
    res = fn(sf_dir)
    got = pa.concat_tables(ray.get(res.to_arrow_refs()))
    assert ray_counts["executions"] == 1
    # every other read of the result reads the same snapshot
    assert res.count() == got.num_rows == len(res.take_all())
    assert len(res.to_pandas()) == got.num_rows
    assert ray_counts["executions"] == 1
    assert _rows(got.to_pylist()) == _rows(fn.__wrapped__(sf_dir).take_all())


def test_corpus_stats_runs_its_plan_once(ray_session, sf_dir, ray_counts):
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from search_ingest_ray.functions.textstats import token_count_batch
    t = e.queries()["corpus_stats"](sf_dir)
    assert ray_counts["executions"] == 1
    docs = pq.read_table(f"{sf_dir}/documents.parquet")
    total = int(token_count_batch(docs)["n_tokens"].to_numpy().sum())
    assert t.to_pylist() == [{
        "n_docs": docs.num_rows, "total_tokens": total,
        "avgdl_micro": int(np.floor(total / docs.num_rows * 1e6))}]


def test_embedding_near_dup_runs_its_plan_once(ray_session, sf_dir,
                                               ray_counts):
    """The hyperplanes come from each batch's vector dimension, so no
    execution runs only to read one row; the pairs equal an in-process
    reference: vectors in the same 2-bit bucket with cos ≥ 0.35."""
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from search_ingest_ray.functions.similarity import (_hyperplanes,
                                                        _normalize,
                                                        _pack_bits)
    res = e.queries()["embedding_near_dup"](sf_dir)
    got = pa.concat_tables(ray.get(res.to_arrow_refs()))
    assert ray_counts["executions"] == 1
    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = t["vec_id"].to_numpy()
    bucket = _pack_bits((m @ _hyperplanes(m.shape[1], 2, 11).T) > 0)
    nm = _normalize(m)
    cos = nm @ nm.T
    i, j = np.nonzero((bucket[:, None] == bucket[None, :])
                      & (cos >= 0.35) & (ids[:, None] < ids[None, :]))
    want = sorted(zip(ids[i].tolist(), ids[j].tolist()))
    assert want
    rows = sorted(zip(got["a"].to_pylist(), got["b"].to_pylist(),
                      got["cos"].to_pylist()))
    assert [(a, b) for a, b, _ in rows] == want
    np.testing.assert_allclose([c for _, _, c in rows],
                               [cos[x, y] for x, y in sorted(
                                   zip(i.tolist(), j.tolist()),
                                   key=lambda p: (ids[p[0]], ids[p[1]]))])
