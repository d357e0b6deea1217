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
