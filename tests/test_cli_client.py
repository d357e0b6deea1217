"""CLI + client facade tests (service-surface analogs, api.cr/client.cr)."""

import json
import subprocess
import sys

import pytest

from search_ingest_ray.client import SearchIngest


def test_client_backfill_query_ready(ray_session, corpus_dir, tmp_path):
    si = SearchIngest(str(tmp_path / "idx"))
    assert not si.ready()
    si.backfill(corpus_dir, html_col="html", chunk_files=4,
                num_term_partitions=2)
    assert si.ready()
    d, sc = si.query("merge data", k=5)
    assert len(d) > 0
    si.reindex()
    assert not si.ready()


def test_cli_query_and_status(ray_session, corpus_dir, tmp_path):
    root = str(tmp_path / "idx2")
    si = SearchIngest(root)
    si.backfill(corpus_dir, html_col="html", chunk_files=4,
                num_term_partitions=2)
    # query + status run in-process (no ray needed for query path)
    from search_ingest_ray.cli import main
    assert main(["status", root]) == 0
    assert main(["query", root, "merge", "-k", "3"]) == 0
    assert main(["status", str(tmp_path / "nonexistent")]) == 1


def _cli_chain(tmp_path):
    """A 10-doc epoch 0 plus one delta epoch that rewrites u1 to
    "freshterm only", both applied through ``cli delta``."""
    import os
    import pyarrow as pa
    import pyarrow.parquet as pq
    from search_ingest_ray.cli import main
    base = str(tmp_path / "base")
    os.makedirs(base)
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(10)],
        "text": [f"common doc{i}" for i in range(10)],
    }), os.path.join(base, "b.parquet"))
    delta = str(tmp_path / "delta.parquet")
    pq.write_table(pa.table({
        "url": ["u1"], "text": ["freshterm only"],
        "epoch": pa.array([1], pa.int64()), "action": ["updated"],
    }), delta)
    root = str(tmp_path / "idx")
    assert main(["delta", root, "--base", base, "--epoch", "0",
                 "--analyzer", "simple", "--num-buckets", "4"]) == 0
    assert main(["delta", root, "--delta", delta, "--epoch", "1",
                 "--mode", "delta", "--analyzer", "simple",
                 "--num-buckets", "4"]) == 0
    return root


def test_cli_delta_epoch_roundtrip(ray_session, tmp_path):
    """`cli delta` applies a backfill then an incremental delta epoch."""
    from search_ingest_ray.query.multi import MultiEpochSearcher
    from search_ingest_ray.util import doc_id_hash
    ms = MultiEpochSearcher(_cli_chain(tmp_path))
    d, _ = ms.search_terms(["freshterm"], k=5)
    assert set(d.tolist()) == {doc_id_hash("u1")}


def test_cli_query_serves_the_delta_chain(ray_session, tmp_path, capsys):
    """`cli query` without --epoch answers from the whole chain: the
    updated doc's new term is found, and its old term no longer is."""
    from search_ingest_ray.cli import main
    from search_ingest_ray.util import doc_id_hash
    root = _cli_chain(tmp_path)
    capsys.readouterr()
    assert main(["query", root, "freshterm"]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [(x["rank"], x["docid"]) for x in lines] == \
        [(1, doc_id_hash("u1"))]
    assert set(lines[0]) == {"rank", "docid", "score"}
    assert main(["query", root, "doc1"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["query", root, "common", "-k", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    # a delta epoch alone holds only its delta: pinning it is refused
    with pytest.raises(ValueError, match="delta epoch"):
        main(["query", root, "freshterm", "--epoch", "1"])


def test_lang_aware_emitter():
    import pyarrow as pa
    from search_ingest_ray.stages.analyze import PostingEmitter
    batch = pa.table({
        "url": ["a", "b"],
        "text": ["Straße Café", "Straße Café"],
        "lang": ["de", "xx"],
    })
    em = PostingEmitter(lang_col="lang", lang_analyzers={"de": "standard"},
                        analyzer="simple")
    out = em(batch).to_pylist()
    terms_de = {r["term"] for r in out if r["docid"] == out[0]["docid"]}
    # de row used the standard chain (preserve_original keeps 'straße')
    assert "straße" in {r["term"] for r in out}
    # xx row fell back to the simple ASCII analyzer (no non-ascii terms)
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["docid"], set()).add(r["term"])
    docs = list(by_doc.values())
    assert any("straße" in d for d in docs)
    assert any(all(t.isascii() for t in d) for d in docs)
