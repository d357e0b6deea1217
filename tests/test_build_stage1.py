"""Stage 1 of ``build_index`` tokenizes every pending chunk in one Ray Data
execution.  These tests pin the execution count of a build, on the term
exchange and on the one-task stage 2 of a small build, and check that
each chunk's postings, docvalues and manifest record equal an in-process
reference: ``_emit(extract_batch(...))`` and ``_fields_batch`` run directly
on that chunk's input files."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.corpus import generate_pages
from search_ingest_ray.index import build
from search_ingest_ray.pipelines.epochs import (apply_delta_epoch,
                                                compact_chain, epoch_chain)


def _pages(d, n_files=4, per=60, seed=3):
    os.makedirs(d, exist_ok=True)
    paths = []
    for i in range(n_files):
        t = generate_pages(per, seed=seed, start=i * per)
        t = t.append_column("doc_id", pa.array(
            np.arange(i * per, (i + 1) * per), pa.int64()))
        p = os.path.join(d, f"p{i}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths


def test_build_runs_three_executions_and_four_with_hot_terms(
        ray_session, tmp_path, monkeypatch, ray_counts):
    """On the term exchange (the one-task bound set to 0)."""
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    files = _pages(str(tmp_path / "in"))
    kw = dict(html_col="html", chunk_files=1, num_term_partitions=2,
              store_fields=["lang"])
    m = build.build_index(files, str(tmp_path / "a"), **kw)
    assert len(m["chunks"]) == 4
    # stage 1, spill, segments: the default threshold (10,000) cannot be
    # reached by 240 docs, so no hot-term candidate pass runs
    assert ray_counts["executions"] == 3
    assert m["stats"]["hot_terms"] == {}
    assert {"stage1_s", "stats_and_hot_s", "spill_s",
            "segments_s"} <= set(m["stage_walls"])
    assert "ReadParquet" in m["stage1_ray_stats"]
    ray_counts["executions"] = 0
    m = build.build_index(files, str(tmp_path / "b"), hot_df_threshold=20,
                          hot_salt=2, **kw)
    assert ray_counts["executions"] == 4
    assert m["stats"]["hot_terms"]


def test_chain_epoch0_runs_four_executions_and_compaction_two(
        ray_session, tmp_path, monkeypatch, ray_counts):
    """On the term exchange (the one-task bound set to 0): the
    compaction merges its touched buckets' postings and runs only the
    spill and segment executions."""
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    _assert_chain_executions(tmp_path, ray_counts, epoch0=4, compaction=2)


def test_small_build_runs_one_execution_and_two_with_hot_terms(
        ray_session, tmp_path, ray_counts):
    """Below the one-task bound stage 2 is one Ray task: no spill or
    segment execution."""
    files = _pages(str(tmp_path / "in"))
    kw = dict(html_col="html", chunk_files=1, num_term_partitions=2,
              store_fields=["lang"])
    m = build.build_index(files, str(tmp_path / "a"), **kw)
    assert len(m["chunks"]) == 4
    assert ray_counts["executions"] == 1
    assert m["exchange"] == {"mode": "task", "dir": None, "contract": None}
    assert {"stage1_s", "stats_and_hot_s", "segments_s"} <= \
        set(m["stage_walls"])
    assert m["stage_walls"]["spill_s"] == 0.0
    assert not os.path.exists(os.path.join(build.epoch_dir(
        str(tmp_path / "a"), 0), "exchange"))
    ray_counts["executions"] = 0
    m = build.build_index(files, str(tmp_path / "b"), hot_df_threshold=20,
                          hot_salt=2, **kw)
    assert ray_counts["executions"] == 2  # stage 1 + the hot-term candidates
    assert m["stats"]["hot_terms"]


def test_small_chain_epoch0_runs_two_executions_and_compaction_none(
        ray_session, tmp_path, ray_counts):
    _assert_chain_executions(tmp_path, ray_counts, epoch0=2, compaction=0)


def _assert_chain_executions(tmp_path, counts, *, epoch0, compaction):
    files = _pages(str(tmp_path / "in"), n_files=1, per=200)
    kw = dict(id_col="url", html_col="html", analyzer="standard",
              store_fields=["lang"], num_buckets=4)
    root = str(tmp_path / "chain")
    apply_delta_epoch(root, None, 0, base_paths=files, **kw)
    assert counts["executions"] == epoch0  # snapshot write + the build's
    base = pq.read_table(files[0])
    for epoch in (1, 2):
        upd = base.slice(10 * epoch, 5) \
            .append_column("epoch", pa.array([epoch] * 5, pa.int64())) \
            .append_column("action", pa.array(["updated"] * 5))
        p = str(tmp_path / f"d{epoch}.parquet")
        pq.write_table(upd, p)
        apply_delta_epoch(root, [p], epoch, mode="delta", **kw)
    counts["executions"] = 0
    m = compact_chain(root, **{k: v for k, v in kw.items()
                               if k != "num_buckets"})
    assert counts["executions"] == compaction
    assert epoch_chain(root) == [(3, "full")]
    # no chunk was tokenized: each is merged or re-linked
    assert "stage1_ray_stats" not in m
    assert all("merged_from_epochs" in r or "reused_from_epoch" in r
               for r in m["chunks"].values())
    assert {"merge_s", "stage1_s"} <= set(m["stage_walls"])


def _chunk_tables(d: str) -> pa.Table | None:
    """Every Parquet file under ``d``, with an ``fshard=S`` directory as a
    column."""
    parts = []
    for r, _, fs in os.walk(d):
        for f in fs:
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(r, f))
                base = os.path.basename(r)
                if base.startswith("fshard="):
                    t = t.append_column("fshard", pa.array(
                        [int(base.split("=")[1])] * t.num_rows, pa.int32()))
                parts.append(t)
    return pa.concat_tables(parts) if parts else None


def _sorted_rows(t: pa.Table, keys) -> list[dict]:
    return t.take(pc.sort_indices(
        t, [(k, "ascending") for k in keys])).to_pylist()


def _assert_chunks_match_reference(ed, chunks, *, id_col, id_is_int, html_col,
                                   text_col, with_positions, store_fields,
                                   field_shards, analyzer="standard"):
    m = build.read_json(os.path.join(ed, "manifest.json"))
    for ci, files in enumerate(chunks):
        cid = f"{ci:05d}"
        rec = m["chunks"][cid]
        got_posts = _chunk_tables(os.path.join(ed, "postings", f"chunk={cid}"))
        got_fields = _chunk_tables(os.path.join(ed, "fields", f"chunk={cid}"))
        if not files:
            assert (rec["rows"], rec["tokens"]) == (0, 0)
            assert got_posts is None and got_fields is None
            continue
        src = pa.concat_tables(pq.read_table(f) for f in files)
        text = src.select([id_col, html_col or text_col])
        if html_col:
            text = build.extract_batch(text)
        ref = build._emit(text, text_col=text_col, id_col=id_col,
                          id_is_int=id_is_int, analyzer=analyzer,
                          with_positions=with_positions)
        assert rec["rows"] == src.num_rows
        assert rec["tokens"] == pc.sum(ref["tf"]).as_py()
        assert got_posts.schema == ref.schema
        assert _sorted_rows(got_posts, ["term", "docid"]) == \
            _sorted_rows(ref, ["term", "docid"])
        ref_f = build._fields_batch(
            src.select(list(dict.fromkeys([id_col] + store_fields))),
            id_col=id_col, id_is_int=id_is_int, store_fields=store_fields,
            field_shards=field_shards)
        assert _sorted_rows(got_fields.select(ref_f.column_names),
                            ["docid"]) == _sorted_rows(ref_f, ["docid"])


@pytest.mark.parametrize("case", [
    dict(id_col="url", id_is_int=False, html_col="html", text_col="text",
         with_positions=False),
    dict(id_col="doc_id", id_is_int=True, html_col=None, text_col="text",
         with_positions=True),
])
def test_stage1_chunks_equal_in_process_reference(ray_session, tmp_path,
                                                  case):
    files = _pages(str(tmp_path / "in"), n_files=5, per=40)
    if case["id_is_int"]:
        # a keyless row (counted in rows, no postings or docvalues) and an
        # empty text in the same chunk
        t = pq.read_table(files[4])
        ids = t["doc_id"].to_pylist()
        texts = t["text"].to_pylist()
        ids[0], texts[1] = None, ""
        t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id",
                         pa.array(ids, pa.int64()))
        t = t.set_column(t.schema.get_field_index("text"), "text",
                         pa.array(texts))
        pq.write_table(t, files[4])
    kw = dict(num_term_partitions=2, store_fields=["lang"], field_shards=4,
              **case)
    root = str(tmp_path / "idx")
    # epoch 0 holds the chunk that epoch 1 re-links by fingerprint
    build.build_index([[files[0]], [files[1]]], root, epoch=0,
                      chunk_fingerprints=["a", "b"], **kw)
    chunks = [[files[0]], [], [files[2], files[3]], [files[4]]]
    m = build.build_index(chunks, root, epoch=1, reuse_from_epoch=0,
                          chunk_fingerprints=["a", "e", "c", "d"], **kw)
    assert m["chunks"]["00000"]["reused_from_epoch"] == 0
    assert {c for c, r in m["chunks"].items()
            if "reused_from_epoch" not in r} == {"00001", "00002", "00003"}
    case = {k: v for k, v in case.items() if k != "id_col"}
    _assert_chunks_match_reference(
        build.epoch_dir(root, 1), chunks, id_col=kw["id_col"],
        store_fields=["lang"], field_shards=4, **case)
    n_docs = sum(pq.read_metadata(f).num_rows for c in chunks for f in c)
    assert m["stats"]["n_docs"] == n_docs


def test_stage1_files_are_named_by_content(tmp_path):
    """A re-run of the same batch replaces its own files."""
    t = generate_pages(30, seed=5, start=0)
    p = str(tmp_path / "p.parquet")
    pq.write_table(t, p)
    batch = pq.read_table(p, columns=["url", "text", "lang"])
    batch = batch.append_column("path", pa.array([p] * batch.num_rows))
    kw = dict(chunk_of={p: "00000"}, postings_dir=str(tmp_path / "post"),
              fields_dir=str(tmp_path / "fields"), text_col="text",
              id_col="url", id_is_int=False, html_col=None,
              analyzer="standard", with_positions=False,
              store_fields=["lang"], field_shards=2, slice_rows=7)

    def listing():
        return sorted(os.path.relpath(os.path.join(r, f), str(tmp_path))
                      for r, _, fs in os.walk(str(tmp_path)) for f in fs)
    out = build._stage1_batch(batch, **kw)
    first = listing()
    assert build._stage1_batch(batch, **kw) == out
    assert listing() == first
    assert out["chunk"].to_pylist() == ["00000"]
    assert out["rows"].to_pylist() == [30]
    # one postings file for the batch, however many slices tokenized it
    assert len([f for f in first if f.startswith("post")]) == 1
