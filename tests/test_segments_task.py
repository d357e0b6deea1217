"""A build of at most ``build._TASK_POSTINGS`` postings builds its segments
in one Ray task (``build.build_segments``) instead of the term exchange.
Both paths must write the same index: byte-identical ``postings.bin`` and
``segment.parquet`` per term partition, and equal ``stats.json``,
``hot_df.json`` and docvalues rows.  Each case builds twice from the same
input, once as is (the task) and once with the bound set to 0 (the fs
exchange)."""

import hashlib
import os
import shutil

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


def _segment_md5s(segments_dir: str) -> dict:
    segs = {}
    for tp in sorted(os.listdir(segments_dir)):
        for f in ("postings.bin", "segment.parquet"):
            with open(os.path.join(segments_dir, tp, f), "rb") as fh:
                segs[f"{tp}/{f}"] = hashlib.md5(fh.read()).hexdigest()
    return segs


def _index_state(ed: str) -> dict:
    """What a searcher reads from one epoch: segment files by md5, stats,
    the salted-term df and the docvalues rows."""
    segs = _segment_md5s(os.path.join(ed, "segments"))
    fields = None
    fdir = os.path.join(ed, "fields")
    files = sorted(os.path.join(r, f) for r, _, fs in os.walk(fdir)
                   for f in fs if f.endswith(".parquet"))
    if files:
        t = pa.concat_tables([pq.read_table(f) for f in files])
        fields = t.take(pc.sort_indices(t, [("docid", "ascending")])) \
            .to_pylist()
    hot = os.path.join(ed, "hot_df.json")
    return {"segments": segs,
            "stats": build.read_json(os.path.join(ed, "stats.json")),
            "hot_df": build.read_json(hot) if os.path.exists(hot) else None,
            "fields": fields}


def _both_paths(monkeypatch, run):
    """``run()`` → (manifest, epoch dir) on the task path, then on the
    exchange; asserts which path each took and returns both states."""
    m_task, ed_task = run("task")
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    m_ex, ed_ex = run("exchange")
    monkeypatch.undo()
    assert m_task["exchange"]["mode"] == "task"
    assert m_ex["exchange"]["mode"] == "fs"
    return _index_state(ed_task), _index_state(ed_ex)


@pytest.mark.parametrize("case", [
    dict(html_col="html", id_col="url", id_is_int=False,
         store_fields=["lang"]),
    dict(text_col="text", id_col="doc_id", id_is_int=True,
         with_positions=True),
    dict(html_col="html", id_col="url", hot_df_threshold=20, hot_salt=2,
         store_fields=["lang"]),
], ids=["html-str-ids-fields", "text-int-ids-positions", "salted"])
def test_task_segments_equal_exchange_segments(ray_session, tmp_path,
                                               monkeypatch, case):
    files = _pages(str(tmp_path / "in"))

    def run(name):
        root = str(tmp_path / name)
        m = build.build_index(files, root, chunk_files=1,
                              num_term_partitions=4, **case)
        return m, build.epoch_dir(root, 0)
    task, exchange = _both_paths(monkeypatch, run)
    assert len(task["segments"]) == 8
    assert task == exchange
    if "hot_df_threshold" in case:
        assert task["stats"]["hot_terms"]
        assert task["hot_df"]["hot_terms"] == task["stats"]["hot_terms"]


def test_reduce_reads_spill_files_in_read_order(tmp_path):
    """A partition that receives several spill files (a build above one
    exchange batch) still gets the task's segment: the reduce reads the
    files in the order of the postings read, not in name order."""
    rng = np.random.default_rng(7)
    n = 20_000
    posts = pa.table({
        "term": pa.array(rng.choice([f"t{i}" for i in range(3000)], n)),
        "docid": pa.array(rng.integers(0, 10**12, n, dtype=np.int64)),
        "tf": pa.array(rng.integers(1, 5, n, dtype=np.int32)),
        "dl": pa.array(rng.integers(50, 500, n, dtype=np.int32)),
    })
    params = build.BM25Params(n_docs=1000, avgdl=200.0)
    ex = str(tmp_path / "ex")
    blocks = [posts.slice(0, n // 2), posts.slice(n // 2)]
    uids = [build._spill_exchange_block(
        blk, exchange_dir=ex, num_partitions=2, hot_salt=1,
        hot_ref=None)["spill"][0].as_py() for blk in blocks]

    # read order = the block whose uid sorts last first, so name order
    # can never stand in for it
    read = sorted(range(2), key=lambda i: uids[i], reverse=True)
    task = str(tmp_path / "task")
    build.build_segments(pa.concat_tables([blocks[i] for i in read]),
                         segments_dir=task, params=params, num_partitions=2,
                         hot_salt=1)
    out = str(tmp_path / "exchange")
    build._build_tpart_from_exchange(
        pa.table({"tpart": [0, 1]}), exchange_dir=ex, segments_dir=out,
        params=params, hot_df={},
        spill_rank={uids[i]: r for r, i in enumerate(read)})
    assert _segment_md5s(out) == _segment_md5s(task)


def test_noop_resume_keeps_task_segments(ray_session, tmp_path, monkeypatch):
    files = _pages(str(tmp_path / "in"))
    kw = dict(html_col="html", chunk_files=1, num_term_partitions=4,
              hot_df_threshold=20, hot_salt=2, store_fields=["lang"])

    def run(name):
        root = str(tmp_path / name)
        build.build_index(files, root, **kw)
        seg = os.path.join(build.epoch_dir(root, 0), "segments",
                           "tpart=00000", "postings.bin")
        mtime = os.stat(seg).st_mtime_ns
        m = build.build_index(files, root, resume=True, **kw)
        assert os.stat(seg).st_mtime_ns == mtime  # nothing rebuilt
        return m, build.epoch_dir(root, 0)
    task, exchange = _both_paths(monkeypatch, run)
    assert task == exchange


def test_compaction_with_relinked_chunks(ray_session, tmp_path, monkeypatch):
    files = _pages(str(tmp_path / "in"), n_files=1, per=200)
    kw = dict(id_col="url", html_col="html", analyzer="standard",
              store_fields=["lang"], num_buckets=8)
    base = pq.read_table(files[0])

    # one chain, compacted once per path: stage 1 does not fix the row
    # order of a chunk read from several files (a bucket's snapshot), so
    # two chains built from the same input can differ in postings order
    chain = str(tmp_path / "chain")
    apply_delta_epoch(chain, None, 0, base_paths=files, **kw)
    upd = base.slice(10, 2) \
        .append_column("epoch", pa.array([1] * 2, pa.int64())) \
        .append_column("action", pa.array(["updated"] * 2))
    p = str(tmp_path / "d1.parquet")
    pq.write_table(upd, p)
    apply_delta_epoch(chain, [p], 1, mode="delta", **kw)

    def run(name):
        root = str(tmp_path / name)
        shutil.copytree(chain, root)
        m = compact_chain(root, **{k: v for k, v in kw.items()
                                   if k != "num_buckets"})
        assert epoch_chain(root) == [(2, "full")]
        relinked = [c for c, r in m["chunks"].items()
                    if r.get("reused_from_epoch") == 0]
        assert 0 < len(relinked) < 8
        return m, build.epoch_dir(root, 2)
    task, exchange = _both_paths(monkeypatch, run)
    assert task == exchange


def test_one_posting_over_the_bound_takes_the_exchange(ray_session, tmp_path,
                                                       monkeypatch):
    files = _pages(str(tmp_path / "in"), n_files=2)
    kw = dict(html_col="html", chunk_files=1, num_term_partitions=2)
    m = build.build_index(files, str(tmp_path / "a"), **kw)
    n = m["stats"]["n_postings"]
    monkeypatch.setattr(build, "_TASK_POSTINGS", n)
    assert build.build_index(files, str(tmp_path / "b"), **kw)[
        "exchange"]["mode"] == "task"
    monkeypatch.setattr(build, "_TASK_POSTINGS", n - 1)
    m = build.build_index(files, str(tmp_path / "c"), **kw)
    assert m["exchange"]["mode"] == "fs"
    assert "spill_s" in m["stage_walls"]
