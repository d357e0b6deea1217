"""The two stage-2 exchange strategies must produce identical indexes:
``fs`` (two-phase filesystem spill, shared-storage contract) and ``ray``
(object-store sort exchange, no shared-FS assumption).  These corpora are
below the one-task bound, so each test sets it to 0 to reach the
exchange."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from search_ingest_ray.index import build
from search_ingest_ray.index.build import build_index
from search_ingest_ray.query.searcher import Searcher
from search_ingest_ray.util import read_json


def _corpus(tmp_path, n=120):
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)] + ["hot"] * 1  # 'hot' skewed below
    texts = []
    for i in range(n):
        toks = list(rng.choice(vocab, size=rng.integers(5, 30)))
        if i % 2 == 0:
            toks.append("hot")  # hot term in half the docs
        texts.append(" ".join(toks))
    p = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "url": [f"d{i}" for i in range(n)],
        "text": texts,
    }), p)
    return p


def test_ray_exchange_matches_fs(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    p = _corpus(tmp_path)
    root_fs = str(tmp_path / "idx_fs")
    root_ray = str(tmp_path / "idx_ray")
    kw = dict(analyzer="simple", num_term_partitions=4, chunk_files=1,
              hot_df_threshold=40, hot_salt=2)
    build_index([p], root_fs, shuffle="fs", **kw)
    build_index([p], root_ray, shuffle="ray", **kw)

    mf_fs = read_json(os.path.join(root_fs, "epochs/e0000/manifest.json"))
    mf_ray = read_json(os.path.join(root_ray, "epochs/e0000/manifest.json"))
    assert mf_fs["exchange"]["mode"] == "fs"
    assert mf_ray["exchange"]["mode"] == "ray"
    assert mf_ray["exchange"]["dir"] is None
    # same global stats + per-partition posting counts
    assert mf_fs["stats"] == mf_ray["stats"]
    for k in mf_fs["segments"]:
        assert (mf_fs["segments"][k]["n_postings"]
                == mf_ray["segments"][k]["n_postings"]), k

    s_fs, s_ray = Searcher(root_fs), Searcher(root_ray)
    for q in (["hot"], ["w1", "w2"], ["hot", "w3"], ["w10", "w20", "w30"]):
        d1, sc1 = s_fs.search_terms(q, k=15)
        d2, sc2 = s_ray.search_terms(q, k=15)
        assert d1.tolist() == d2.tolist(), q
        assert np.allclose(sc1, sc2)


def test_ray_exchange_resume_skips_done(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    p = _corpus(tmp_path, n=60)
    root = str(tmp_path / "idx")
    kw = dict(analyzer="simple", num_term_partitions=4, chunk_files=1,
              hot_df_threshold=10**9, shuffle="ray")
    build_index([p], root, **kw)
    seg = os.path.join(root, "epochs/e0000/segments/tpart=00000/segment.parquet")
    mtime = os.path.getmtime(seg)
    build_index([p], root, resume=True, **kw)  # no-op resume
    assert os.path.getmtime(seg) == mtime
