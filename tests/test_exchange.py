"""The stage-2 term exchange (two-phase filesystem spill) above the
one-task bound.  These corpora are below the bound, so each test sets it
to 0 to reach the exchange; identity with the one-task path is checked
in ``test_segments_task.py``."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index import build
from search_ingest_ray.index.build import build_index


def _corpus(tmp_path, n=120):
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
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


def test_exchange_resume_skips_done(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(build, "_TASK_POSTINGS", 0)
    p = _corpus(tmp_path, n=60)
    root = str(tmp_path / "idx")
    kw = dict(analyzer="simple", num_term_partitions=4, chunk_files=1,
              hot_df_threshold=10**9)
    m = build_index([p], root, **kw)
    assert m["exchange"]["mode"] == "fs"
    seg = os.path.join(root, "epochs/e0000/segments/tpart=00000/segment.parquet")
    mtime = os.path.getmtime(seg)
    build_index([p], root, resume=True, **kw)  # no-op resume
    assert os.path.getmtime(seg) == mtime


def test_build_rejects_shuffle_option(tmp_path):
    with pytest.raises(TypeError, match="shuffle"):
        build_index([_corpus(tmp_path)], str(tmp_path / "idx"),
                    shuffle="fs")
