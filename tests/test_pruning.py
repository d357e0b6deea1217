"""Two-phase MaxScore actually prunes — and stays exact.

The essential/candidate split of ``searcher.maxscore_topk`` — driven by
``Searcher.search_terms`` on one epoch and by
``MultiEpochSearcher.search_terms`` on a delta chain, whose bounds come
from the dead-term df patches of ``pipelines/epochs.py`` — must (a) return
rank- AND score-identical results to brute force / a full rebuild, and (b)
decode strictly fewer postings than the lists hold when a rare term's θ
dominates a common term's bound.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import build_index
from search_ingest_ray.pipelines.epochs import apply_delta_epoch
from search_ingest_ray.query.bm25 import oracle_topk
from search_ingest_ray.query.multi import MultiEpochSearcher
from search_ingest_ray.query.searcher import Searcher
from search_ingest_ray.util import doc_id_hash

N = 5000
KW = dict(id_col="url", analyzer="simple", num_term_partitions=2,
          hot_df_threshold=10**9)


def _corpus(seed=7, n=N):
    rng = np.random.default_rng(seed)
    filler = [f"f{i}" for i in range(50)]
    texts = []
    for i in range(n):
        toks = ["common"] + list(rng.choice(filler,
                                            size=int(rng.integers(4, 12))))
        if i % 2 == 0:
            toks.append("mid")
        if i % 1000 == 7:
            toks.append("rare")
        rng.shuffle(toks)
        texts.append(" ".join(toks))
    return [f"u{i}" for i in range(n)], texts


class _DecodeCounter:
    """Wraps Searcher._decode_list, counting held vs decoded postings."""

    def __init__(self, monkeypatch):
        self.held = 0
        self.decoded = 0
        orig = Searcher._decode_list

        def wrapper(row, keep=None):
            d, tf, dl = orig(row, keep)
            self.held += int(row["n"])
            self.decoded += int(d.size)
            return d, tf, dl

        monkeypatch.setattr(Searcher, "_decode_list", staticmethod(wrapper))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("prunedata")
    urls, texts = _corpus()
    p = str(d / "docs.parquet")
    pq.write_table(pa.table({"url": urls, "text": texts}), p)
    return p, urls, texts


def test_single_epoch_candidate_phase_prunes(ray_session, corpus_file,
                                             tmp_path, monkeypatch):
    p, urls, texts = corpus_file
    root = str(tmp_path / "idx")
    build_index([p], root, **KW)
    s = Searcher(root)
    ctr = _DecodeCounter(monkeypatch)
    d, sc = s.search_terms(["rare", "common"], k=3)
    ids = np.array([doc_id_hash(u) for u in urls])
    od, osc = oracle_topk(texts, ids, ["rare", "common"], 3,
                          analyzer="simple")
    assert d.tolist() == od.tolist()
    assert np.allclose(sc, osc)
    # 'rare' (df=5) decodes fully and seeds θ ≫ ub('common'); 'common'
    # (df=5000, ~40 blocks) then decodes only candidate-bearing blocks
    assert ctr.decoded < ctr.held, (ctr.decoded, ctr.held)
    assert ctr.decoded < N // 2


def test_chain_candidate_phase_prunes_and_matches_rebuild(
        ray_session, corpus_file, tmp_path, monkeypatch):
    p, urls, texts = corpus_file
    root = str(tmp_path / "chain")
    apply_delta_epoch(root, None, 0, base_paths=[p], num_buckets=8, **KW)
    dd = str(tmp_path / "d1")
    os.makedirs(dd, exist_ok=True)
    dpath = os.path.join(dd, "d.parquet")
    # update two rare docs (one loses 'rare'), delete one common doc,
    # create a new rare doc
    pq.write_table(pa.table({
        "url": ["u7", "u1007", "u42", "u90001"],
        "text": ["common plain now", "rare common kept", "",
                 "rare fresh common"],
        "epoch": pa.array([1, 1, 1, 1], pa.int64()),
        "action": ["updated", "updated", "deleted", "created"],
    }), dpath)
    apply_delta_epoch(root, [dpath], 1, mode="delta", num_buckets=8, **KW)

    ms = MultiEpochSearcher(root)

    # dead-term patch df == decoded surviving-postings df, term by term
    for t in ("common", "rare", "mid", "plain", "nosuchterm"):
        assert ms.chain_df(t) == ms._surviving_lists(t)[3], t

    # exactness vs a from-scratch rebuild of the final snapshot
    from search_ingest_ray.pipelines.epochs import snapshot_dir
    snap_files = sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(snapshot_dir(root, 1))
        for f in fs if f.endswith(".parquet"))
    fresh = str(tmp_path / "fresh")
    build_index(snap_files, fresh, **KW)
    ref = Searcher(fresh)

    ctr = _DecodeCounter(monkeypatch)
    d1, sc1 = ms.search_terms(["rare", "common"], k=3)
    decoded_ms = ctr.decoded
    held_ms = ctr.held
    d2, sc2 = ref.search_terms(["rare", "common"], k=3)
    assert d1.tolist() == d2.tolist()
    assert np.allclose(sc1, sc2)
    assert decoded_ms < held_ms, (decoded_ms, held_ms)
    assert decoded_ms < N // 2

    # a delta epoch without its committed patch cannot be bounded: refused
    from search_ingest_ray.pipelines.epochs import epoch_dir
    os.remove(os.path.join(epoch_dir(root, 1), "df_patch", "_DONE"))
    with pytest.raises(ValueError, match="delta epoch 1 "):
        MultiEpochSearcher(root)
