"""A compaction merges the chain's kept postings instead of re-tokenizing
(``epochs._merge_touched_buckets``).  Each test compacts one chain twice:
as written ("merged"), and with every delta epoch's ``postings/`` removed,
which sends the touched buckets through stage 1 ("re-tokenized").  The two
compacted epochs must hold the same stats, salted-term df, docvalues rows
and postings rows (as sorted sets; the merge writes them in another
order), and both must answer like the chain did."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import epoch_dir, read_json
from search_ingest_ray.pipelines.epochs import (apply_delta_epoch,
                                                compact_chain, epoch_chain)
from search_ingest_ray.query.multi import MultiEpochSearcher

N_DOCS = 120
QUERIES = (["w1", "w7"], ["w3"], ["fresh"], ["w12", "w20", "w33"],
           ["w5", "w8"], ["again"])


def _text(rng):
    vocab = [f"w{i}" for i in range(40)]
    return " ".join(rng.choice(vocab, size=int(rng.integers(4, 20))))


class Chain:
    """Writes a chain's inputs: ``key(i)`` is document i's id (a url, or
    ``i`` itself with int ids); every row carries a ``lang``."""

    def __init__(self, tmp_path, *, int_ids: bool):
        self.dir = tmp_path
        self.int_ids = int_ids
        self.id_col = "doc_id" if int_ids else "url"
        self.rng = np.random.default_rng(7)

    def key(self, i):
        return i if self.int_ids else f"u{i}"

    def _ids(self, idx):
        keys = [self.key(i) for i in idx]
        return pa.array(keys, pa.int64() if self.int_ids else pa.string())

    def base(self):
        idx = list(range(N_DOCS))
        p = str(self.dir / "base.parquet")
        pq.write_table(pa.table({
            self.id_col: self._ids(idx),
            "text": [_text(self.rng) for _ in idx],
            "lang": [["en", "de", "fr"][i % 3] for i in idx]}), p)
        return p

    def delta(self, epoch, rows):
        """``rows``: (doc index, text or None for a delete)."""
        p = str(self.dir / f"d{epoch}.parquet")
        pq.write_table(pa.table({
            self.id_col: self._ids([i for i, _ in rows]),
            "text": [t if t is not None else "" for _, t in rows],
            "lang": ["de"] * len(rows),
            "epoch": pa.array([epoch] * len(rows), pa.int64()),
            "action": ["deleted" if t is None else "updated"
                       for _, t in rows]}), p)
        return p


def _rows(d: str, key: str) -> list[dict] | None:
    files = sorted(os.path.join(r, f) for r, _, fs in os.walk(d)
                   for f in fs if f.endswith(".parquet"))
    if not files:
        return None
    t = pa.concat_tables([pq.read_table(f) for f in files])
    sort = [(key, "ascending")] + [(c, "ascending") for c in t.column_names
                                   if c not in (key, "pos")]
    return t.take(pc.sort_indices(t, sort)).to_pylist()


def _state(root: str, epoch: int) -> dict:
    ed = epoch_dir(root, epoch)
    hot = os.path.join(ed, "hot_df.json")
    return {"stats": read_json(os.path.join(ed, "stats.json")),
            "hot_df": read_json(hot) if os.path.exists(hot) else None,
            "fields": _rows(os.path.join(ed, "fields"), "docid"),
            "postings": _rows(os.path.join(ed, "postings"), "term")}


def _topk(root: str) -> list:
    ms = MultiEpochSearcher(root)
    out = []
    for terms in QUERIES:
        d, sc = ms.search_terms(terms, k=15)
        out.append((terms, [int(x) for x in d],
                    [round(float(x), 9) for x in sc]))
    return out


def _compact_both_ways(root: str, tmp_path, name: str, kw: dict):
    """Compact copies of the chain at ``root`` with and without the delta
    epochs' kept postings; returns both manifests and states after
    checking each against the chain's own answers."""
    chain = epoch_chain(root)
    assert len(chain) > 1 and all(m == "delta" for _, m in chain[1:])
    before = _topk(root)
    ckw = {k: v for k, v in kw.items() if k != "num_buckets"}
    out = {}
    for way in ("merged", "retok"):
        copy = str(tmp_path / f"{name}-{way}")
        shutil.copytree(root, copy)
        if way == "retok":
            for e, _ in chain[1:]:
                shutil.rmtree(os.path.join(epoch_dir(copy, e), "postings"))
        m = compact_chain(copy, **ckw)
        epoch = chain[-1][0] + 1
        assert epoch_chain(copy) == [(epoch, "full")]
        assert _topk(copy) == before
        out[way] = (m, _state(copy, epoch), copy)
    (m_merged, merged, copy), (m_retok, retok, _) = \
        out["merged"], out["retok"]
    # each copy took its own path ...
    last_full = chain[0][0]
    touched = {c for c, r in m_retok["chunks"].items()
               if "reused_from_epoch" not in r}
    assert touched and "stage1_ray_stats" in m_retok
    assert "stage1_ray_stats" not in m_merged
    assert m_merged["stage_walls"]["merge_s"] > 0
    for cid, rec in m_merged["chunks"].items():
        if cid in touched and rec["rows"]:
            assert rec["merged_from_epochs"] == [e for e, _ in chain]
            assert "reused_from_epoch" not in rec
        else:
            assert rec.get("reused_from_epoch") == last_full or \
                rec["rows"] == 0
            # a re-linked chunk carries no lineage of the epoch it came
            # from (which may itself be a merged compaction)
            assert "merged_from_epochs" not in rec
    # ... to the same index
    assert merged == retok
    return copy


@pytest.mark.parametrize("int_ids", [False, True], ids=["url", "int"])
def test_merged_compaction_equals_retokenized(ray_session, tmp_path,
                                              int_ids):
    c = Chain(tmp_path, int_ids=int_ids)
    kw = dict(id_col=c.id_col, id_is_int=int_ids, analyzer="standard",
              num_term_partitions=2, num_buckets=8, store_fields=["lang"],
              with_positions=int_ids)
    if not int_ids:
        kw.update(hot_df_threshold=20, hot_salt=2)  # salted terms too
    root = str(tmp_path / "chain")
    apply_delta_epoch(root, None, 0, base_paths=[c.base()], **kw)
    # updates, deletes and an insert
    apply_delta_epoch(root, [c.delta(1, [
        (3, "fresh w1 w7"), (17, "fresh w3 w3"), (5, None), (40, None),
        (500, "fresh w5 w8 w5")])], 1, mode="delta", **kw)
    # a re-insert of a deleted id, id 3 updated again, an update to empty
    # text (the doc keeps no postings) and a delete of an inserted id
    apply_delta_epoch(root, [c.delta(2, [
        (5, "again w1"), (3, "again w12 w20"), (8, ""), (500, None),
        (60, "w33 w33 w33")])], 2, mode="delta", **kw)
    merged = _compact_both_ways(root, tmp_path, "first", kw)

    # a second compaction whose last full epoch is a merged compaction
    apply_delta_epoch(merged, [c.delta(4, [
        (3, "w7 fresh"), (8, "again"), (61, None), (700, "w1 w1")])], 4,
        mode="delta", **kw)
    apply_delta_epoch(merged, [c.delta(5, [(700, "w20"), (62, "")])], 5,
                      mode="delta", **kw)
    _compact_both_ways(merged, tmp_path, "second", kw)


def test_full_full_delta_chain_merges(ray_session, tmp_path):
    """The chaos test's chain shape: the last full epoch applied a delta
    itself (so it re-linked part of epoch 0) before one delta epoch."""
    c = Chain(tmp_path, int_ids=False)
    kw = dict(id_col="url", analyzer="simple", num_term_partitions=2,
              num_buckets=8, hot_df_threshold=10**9)
    root = str(tmp_path / "chain")
    apply_delta_epoch(root, None, 0, base_paths=[c.base()], **kw)
    apply_delta_epoch(root, [c.delta(1, [(i, _text(c.rng))
                                         for i in range(10)] + [(11, None)])],
                      1, mode="full", **kw)
    apply_delta_epoch(root, [c.delta(2, [(i, _text(c.rng))
                                         for i in range(5, 15)]
                                     + [(20, None), (300, "fresh")])],
                      2, mode="delta", **kw)
    _compact_both_ways(root, tmp_path, "ffd", kw)
