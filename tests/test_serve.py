"""Serve daemon (always-on service analog, api.cr:25-90) + heal (G10)."""

import io
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import build_index
from search_ingest_ray.pipelines.manager import ManagedTable, TableManager
from search_ingest_ray.serve import ServePool
from search_ingest_ray.util import doc_id_hash


def _mk_index(tmp_path, with_fields=True):
    t = pa.table({
        "url": ["a", "b", "c"],
        "text": ["alpha beta gamma", "alpha beta", "gamma delta"],
        "lang": ["en", "de", "en"],
    })
    pq.write_table(t, str(tmp_path / "d.parquet"))
    root = str(tmp_path / "idx")
    build_index([str(tmp_path / "d.parquet")], root, analyzer="simple",
                num_term_partitions=2, with_positions=True,
                store_fields=["lang"] if with_fields else None)
    return root


def _run(root, requests):
    ins = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    outs = io.StringIO()
    served = ServePool(root).run(ins, outs)
    return served, [json.loads(x) for x in outs.getvalue().splitlines()]


def test_serve_query_phrase_status_quit(ray_session, tmp_path):
    root = _mk_index(tmp_path)
    served, resps = _run(root, [
        {"op": "query", "id": 1, "query": "alpha", "k": 10},
        {"op": "query", "id": 2, "query": "alpha",
         "filters": {"lang": "de"}},
        {"op": "phrase", "id": 3, "phrase": "alpha beta"},
        {"op": "query", "id": 4, "query": "beta", "fields": ["lang"]},
        {"op": "status", "id": 5},
        {"op": "quit"},
        {"op": "query", "id": 99, "query": "never served"},
    ])
    assert served == 5  # quit stops the loop before id=99
    by_id = {r["id"]: r for r in resps}
    assert {h["doc_id"] for h in by_id[1]["hits"]} == \
        {doc_id_hash("a"), doc_id_hash("b")}
    assert {h["doc_id"] for h in by_id[2]["hits"]} == {doc_id_hash("b")}
    assert {h["doc_id"] for h in by_id[3]["hits"]} == \
        {doc_id_hash("a"), doc_id_hash("b")}
    assert all("lang" in h for h in by_id[4]["hits"])
    assert by_id[5]["n_docs"] == 3 and by_id[5]["n_queries"] == 4


def test_serve_bad_requests_keep_daemon_alive(ray_session, tmp_path):
    """Bad JSON and an unknown op answer errors and serving goes on — on
    the inline pool and on the actor pool, which share one line
    handler."""
    root = _mk_index(tmp_path)
    payload = ('not json\n{"op":"nope","id":1}\n'
               '{"op":"query","id":2,"query":"alpha"}\n')
    for pool in (ServePool(root), ServePool(root, actors=2)):
        outs = io.StringIO()
        assert pool.run(io.StringIO(payload), outs) == 3
        resps = [json.loads(x) for x in outs.getvalue().splitlines()]
        assert resps[0]["ok"] is False
        assert resps[0]["error"].startswith("bad json")
        assert resps[1] == {"id": 1, "ok": False,
                            "error": "unknown op 'nope'"}
        assert resps[2]["ok"] is True and resps[2]["hits"]


def test_serve_actor_pool_matches_single(ray_session, tmp_path):
    root = _mk_index(tmp_path)
    reqs = [{"op": "query", "id": i, "query": q}
            for i, q in enumerate(["alpha", "beta", "gamma"] * 4)]
    payload = "\n".join(json.dumps(r) for r in reqs) + "\n"
    outs1, outsA = io.StringIO(), io.StringIO()
    ServePool(root).run(io.StringIO(payload), outs1)
    sp = ServePool(root, actors=2)
    nA = sp.run(io.StringIO(payload), outsA)
    assert nA == len(reqs)
    r1 = [json.loads(x) for x in outs1.getvalue().splitlines()]
    rA = [json.loads(x) for x in outsA.getvalue().splitlines()]
    assert [x["id"] for x in rA] == [x["id"] for x in r1]
    assert [x["hits"] for x in rA] == [x["hits"] for x in r1]
    # pool is reusable across streams (long-lived daemon)
    outsB = io.StringIO()
    assert sp.run(io.StringIO(payload), outsB) == len(reqs)


def _mk_chain(tmp_path):
    """12 docs "common docN" in epoch 0; delta epoch 1 rewrites u1 to
    "freshterm common"."""
    from search_ingest_ray.pipelines.epochs import apply_delta_epoch
    base = str(tmp_path / "base")
    os.makedirs(base)
    pq.write_table(pa.table({
        "url": [f"u{i}" for i in range(12)],
        "text": [f"common doc{i}" for i in range(12)],
    }), os.path.join(base, "b.parquet"))
    root = str(tmp_path / "idx")
    kw = dict(id_col="url", analyzer="simple", num_term_partitions=2,
              num_buckets=4, hot_df_threshold=10**9,
              with_positions=True, store_fields=["url"])
    apply_delta_epoch(root, None, 0, base_paths=[os.path.join(base, "b.parquet")],
                      **kw)
    delta = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({
        "url": ["u1"], "text": ["freshterm common"],
        "epoch": pa.array([1], pa.int64()), "action": ["updated"],
    }), delta)
    apply_delta_epoch(root, [delta], 1, mode="delta", **kw)
    return root


def test_serve_delta_chain_uses_multi_searcher(ray_session, tmp_path):
    """A delta-mode epoch chain must be served through MultiEpochSearcher —
    not the latest (delta-only) epoch's tiny index."""
    root = _mk_chain(tmp_path)
    served, resps = _run(root, [
        {"op": "query", "id": 1, "query": "common", "k": 50},
        {"op": "query", "id": 2, "query": "freshterm", "k": 5,
         "fields": ["url"]},
        {"op": "status", "id": 3},
        {"op": "phrase", "id": 4, "phrase": "common doc2"},
        {"op": "query", "id": 5, "query": "common", "k": 50,
         "filters": {"url": "u3"}},
        {"op": "quit"},
    ])
    by_id = {r["id"]: r for r in resps}
    assert len(by_id[1]["hits"]) == 12  # full corpus, not just the delta
    assert {h["doc_id"] for h in by_id[2]["hits"]} == {doc_id_hash("u1")}
    assert by_id[2]["hits"][0]["url"] == "u1"  # docstore across the chain
    assert by_id[3]["mode"] == "delta-chain" and by_id[3]["n_docs"] == 12
    # phrase works on the chain (doc2's live version is in the base epoch)
    assert {h["doc_id"] for h in by_id[4]["hits"]} == {doc_id_hash("u2")}
    assert {h["doc_id"] for h in by_id[5]["hits"]} == {doc_id_hash("u3")}


def test_serve_refuses_a_delta_epoch(ray_session, tmp_path):
    """Pinning a delta epoch would serve only that delta's segments and
    stats; the session refuses it.  A full epoch of the chain still
    serves on its own."""
    from search_ingest_ray.serve import ServeSession
    root = _mk_chain(tmp_path)
    with pytest.raises(ValueError, match="epoch 1 .* is a delta epoch"):
        ServeSession(root, epoch=1)
    sess = ServeSession(root, epoch=0)
    st = sess.handle({"op": "status"})
    assert st["mode"] == "single" and st["n_docs"] == 12
    hits = sess.handle({"query": "common", "k": 50})["hits"]
    assert len(hits) == 12  # epoch 0 predates the update: u1 is there
    assert sess.handle({"query": "freshterm"})["hits"] == []


def test_heal_backfills_only_sick_tables(ray_session, tmp_path, corpus_dir):
    kw = dict(html_col="html", chunk_files=4, num_term_partitions=2)
    mgr = TableManager(str(tmp_path / "base"), [
        ManagedTable("t1", corpus_dir, kw),
        ManagedTable("t2", corpus_dir, kw),
    ], max_concurrent=2)
    mgr.backfill_all()
    assert mgr.heal() == []  # all healthy → no-op
    # break t2: drop its manifest
    import shutil
    shutil.rmtree(os.path.join(mgr.index_root("t2"), "epochs"))
    assert mgr.health()["t2"]["healthy"] is False
    healed = mgr.heal()
    assert healed == ["t2"]
    assert mgr.health()["t2"]["healthy"] is True


def test_norm_filters_cidr_json_roundtrip():
    """Regression: JSON transports deliver ("cidr", ...) as a list — it must
    normalize to the tuple spec or CIDR filters silently match nothing."""
    from search_ingest_ray.serve import _norm_filters
    out = _norm_filters({"ip": ["cidr", "10.0.0.0/8"],
                         "n": ["range", 1, 5],
                         "s": ["in", ["a", "b"]],
                         "k": "x"})
    assert out == {"ip": ("cidr", "10.0.0.0/8"), "n": ("range", 1, 5),
                   "s": ("in", ["a", "b"]), "k": "x"}


def test_serve_actor_death_self_heals(ray_session, tmp_path):
    """Kill every pool actor between request streams (node loss under a
    long-lived daemon): max_restarts rebuilds the warmed session, the
    retried calls return identical answers, the pool never surfaces
    RayActorError."""
    import ray
    root = _mk_index(tmp_path)
    reqs = [{"op": "query", "id": i, "query": q}
            for i, q in enumerate(["alpha", "beta", "gamma"] * 2)]
    payload = "\n".join(json.dumps(r) for r in reqs) + "\n"
    sp = ServePool(root, actors=2)
    outs0 = io.StringIO()
    assert sp.run(io.StringIO(payload), outs0) == len(reqs)
    for a in sp._actors:
        ray.kill(a, no_restart=False)
    outs1 = io.StringIO()
    assert sp.run(io.StringIO(payload), outs1) == len(reqs)
    r0 = [json.loads(x) for x in outs0.getvalue().splitlines()]
    r1 = [json.loads(x) for x in outs1.getvalue().splitlines()]
    assert [x["hits"] for x in r1] == [x["hits"] for x in r0]


def test_serve_actor_death_mid_daemon_recovers(ray_session, tmp_path):
    """Chaos: a serve actor is killed between request streams (restart
    allowed — a lost serving process); max_restarts must transparently
    restart it with a re-warmed Searcher and the next stream's responses
    stay identical and in order."""
    import ray
    root = _mk_index(tmp_path)
    reqs = [{"op": "query", "id": i, "query": q}
            for i, q in enumerate(["alpha", "beta", "gamma"] * 4)]
    payload = "\n".join(json.dumps(r) for r in reqs) + "\n"
    sp = ServePool(root, actors=3)
    outsA = io.StringIO()
    assert sp.run(io.StringIO(payload), outsA) == len(reqs)
    ray.kill(sp._actors[1], no_restart=False)
    outsB = io.StringIO()
    assert sp.run(io.StringIO(payload), outsB) == len(reqs)
    ra = [json.loads(x) for x in outsA.getvalue().splitlines()]
    rb = [json.loads(x) for x in outsB.getvalue().splitlines()]
    assert [x["id"] for x in rb] == [x["id"] for x in ra]
    assert [x["hits"] for x in rb] == [x["hits"] for x in ra]
