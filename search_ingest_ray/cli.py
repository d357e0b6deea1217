"""CLI entry points — the Ray-native restatement of the reference's service
surface (/root/reference/src/api.cr:25-40 REST routes + src/app.cr CLI
flags): ``build`` (reindex+backfill), ``query``, ``status``, ``reindex``.

Run as ``python -m search_ingest_ray.cli <cmd> ...`` (locally) or via
``ray job submit -- python -m search_ingest_ray.cli build ...`` on a
cluster.  Owns its Ray session (guarded init, shutdown at exit) — library
code never does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session():
    """Returns (ray, owned): shutdown only sessions this process created
    (an embedding caller — tests, a driver — keeps its own session)."""
    import ray
    owned = not ray.is_initialized()
    if owned:
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ray, owned


def cmd_build(args) -> int:
    ray, owned = _ray_session()
    try:
        from .index.build import build_index
        manifest = build_index(
            args.input, args.index_root, text_col=args.text_col,
            id_col=args.id_col, id_is_int=args.id_is_int,
            html_col=args.html_col, analyzer=args.analyzer,
            epoch=args.epoch, resume=not args.no_resume,
            with_positions=args.positions,
            store_fields=args.store_field or None)
        print(json.dumps({"status": manifest["status"],
                          "stats": manifest["stats"]}, indent=1))
        return 0
    finally:
        if owned:
            ray.shutdown()


def cmd_delta(args) -> int:
    """Apply one changefeed delta epoch (the reference's continuous sync as
    an explicit batch step, table.cr:25-46): fold onto the snapshot and
    index incrementally (mode=full: snapshot rebuild with O(delta)
    tokenize; mode=delta: delta segments + dead-set suppression)."""
    ray, owned = _ray_session()
    try:
        from .pipelines.epochs import apply_delta_epoch
        manifest = apply_delta_epoch(
            args.index_root, [args.delta] if args.delta else None,
            args.epoch, id_col=args.id_col, text_col=args.text_col,
            html_col=args.html_col, id_is_int=args.id_is_int,
            analyzer=args.analyzer, mode=args.mode,
            base_paths=[args.base] if args.base else None,
            num_buckets=args.num_buckets)
        print(json.dumps({"status": manifest["status"], "epoch": args.epoch,
                          "stats": manifest["stats"]}, indent=1))
        return 0
    finally:
        if owned:
            ray.shutdown()


def cmd_query(args) -> int:
    """One query through a :class:`ServeSession`: the latest epoch, or the
    whole delta chain (``--epoch`` pins one full epoch)."""
    from .serve import ServeSession
    resp = ServeSession(args.index_root, epoch=args.epoch,
                        warm=False).handle({"query": args.query, "k": args.k})
    if not resp["ok"]:
        print(resp["error"], file=sys.stderr)
        return 1
    for h in resp["hits"]:
        print(json.dumps({"rank": h["rank"], "docid": h["doc_id"],
                          "score": round(h["score"], 6)}))
    return 0


def cmd_serve(args) -> int:
    """Long-lived query daemon on stdin/stdout (api.cr always-on analog):
    warmed session(s) for the process lifetime, JSONL request protocol
    (see serve.py).  Default inline mode needs no Ray session (mmap +
    numpy); ``--actors N`` serves through a Ray actor pool (throughput)."""
    from .serve import ServePool
    ray, owned = _ray_session() if args.actors else (None, False)
    try:
        sp = ServePool(args.index_root, epoch=args.epoch, actors=args.actors)
        served = sp.run(sys.stdin, sys.stdout)
        print(json.dumps({"served": served}), file=sys.stderr)
        return 0
    finally:
        if ray is not None and owned:
            ray.shutdown()


def cmd_http(args) -> int:
    """HTTP service (api.cr:25-90 parity): management routes
    (reindex/backfill/ready/health/version) + query/phrase per table.
    ``--table name=input_path`` registers managed tables."""
    ray, owned = _ray_session()
    try:
        from .http import make_server
        from .pipelines.manager import ManagedTable, TableManager
        tables = []
        for spec in args.table:
            name, _, path = spec.partition("=")
            tables.append(ManagedTable(name, path))
        mgr = TableManager(args.index_base, tables)
        if args.backfill:
            mgr.backfill_all()
        srv, _svc = make_server(mgr, host=args.host, port=args.port)
        print(json.dumps({"listening":
                          f"http://{srv.server_address[0]}:"
                          f"{srv.server_address[1]}"}), flush=True)
        try:
            srv.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            srv.shutdown()
        return 0
    finally:
        if owned:
            ray.shutdown()


def cmd_status(args) -> int:
    """Health/status — the analog of GET / and GET /ready (api.cr:59-90)."""
    from . import aliases
    from .util import read_json
    root = aliases.resolve(args.index_root)
    out = {"index_root": root, "ready": False}
    meta = os.path.join(root, "index_meta.json")
    if os.path.exists(meta):
        out["index_meta"] = read_json(meta)
    ed = os.path.join(root, "epochs")
    if os.path.isdir(ed):
        epochs = {}
        for e in sorted(os.listdir(ed)):
            mp = os.path.join(ed, e, "manifest.json")
            if os.path.exists(mp):
                m = read_json(mp)
                epochs[e] = {"status": m.get("status"),
                             "chunks_done": sum(1 for c in m.get("chunks", {}).values()
                                                if c.get("status") == "done"),
                             "segments_done": len(m.get("segments", {})),
                             "stats": m.get("stats")}
        out["epochs"] = epochs
        out["ready"] = any(e.get("status") == "done" for e in epochs.values())
    print(json.dumps(out, indent=1))
    return 0 if out["ready"] else 1


def cmd_reindex(args) -> int:
    """Drop epoch data, keep mapping (table.cr:61-76 semantics)."""
    from . import aliases
    from .index.build import reindex
    root = aliases.resolve(args.index_root)
    reindex(root, epoch=args.epoch)
    print(json.dumps({"reindexed": root, "epoch": args.epoch}))
    return 0


def cmd_alias(args) -> int:
    """Alias management (ES alias semantics: atomic flip = zero-downtime
    reindex cutover).  Every other subcommand accepts ``alias:NAME`` as
    its index_root."""
    from . import aliases
    # name/index_root are nargs='?' so `alias list` parses; validate per
    # action here or a missing operand surfaces as a raw AttributeError
    if args.action in ("set", "drop") and not args.name:
        print("alias %s requires NAME" % args.action, file=sys.stderr)
        return 2
    if args.action == "set" and not args.index_root:
        print("alias set requires NAME INDEX_ROOT", file=sys.stderr)
        return 2
    if args.action == "set":
        aliases.set_alias(args.name, args.index_root,
                          registry_dir=args.registry)
        print(json.dumps({"alias": args.name,
                          "index_root": os.path.abspath(args.index_root)}))
    elif args.action == "drop":
        aliases.drop_alias(args.name, registry_dir=args.registry)
        print(json.dumps({"dropped": args.name}))
    else:  # list
        print(json.dumps(aliases.list_aliases(args.registry)))
    return 0


def cmd_watch(args) -> int:
    """Tail a changefeed directory and apply epochs as they appear (the
    reference's watch loop, table.cr:25-46)."""
    ray, owned = _ray_session()
    try:
        from .pipelines.epochs import watch_deltas
        applied = watch_deltas(
            args.index_root, args.feed_dir, poll_sec=args.poll_sec,
            max_epochs=args.max_epochs, mode=args.mode,
            id_col=args.id_col, text_col=args.text_col,
            analyzer=args.analyzer)
        print(json.dumps({"applied": len(applied)}))
        return 0
    finally:
        if owned:
            ray.shutdown()


def cmd_snapshot(args) -> int:
    """ES _snapshot API analog: checksummed epoch backup / verified
    restore / repository listing."""
    from . import snapshot as snap
    if args.action in ("create", "restore") and not (args.name
                                                     and args.index_root):
        print("snapshot %s requires REPO NAME INDEX_ROOT" % args.action,
              file=sys.stderr)
        return 2
    if args.action == "create":
        m = snap.snapshot(args.index_root, args.repo, args.name,
                          epoch=args.epoch)
        print(json.dumps({"snapshot": args.name,
                          "n_files": len(m["files"])}))
    elif args.action == "restore":
        m = snap.restore(args.repo, args.name, args.index_root)
        print(json.dumps({"restored": args.name,
                          "n_files": len(m["files"])}))
    else:  # list
        print(json.dumps(snap.list_snapshots(args.repo)))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="search_ingest_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="backfill: build the index for an epoch")
    b.add_argument("input", help="parquet file/dir of documents")
    b.add_argument("index_root")
    b.add_argument("--text-col", default="text")
    b.add_argument("--id-col", default="url")
    b.add_argument("--id-is-int", action="store_true")
    b.add_argument("--html-col", default=None)
    b.add_argument("--analyzer", default="standard")
    b.add_argument("--epoch", type=int, default=0)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--positions", action="store_true",
                   help="positional index (phrase/slop queries)")
    b.add_argument("--store-field", action="append", default=[],
                   help="structured column for filters/docstore (repeatable)")
    b.set_defaults(fn=cmd_build)

    de = sub.add_parser("delta", help="apply one delta epoch (changefeed sync)")
    de.add_argument("index_root")
    de.add_argument("--delta", default=None, help="delta parquet file/dir")
    de.add_argument("--base", default=None, help="backfill input (epoch 0)")
    de.add_argument("--epoch", type=int, required=True)
    de.add_argument("--mode", choices=["full", "delta"], default="full")
    de.add_argument("--text-col", default="text")
    de.add_argument("--id-col", default="url")
    de.add_argument("--id-is-int", action="store_true")
    de.add_argument("--html-col", default=None)
    de.add_argument("--analyzer", default="standard")
    de.add_argument("--num-buckets", type=int, default=16)
    de.set_defaults(fn=cmd_delta)

    q = sub.add_parser("query", help="BM25 top-k (latest epoch or chain)")
    q.add_argument("index_root")
    q.add_argument("query")
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--epoch", type=int, default=None,
                   help="pin one full epoch (default: the latest epoch, "
                        "or the whole delta chain)")
    q.set_defaults(fn=cmd_query)

    sv = sub.add_parser("serve", help="long-lived JSONL query daemon "
                        "(inline, or a Ray actor pool with --actors)")
    sv.add_argument("index_root")
    sv.add_argument("--epoch", type=int, default=None)
    sv.add_argument("--actors", type=int, default=0,
                    help="Ray actor-pool size (throughput serving mode; "
                         "0 = inline)")
    sv.set_defaults(fn=cmd_serve)

    ht = sub.add_parser("http", help="HTTP service (management + query)")
    ht.add_argument("index_base", help="base dir: one index per table")
    ht.add_argument("--table", action="append", default=[],
                    help="name=input_parquet_path (repeatable)")
    ht.add_argument("--host", default="127.0.0.1")
    ht.add_argument("--port", type=int, default=8080)
    ht.add_argument("--backfill", action="store_true",
                    help="backfill all tables before serving")
    ht.set_defaults(fn=cmd_http)

    st = sub.add_parser("status", help="index health/progress")
    st.add_argument("index_root")
    st.set_defaults(fn=cmd_status)

    r = sub.add_parser("reindex", help="drop epoch data, keep mapping")
    r.add_argument("index_root")
    r.add_argument("--epoch", type=int, default=0)
    r.set_defaults(fn=cmd_reindex)

    al = sub.add_parser("alias", help="index aliases (zero-downtime swap)")
    al.add_argument("action", choices=["set", "drop", "list"])
    al.add_argument("name", nargs="?", default=None)
    al.add_argument("index_root", nargs="?", default=None)
    al.add_argument("--registry", default=None,
                    help="registry dir (default: the shared cache dir)")
    al.set_defaults(fn=cmd_alias)

    w = sub.add_parser("watch", help="tail a changefeed dir, apply epochs")
    w.add_argument("index_root")
    w.add_argument("feed_dir")
    w.add_argument("--poll-sec", type=float, default=1.0)
    w.add_argument("--max-epochs", type=int, default=None)
    w.add_argument("--mode", default="delta", choices=["full", "delta"])
    w.add_argument("--id-col", default="url")
    w.add_argument("--text-col", default="text")
    w.add_argument("--analyzer", default="standard")
    w.set_defaults(fn=cmd_watch)

    sn = sub.add_parser("snapshot", help="checksummed backup/restore")
    sn.add_argument("action", choices=["create", "restore", "list"])
    sn.add_argument("repo", help="repository directory")
    sn.add_argument("name", nargs="?", default=None)
    sn.add_argument("index_root", nargs="?", default=None)
    sn.add_argument("--epoch", type=int, default=None,
                    help="pin one epoch (default: every committed epoch)")
    sn.set_defaults(fn=cmd_snapshot)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
