"""Long-lived query serving daemon — the Ray-native analog of the
reference's always-on HTTP service (/root/reference/src/api.cr:25-90).

The reference keeps a pooled ES client alive for the process lifetime.
A :class:`ServeSession` holds ONE searcher — a warmed :class:`Searcher`
(term dictionaries + mmapped postings resident), or a
``MultiEpochSearcher`` over a delta-epoch chain — and answers a JSON-lines
protocol on a stream pair — stdin/stdout from the CLI
(``python -m search_ingest_ray.cli serve <root>``), or any file-like pair
in-process (tests drive it with StringIO).  The CLI ``query`` command
answers through the same session.

Request (one JSON object per line)::

    {"op": "query",  "id": 1, "query": "merge scan", "k": 10,
     "filters": {"lang": "de"}, "fields": ["lang"]}
    {"op": "phrase", "id": 2, "phrase": "merge scan", "k": 10}
    {"op": "status", "id": 3}
    {"op": "quit"}

Response: ``{"id":..., "ok": true, "hits": [{"doc_id":..., "score":...,
"rank":...}, ...]}`` or ``{"id":..., "ok": false, "error": "..."}``.

Filters use the FieldStore grammar; JSON lists ``["range", lo, hi]`` /
``["in", [...]]`` are accepted and normalized to the tuple forms.
"""

from __future__ import annotations

import json
import time

from .query.searcher import Searcher


def _norm_filters(filters: dict | None) -> dict | None:
    if not filters:
        return None
    out = {}
    for col, spec in filters.items():
        if isinstance(spec, list) and spec and spec[0] in ("range", "in",
                                                           "cidr"):
            if spec[0] == "in":
                out[col] = ("in", spec[1])
            else:  # range / cidr keep their positional args
                out[col] = (spec[0], *spec[1:])
        else:
            out[col] = spec
    return out


class ServeSession:
    """One daemon session: one searcher + request dispatch.

    When the index has a delta-segment epoch chain (``mode="delta"``
    epochs after the last full epoch), the searcher is a
    :class:`MultiEpochSearcher` — a single-epoch Searcher on the latest
    (tiny, delta-only) epoch would silently serve only the delta docs, so
    an explicit ``epoch`` that is a delta epoch is refused.  Both searchers
    answer the same calls (search, match_phrase, get_fields, stats):
    filters, phrase/slop queries and field retrieval all work on the chain
    (per-live-epoch docvalues / positional matching, current global
    stats).  ``warm`` preloads a single epoch's term dictionaries; a
    chain's searchers load lazily."""

    def __init__(self, index_root: str, epoch: int | None = None,
                 warm: bool = True):
        from .aliases import resolve as _resolve_alias
        from .pipelines.epochs import epoch_chain, epoch_mode
        index_root = _resolve_alias(index_root)  # accepts "alias:NAME";
        # resolved BEFORE chain detection so an aliased delta chain routes
        # through MultiEpochSearcher instead of silently missing epochs.json
        self.chained = False
        if epoch is None:
            chain = epoch_chain(index_root)
            epoch = chain[-1][0]
            self.chained = any(m == "delta" for _, m in chain)
        elif epoch_mode(index_root, epoch) == "delta":
            raise ValueError(
                f"epoch {epoch} of {index_root} is a delta epoch: it holds "
                "only that delta's segments; serve the chain (epoch=None)")
        self.epoch = epoch
        if self.chained:
            from .query.multi import MultiEpochSearcher
            self.searcher = MultiEpochSearcher(index_root)
        else:
            self.searcher = Searcher(index_root, epoch=epoch)
            if warm:
                self.searcher.warm()
        self.n_queries = 0
        self.started = time.monotonic()

    def handle(self, req: dict) -> dict | None:
        op = req.get("op", "query")
        rid = req.get("id")
        try:
            if op == "quit":
                return None
            if op == "status":
                return {"id": rid, "ok": True, "epoch": self.epoch,
                        "mode": "delta-chain" if self.chained else "single",
                        "n_docs": self.searcher.stats["n_docs"],
                        "n_queries": self.n_queries,
                        "uptime_s": round(time.monotonic() - self.started, 3)}
            k = int(req.get("k", 10))
            filters = _norm_filters(req.get("filters"))
            if op not in ("query", "phrase"):
                return {"id": rid, "ok": False,
                        "error": f"unknown op {op!r}"}
            self.n_queries += 1
            if op == "phrase":
                d, sc = self.searcher.match_phrase(
                    req["phrase"], k=k, filters=filters,
                    slop=int(req.get("slop", 0)))
            else:
                d, sc = self.searcher.search(req["query"], k=k,
                                             filters=filters)
            hits = [{"doc_id": int(x), "rank": i + 1, "score": float(s)}
                    for i, (x, s) in enumerate(zip(d, sc))]
            fields = req.get("fields")
            if fields and len(d):
                fv = self.searcher.get_fields(d, fields)
                for i, h in enumerate(hits):
                    for c in fields:
                        h[c] = fv[c][i].as_py()
            return {"id": rid, "ok": True, "hits": hits}
        except Exception as e:  # noqa: BLE001 — daemon must not die per-request
            return {"id": rid, "ok": False, "error": repr(e)[:500]}


def _handle_line(sess: ServeSession, line: str) -> str | None:
    """One JSONL request line → its response line: ``""`` for a blank
    line, None for quit; bad JSON answers an error and serving goes on."""
    line = line.strip()
    if not line:
        return ""
    try:
        req = json.loads(line)
    except json.JSONDecodeError as e:
        return json.dumps({"ok": False, "error": f"bad json: {e}"})
    if req.get("op") == "quit":
        return None
    return json.dumps(sess.handle(req))


_ACTOR_CLS = None


def _serve_actor_cls():
    global _ACTOR_CLS
    if _ACTOR_CLS is None:
        import ray

        class _ServeActor:
            def __init__(self, index_root: str, epoch, warm: bool):
                self.sess = ServeSession(index_root, epoch=epoch, warm=warm)

            def ping(self) -> bool:
                return True

            def handle_line(self, line: str):
                return _handle_line(self.sess, line)

        # pure readers of an immutable index: a lost actor (node failure)
        # rebuilds its warmed session and the in-flight call retries —
        # the daemon self-heals instead of dropping requests.
        _ACTOR_CLS = ray.remote(num_cpus=1, max_restarts=4,
                                max_task_retries=4)(_ServeActor)
    return _ACTOR_CLS


class ServePool:
    """Daemon state: warmed sessions constructed at STARTUP (warm cost
    never lands on the first requests), reusable across request streams —
    the daemon analog of the reference's pooled ES clients
    (elastic.cr:62-93).

    - ``actors=0`` (default): serve inline from one warmed session.
    - ``actors>0``: the throughput path — N Ray actors each holding a
      warmed session; requests round-robin across actors with pipelined
      dispatch, responses stay in request order.  Requires a Ray session.
    """

    def __init__(self, index_root: str, epoch: int | None = None,
                 warm: bool = True, actors: int = 0):
        self._actors = []
        if actors:
            import ray
            cls = _serve_actor_cls()
            self._actors = [cls.remote(index_root, epoch, warm)
                            for _ in range(actors)]
            ray.get([a.ping.remote() for a in self._actors])  # warm barrier
            return
        self._sess = ServeSession(index_root, epoch=epoch, warm=warm)

    @staticmethod
    def _truncate_at_quit(chunk: list[str]) -> tuple[list[str], bool]:
        """Cut a chunk at the first quit request so nothing past it is ever
        dispatched (same semantics as the inline path)."""
        for i, line in enumerate(chunk):
            line = line.strip()
            if not line:
                continue
            try:
                if json.loads(line).get("op") == "quit":
                    return chunk[:i], True
            except json.JSONDecodeError:
                continue
        return chunk, False

    def run(self, in_stream, out_stream) -> int:
        """Blocking request loop; returns the number of requests served."""
        served = 0
        if self._actors:
            import itertools
            import ray
            n = len(self._actors)
            lines = iter(in_stream)
            stop = False
            while not stop:
                chunk = list(itertools.islice(lines, 16 * n))
                if not chunk:
                    break
                chunk, stop = self._truncate_at_quit(chunk)
                futs = [self._actors[i % n].handle_line.remote(line)
                        for i, line in enumerate(chunk)]
                for out in ray.get(futs):
                    if out:
                        out_stream.write(out + "\n")
                        served += 1
                out_stream.flush()
            return served
        for line in in_stream:
            out = _handle_line(self._sess, line)
            if out is None:
                break
            if out:
                out_stream.write(out + "\n")
                out_stream.flush()
                served += 1
        return served
