"""Small shared utilities: stable hashing, atomic file writes, counting
the Ray work a call starts."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib

_MASK63 = (1 << 63) - 1


def doc_id_hash(key: str | bytes) -> int:
    """Stable 63-bit document id from a string key (url).

    Stable across processes/machines (blake2b, no interpreter hash salt).
    Collision note (documented design trade): at 10^12 docs the expected
    number of colliding pairs is ~n^2/2^64 ≈ 5e4, a 1e-7 fraction; ids stay
    stable under re-ingest, which is what makes epoch upserts (E9) cheap.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") & _MASK63


def hash_ids(keys) -> list[int]:
    """Vectorized-ish batch form of :func:`doc_id_hash`."""
    b2 = hashlib.blake2b
    fb = int.from_bytes
    return [fb(b2(k.encode("utf-8"), digest_size=8).digest(), "big") & _MASK63
            for k in keys]


def term_partition(term: str, num_partitions: int, salt: int = 0) -> int:
    """Deterministic term → partition assignment (crc32; salt spreads hot
    terms across partitions — operator E12)."""
    h = zlib.crc32(term.encode("utf-8"))
    if salt:
        h = zlib.crc32(salt.to_bytes(4, "big"), h)
    return h % num_partitions


def stable_partition_column(col, num_partitions: int):
    """Deterministic vectorized hash-partition assignment for a key column
    (pyarrow Array/ChunkedArray) — stable across processes (no interpreter
    hash salt), so every worker routes the same key to the same partition.

    Integer keys use a Fibonacci multiply hash (numpy, zero-copy); other
    types go through pandas' deterministic siphash-based ``hash_array``.
    Returns an int32 numpy array of partition ids."""
    import numpy as np
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        v = col.to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (v * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    else:
        import pandas as pd
        h = pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object))
    return (h % np.uint64(num_partitions)).astype(np.int32)


def atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_json(path: str):
    with open(path) as f:
        return json.load(f)


def tok_hash_sql(tok: str) -> int:
    """64-bit token hash with EXACT SQL parity: equals DuckDB's
    ``md5_number_lower(tok)`` (the little-endian read of md5 digest bytes
    8..16).  The minhash/simhash/fingerprint stages use this so their
    outputs are reproducible by a pure-SQL DuckDB oracle — the per-token
    cost is equivalent to the blake2b it replaced."""
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[8:], "little")


def chaos_kill_once(stage: str) -> None:
    """Fault-injection hook for crash-recovery tests (tests/test_chaos.py):
    when ``SI_CHAOS_DIR`` is set in the worker's environment (inherited
    from ``ray.init`` — inert in production), the FIRST task to reach this
    point for ``stage`` kills its worker process mid-flight (``os._exit``,
    the moral equivalent of a lost node) and Ray's task retry must finish
    the job.  The ``O_CREAT|O_EXCL`` flag file makes the kill exactly-once
    per stage per run.  Cost when disabled: one env lookup per TASK (never
    per row)."""
    d = os.environ.get("SI_CHAOS_DIR")
    if not d:
        return
    try:
        fd = os.open(os.path.join(d, f"killed_{stage}"),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    os._exit(1)


@contextlib.contextmanager
def counting_ray_work():
    """Count what this process starts while the block runs: Ray Data
    executions (``StreamingExecutor.execute``, the perfbench tracer's
    hook; a ``schema()`` that has to run the plan counts as one) and Ray
    task submissions.  Yields the live ``{"executions", "tasks"}`` dict."""
    import ray.remote_function as rf
    from ray.data._internal.execution import streaming_executor as se
    counts = {"executions": 0, "tasks": 0}
    execute, submit = se.StreamingExecutor.execute, rf.RemoteFunction._remote

    def counting_execute(ex, *a, **k):
        counts["executions"] += 1
        return execute(ex, *a, **k)

    def counting_submit(fn, *a, **k):
        counts["tasks"] += 1
        return submit(fn, *a, **k)
    se.StreamingExecutor.execute = counting_execute
    rf.RemoteFunction._remote = counting_submit
    try:
        yield counts
    finally:
        se.StreamingExecutor.execute = execute
        rf.RemoteFunction._remote = submit
