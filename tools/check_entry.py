"""Local stand-in for the driver's correctness gate: run every queries()
entry and compare against oracle_sql() via DuckDB (row count + sorted
column names + order-insensitive value comparison).  Each result line
ends with the Ray Data executions the query started (call + read of its
result), and the summary gives their total, so a query that starts
running its plan twice shows here.

Usage: python tools/check_entry.py [sf_dir] [only_query1,only_query2,...]
                                   [--json=artifact.json]

With --json, per-query status + wall time land in a committable artifact
(the round-N full-surface correctness record).  Each query's record also
carries ``md5`` (of its canonical rows, see :func:`digest`) and ``types``
(its result's Arrow column types), rows-only queries included, so two
commits' row identity is a diff of their artifacts.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_arrow(res):
    import pandas as pd
    import pyarrow as pa
    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    return res.to_arrow() if hasattr(res, "to_arrow") else pa.Table.from_pandas(res.to_pandas())


def canon(tbl):
    return _sorted_rows(tbl.to_pandas())


def _sorted_rows(df):
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def digest(tbl) -> dict:
    """md5 of the canonical rows (:func:`canon`, written as CSV) and the
    ``name:type`` of every result column, in result order.  Rows with
    unorderable cells (lists, structs) are compared as the text of their
    cells' Python values."""
    import hashlib
    try:
        rows = canon(tbl)
    except (TypeError, ValueError):
        rows = _sorted_rows(tbl.to_pandas().map(
            lambda v: repr(v.tolist() if hasattr(v, "tolist") else v)))
    return {"md5": hashlib.md5(rows.to_csv(index=False).encode()).hexdigest(),
            "types": [f"{f.name}:{f.type}" for f in tbl.schema]}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--json")]
    json_path = next((a.split("=", 1)[1] for a in sys.argv[1:]
                      if a.startswith("--json=")), None)
    sf_dir = args[0] if args else "/root/testdata/sf0.001"
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import duckdb
    import __ray_entry__ as e
    from search_ingest_ray.util import counting_ray_work

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = e.queries()
    if len(args) > 1:
        only = set(args[1].split(","))
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = e.oracle_sql()
    failures = []
    record = {}
    total_execs = 0
    for name, fn in qs.items():
        t0 = time.monotonic()
        try:
            with counting_ray_work() as counts:
                res = to_arrow(fn(sf_dir))
        except Exception as ex:
            failures.append((name, f"RAY ERROR: {ex!r}"))
            record[name] = {"status": "fail_run", "error": repr(ex)}
            print(f"[FAIL-run] {name}: {ex!r}")
            continue
        execs = counts["executions"]
        total_execs += execs
        if name not in oracles:
            record[name] = {"status": "rows_only", "rows": res.num_rows,
                            "cols": res.column_names, "executions": execs,
                            "sec": round(time.monotonic() - t0, 2),
                            **digest(res)}
            print(f"[rows-only] {name}: {res.num_rows} rows, "
                  f"cols={res.column_names}, {execs} exec")
            continue
        try:
            ora = con.execute(oracles[name]).fetch_arrow_table()
        except Exception as ex:
            failures.append((name, f"SQL ERROR: {ex!r}"))
            record[name] = {"status": "fail_sql", "error": repr(ex)}
            print(f"[FAIL-sql] {name}: {ex!r}")
            continue
        a, b = canon(res), canon(ora)
        if list(a.columns) != list(b.columns):
            failures.append((name, f"cols {list(a.columns)} vs {list(b.columns)}"))
            record[name] = {"status": "fail_cols"}
            print(f"[FAIL-cols] {name}: {list(a.columns)} vs {list(b.columns)}")
            continue
        if len(a) != len(b):
            failures.append((name, f"rows {len(a)} vs {len(b)}"))
            record[name] = {"status": "fail_rows"}
            print(f"[FAIL-rows] {name}: {len(a)} vs {len(b)}")
            continue
        if not a.equals(b):
            neq = (a != b).any()
            failures.append((name, f"values differ in cols {list(neq[neq].index)}"))
            record[name] = {"status": "fail_vals",
                            "cols": list(neq[neq].index)}
            print(f"[FAIL-vals] {name}: differing cols {list(neq[neq].index)}")
            print(a.compare(b).head(5) if hasattr(a, 'compare') else '')
            continue
        record[name] = {"status": "ok", "rows": len(a), "executions": execs,
                        "sec": round(time.monotonic() - t0, 2),
                        **digest(res)}
        print(f"[OK] {name}: {len(a)} rows, {execs} exec")

    # entry smoke
    try:
        res = to_arrow(e.entry())
        print(f"[entry] {res.num_rows} rows, schema={res.schema.names}")
    except Exception as ex:
        failures.append(("entry", repr(ex)))
        print(f"[FAIL-entry] {ex!r}")

    print(f"\n{total_execs} Ray Data executions over {len(qs)} queries")
    print(f"{len(failures)} failures" + (f": {[f[0] for f in failures]}" if failures else ""))
    if json_path:
        n_ok = sum(1 for r in record.values() if r["status"] == "ok")
        n_rows_only = sum(1 for r in record.values()
                          if r["status"] == "rows_only")
        with open(json_path, "w") as f:
            json.dump({"sf_dir": sf_dir, "n_queries": len(record),
                       "n_ok": n_ok, "n_rows_only": n_rows_only,
                       "n_failures": len(failures),
                       "n_executions": total_execs,
                       "queries": record}, f, indent=1, sort_keys=True)
        print(f"[json] wrote {json_path}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
