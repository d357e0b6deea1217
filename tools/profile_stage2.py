#!/usr/bin/env python
"""Profile the stage-2 segment build (build_segment_group) on REAL spills.

Step 1 (``--prepare``): run the bench-sized build once with
``SI_KEEP_EXCHANGE=1`` so the exchange spills survive at EXDIR.
Step 2 (default): load one term partition's spills and run the segment
build single-process and N-way concurrent (multiprocessing, separate
processes like Ray workers) with a per-phase breakdown, to localize the
shared-L3 working-set contention measured in BASELINE.md ("Contention
diagnosis revised").
"""
from __future__ import annotations

import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
EXDIR = "/tmp/si_prof_ex"
BUSY = "/tmp/si_builder_busy"


def prepare() -> None:
    os.environ["SI_KEEP_EXCHANGE"] = "1"
    os.environ["SI_EXCHANGE_DIR"] = EXDIR
    os.environ.setdefault("RAY_GRAFT_CPUS", "32")
    import ray
    ray.init(address="local", num_cpus=int(os.environ["RAY_GRAFT_CPUS"]),
             include_dashboard=False)
    import bench
    bench.ensure_corpus()
    out = bench.bench_build(int(os.environ["RAY_GRAFT_CPUS"]))
    print(json.dumps(out))
    ray.shutdown()


def one_build(tpart_dir: str, out_dir: str, res: dict | None = None) -> dict:
    """Run the real build path for one tpart dir, returning phase times."""
    import pyarrow as pa

    from search_ingest_ray.index import build as B
    from search_ingest_ray.index.build import BM25Params

    t0 = time.monotonic()
    files = [os.path.join(tpart_dir, f) for f in sorted(os.listdir(tpart_dir))
             if f.endswith(".arrow")]
    group = pa.concat_tables([B._read_spill(f) for f in files])
    import numpy as np
    tpart = int(os.path.basename(tpart_dir).split("=")[1])
    group = group.append_column(
        "tpart", pa.array(np.full(group.num_rows, tpart, np.int32)))
    t_read = time.monotonic() - t0
    t0 = time.monotonic()
    B.build_segment_group(group, segments_dir=out_dir,
                          params=BM25Params(1.2, 0.75, 1, 1.0), hot_df={})
    t_build = time.monotonic() - t0
    r = {"rows": group.num_rows, "read_s": round(t_read, 3),
         "build_s": round(t_build, 3)}
    if res is not None:
        res.update(r)
    return r


def main() -> None:
    if "--prepare" in sys.argv:
        prepare()
        return
    import multiprocessing as mp

    base = sys.argv[sys.argv.index("--ex") + 1] if "--ex" in sys.argv else EXDIR
    tparts = sorted(d for d in os.listdir(base) if d.startswith("tpart="))
    nway = int(sys.argv[sys.argv.index("-j") + 1]) if "-j" in sys.argv else 4

    # warm page cache uniformly
    for d in tparts:
        for f in os.listdir(os.path.join(base, d)):
            with open(os.path.join(base, d, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass

    # single-process baseline on each of the first nway tparts
    singles = []
    for d in tparts[:nway]:
        singles.append(one_build(os.path.join(base, d), "/tmp/si_prof_seg1"))
        print("single", d, singles[-1])

    # nway concurrent (separate processes, like Ray workers)
    ctx = mp.get_context("spawn")
    with ctx.Manager() as man:
        results = [man.dict() for _ in range(nway)]
        procs = [ctx.Process(target=one_build,
                             args=(os.path.join(base, d),
                                   f"/tmp/si_prof_seg{i}", results[i]))
                 for i, d in enumerate(tparts[:nway])]
        t0 = time.monotonic()
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        wall = time.monotonic() - t0
        conc = [dict(r) for r in results]
    for d, r in zip(tparts[:nway], conc):
        print(f"conc-{nway}", d, r)
    s_build = sum(r["build_s"] for r in singles)
    c_build = sum(r["build_s"] for r in conc)
    print(json.dumps({
        "nway": nway, "wall_conc_s": round(wall, 2),
        "sum_single_build_s": round(s_build, 2),
        "sum_conc_build_s": round(c_build, 2),
        "per_task_slowdown": round(c_build / s_build, 3) if s_build else None,
    }))


if __name__ == "__main__":
    main()
