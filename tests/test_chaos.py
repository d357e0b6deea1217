"""Crash-recovery chaos tests: worker processes die mid-build (exactly
once per stage, via util.chaos_kill_once) and Ray's task retry must
produce an index IDENTICAL to a clean build.

The stage-1 kill fires after a tokenize task has renamed its postings and
docvalues files into place: the retry rewrites the same content-named
files, so the chunk holds one copy of its rows.  The spill-stage kill
fires AFTER every spill file of the victim block is
renamed into place — so the retried attempt re-spills the whole block
under a new uid and the exchange contains full duplicates, the exact
case `_spill_exchange_block`'s contract delegates to the duplicate-row
fold in `build_segment_group`.  The segments-stage kill loses a builder
mid-segment — the atomic rename means the retry republishes from the
spill files, or, in a build below the one-task bound, from the postings
the retried stage-2 task reads again.

Each run happens in a SUBPROCESS with its own `ray.init`, because the
SI_CHAOS_DIR env var must be present when the Ray workers are forked
(workers inherit the driver's environment at init, not later edits).
"""
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import json, os, sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
from search_ingest_ray.corpus import query_set
from search_ingest_ray.index import build
from search_ingest_ray.index.build import build_index
from search_ingest_ray.query.searcher import Searcher

corpus, root = sys.argv[1], sys.argv[2]
if len(sys.argv) > 3:  # "0" puts this 400-doc build on the term exchange
    build._TASK_POSTINGS = int(sys.argv[3])
m = build_index(corpus, root, html_col="html", chunk_files=2,
                num_term_partitions=4, hot_df_threshold=150, hot_salt=2,
                with_positions=True, store_fields=["lang"])
s = Searcher(root)
st = s.index_stats()
results = []
for terms in query_set(seed=7, n=8):
    d, sc = s.search_terms(terms, k=10)
    results.append([terms, [int(x) for x in d],
                    [round(float(x), 9) for x in sc]])
pd_, psc = s.match_phrase(["the", "merge"])
results.append(["phrase", [int(x) for x in pd_],
                [round(float(x), 9) for x in psc]])
results.append(["filtered",
                [int(x) for x in s.search_terms(
                    ["merge"], k=10, filters={"lang": "en"})[0]]])
chaos_dir = os.environ.get("SI_CHAOS_DIR")
print("RESULT " + json.dumps({
    "stats": {k: st[k][0].as_py() for k in st.column_names},
    "results": results,
    "segments": sorted(m["segments"]),
    "exchange": m["exchange"]["mode"],
    "killed": sorted(os.listdir(chaos_dir)) if chaos_dir else [],
}))
ray.shutdown()
"""


_EPOCH_SCRIPT = r"""
import hashlib, json, os, sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
from search_ingest_ray.pipelines.epochs import (apply_delta_epoch,
    compact_chain, epoch_chain, latest_epoch, snapshot_dir)
from search_ingest_ray.query.multi import MultiEpochSearcher

work = sys.argv[1]
root = os.path.join(work, "idx")
data = os.path.join(work, "data")
os.makedirs(data, exist_ok=True)

# deterministic inputs: same seed => bit-identical data in every run and
# every crash-rerun (files are also written atomically + kept if present)
rng = np.random.default_rng(5)
vocab = [f"w{i}" for i in range(40)]
def txt():
    return " ".join(rng.choice(vocab, size=int(rng.integers(6, 24))))

def _write(name, cols):
    p = os.path.join(data, name)
    if not os.path.exists(p):
        pq.write_table(pa.table(cols), p + ".tmp")
        os.replace(p + ".tmp", p)
    return p

base = _write("base.parquet", {
    "url": [f"u{i}" for i in range(120)],
    "text": [txt() for _ in range(120)]})
d1 = _write("d1.parquet", {
    "url": [f"u{i}" for i in range(30)] + ["u200", "u201"],
    "text": [txt() for _ in range(32)],
    "epoch": pa.array([1] * 32, pa.int64()),
    "action": ["upsert"] * 25 + ["delete"] * 5 + ["upsert"] * 2})
d2 = _write("d2.parquet", {
    "url": [f"u{i}" for i in range(10, 40)] + ["u202"],
    "text": [txt() for _ in range(31)],
    "epoch": pa.array([2] * 31, pa.int64()),
    "action": ["upsert"] * 28 + ["delete"] * 2 + ["upsert"]})

KW = dict(id_col="url", analyzer="simple", num_term_partitions=2,
          num_buckets=8, hot_df_threshold=10**9)
apply_delta_epoch(root, None, 0, base_paths=[base], mode="full", **KW)
apply_delta_epoch(root, [d1], 1, mode="full", **KW)
apply_delta_epoch(root, [d2], 2, mode="delta", **KW)

def merged_files():
    # chunk -> mtime of the compaction's committed merged postings
    ed = os.path.join(root, "epochs", "e0003")
    mp = os.path.join(ed, "manifest.json")
    recs = json.load(open(mp))["chunks"] if os.path.exists(mp) else {}
    out = {}
    for c, r in recs.items():
        f = os.path.join(ed, "postings", f"chunk={c}", "part-0.parquet")
        if "merged_from_epochs" in r and os.path.exists(f):
            out[c] = os.stat(f).st_mtime_ns
    return out

# compaction (force-merge) epoch: crash-resumable through the same
# snapshot/prebuild markers and its committed merged chunks — its e3 kill
# flags fire in the chaos run
committed = merged_files()
compact_chain(root, **{k: v for k, v in KW.items()
                       if k != "num_buckets"})
merged = merged_files()

ms = MultiEpochSearcher(root)
results = []
for terms in (["w1", "w7"], ["w3"], ["w12", "w20", "w33"], ["w5", "w8"]):
    d, sc = ms.search_terms(terms, k=12)
    results.append([terms, [int(x) for x in d],
                    [round(float(x), 9) for x in sc]])

latest = latest_epoch(root)
snap_files = sorted(
    os.path.join(r, f) for r, _, fs in os.walk(snapshot_dir(root, latest))
    for f in fs if f.endswith(".parquet"))
tbl = pa.concat_tables([pq.read_table(f, columns=["url", "text"])
                        for f in snap_files])
rows = sorted(zip(tbl["url"].to_pylist(), tbl["text"].to_pylist()))
chaos_dir = os.environ.get("SI_CHAOS_DIR")
print("RESULT " + json.dumps({
    "stats": {"n_docs": int(ms.stats["n_docs"]),
              "total_tokens": int(ms.stats["total_tokens"])},
    "results": results,
    "snapshot_fp": hashlib.md5(json.dumps(rows).encode()).hexdigest(),
    "n_rows": len(rows),
    "chain": epoch_chain(root),
    "merged": sorted(merged),
    "resumed_merged": len(committed),
    "remerged": sorted(c for c in committed if merged.get(c) != committed[c]),
    "killed": sorted(os.listdir(chaos_dir)) if chaos_dir else [],
}))
ray.shutdown()
"""


_STATE_SCRIPT = r"""
import json, os, sys
import pyarrow as pa
import pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False)
import ray.data as rd
from search_ingest_ray.functions.dedup import (write_minhash_state,
                                               write_seen_hashes)

work = sys.argv[1]
docs = pa.table({
    "doc_id": pa.array(range(40), pa.int64()),
    "text": [f"page {i} about merge scan window {i % 7}" for i in range(40)]})
writers = {
    "seen": lambda d: write_seen_hashes(rd.from_arrow(docs), d,
                                        num_buckets=4),
    "minhash": lambda d: write_minhash_state(rd.from_arrow(docs), d,
                                             num_perm=16, bands=4,
                                             num_buckets=4),
}
# the callers' contract: a state without its meta file is not there yet
for name, write in writers.items():
    d = os.path.join(work, name)
    if not os.path.exists(os.path.join(d, "_STATE_META.json")):
        write(d)
rows = {name: sum(pq.read_metadata(os.path.join(r, f)).num_rows
                  for r, _, fs in os.walk(os.path.join(work, name))
                  for f in fs if f.endswith(".parquet"))
        for name in writers}
chaos_dir = os.environ.get("SI_CHAOS_DIR")
print("RESULT " + json.dumps({
    "rows": rows,
    "killed": sorted(os.listdir(chaos_dir)) if chaos_dir else [],
}))
ray.shutdown()
"""


def _run(corpus_dir: str, root: str, chaos_dir: str | None,
         args: tuple = ()) -> dict:
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    if chaos_dir:
        env["SI_CHAOS_DIR"] = chaos_dir
    else:
        env.pop("SI_CHAOS_DIR", None)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, corpus_dir, root, *args],
        capture_output=True, text=True, cwd=REPO, env=env, timeout=600)
    assert out.returncode == 0, out.stderr[-4000:]
    line = [ln for ln in out.stdout.splitlines()
            if ln.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])


def test_worker_death_mid_build_yields_identical_index(corpus_dir, tmp_path):
    """On the term exchange: the one-task bound is set to 0."""
    chaos_dir = str(tmp_path / "chaos")
    os.makedirs(chaos_dir)
    clean = _run(corpus_dir, str(tmp_path / "idx_clean"), None, args=("0",))
    chaos = _run(corpus_dir, str(tmp_path / "idx_chaos"), chaos_dir,
                 args=("0",))
    # both stage kills actually fired (a worker process really died)
    assert chaos["killed"] == ["killed_segments", "killed_spill",
                               "killed_stage1"]
    assert clean["killed"] == []
    assert chaos["exchange"] == clean["exchange"] == "fs"
    assert chaos["stats"] == clean["stats"]
    assert chaos["segments"] == clean["segments"]
    assert chaos["results"] == clean["results"]


def test_worker_death_in_segments_task_yields_identical_index(corpus_dir,
                                                              tmp_path):
    """Below the one-task bound the ``segments`` kill fires inside the
    stage-2 task; Ray retries the task, which rebuilds every partition
    (tmp + rename), and the index equals a clean build's."""
    chaos_dir = str(tmp_path / "chaos")
    os.makedirs(chaos_dir)
    clean = _run(corpus_dir, str(tmp_path / "idx_clean"), None)
    chaos = _run(corpus_dir, str(tmp_path / "idx_chaos"), chaos_dir)
    assert chaos["killed"] == ["killed_segments", "killed_stage1"]
    assert clean["killed"] == []
    assert chaos["exchange"] == clean["exchange"] == "task"
    # ...and the recovered index is indistinguishable from the clean one
    assert chaos["stats"] == clean["stats"]
    assert chaos["segments"] == clean["segments"]
    assert chaos["results"] == clean["results"]


def _run_until_done(work: str, chaos_dir: str | None,
                    max_attempts: int = 12,
                    script: str = _EPOCH_SCRIPT) -> dict:
    """Re-run ``script`` until it completes — each crash-rerun must make
    progress (a new kill flag) or the failure is a real bug."""
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    if chaos_dir:
        env["SI_CHAOS_DIR"] = chaos_dir
    else:
        env.pop("SI_CHAOS_DIR", None)
    flags_seen = -1
    for _ in range(max_attempts):
        out = subprocess.run(
            [sys.executable, "-c", script, work],
            capture_output=True, text=True, cwd=REPO, env=env, timeout=600)
        if out.returncode == 0:
            line = [ln for ln in out.stdout.splitlines()
                    if ln.startswith("RESULT ")][-1]
            return json.loads(line[len("RESULT "):])
        assert chaos_dir is not None, out.stderr[-4000:]
        n = len(os.listdir(chaos_dir))
        assert n > flags_seen, (
            f"crashed without a new kill flag (rc={out.returncode}):\n"
            + out.stderr[-4000:])
        flags_seen = n
    raise AssertionError("epoch chaos run never completed")


def test_epoch_apply_driver_crashes_resume_identically(tmp_path):
    """The DRIVER process dies (os._exit) at every epoch-apply commit
    point — partial snapshot written without its done marker, snapshot
    committed without an index, delta dead-set committed without a
    snapshot — across a full→full→delta chain; each rerun resumes from
    the markers/manifests and the final chain is indistinguishable from
    a never-crashed run (worker kills inside the first index build fire
    too, covering both failure domains in one chain)."""
    chaos_dir = str(tmp_path / "chaos")
    os.makedirs(chaos_dir)
    clean = _run_until_done(str(tmp_path / "w_clean"), None)
    chaos = _run_until_done(str(tmp_path / "w_chaos"), chaos_dir)
    for flag in ("killed_snapshot_e0", "killed_epoch_prebuild_e0",
                 "killed_snapshot_e1", "killed_epoch_prebuild_e1",
                 "killed_delta_meta_e2", "killed_snapshot_e2",
                 # delta-epoch WORKER deaths (old-version retokenize and
                 # dead-term-patch counting) — Ray task retry, not rerun
                 "killed_old_dl", "killed_df_patch",
                 # compaction epoch: driver dies at the snapshot-link and
                 # prebuild commit points; the rerun resumes to an
                 # identical force-merged index
                 "killed_snapshot_e3", "killed_epoch_prebuild_e3",
                 # a merge task's WORKER dies (Ray retries it), then the
                 # driver dies with the merged chunks committed
                 "killed_merge", "killed_merged_e3"):
        assert flag in chaos["killed"], chaos["killed"]
    assert clean["killed"] == []
    # the compaction merged postings, and its rerun merged no committed
    # chunk again
    assert chaos["merged"] == clean["merged"] != []
    assert chaos["resumed_merged"] == len(chaos["merged"])
    assert chaos["remerged"] == []
    assert chaos["stats"] == clean["stats"]
    assert chaos["chain"] == clean["chain"]
    assert chaos["n_rows"] == clean["n_rows"]
    assert chaos["snapshot_fp"] == clean["snapshot_fp"]
    assert chaos["results"] == clean["results"]


def test_dedup_state_writers_crash_before_meta_keep_one_copy(tmp_path):
    """The driver dies after each dedup state's parquet rows are written
    but before its ``_STATE_META.json`` is: the rerun finds no meta and
    writes the state again, and the state must hold exactly one copy of
    the rows (40 content hashes; 40 docs x 4 LSH bands), not the crashed
    attempt's rows plus the rerun's."""
    chaos_dir = str(tmp_path / "chaos")
    os.makedirs(chaos_dir)
    out = _run_until_done(str(tmp_path / "w"), chaos_dir, max_attempts=4,
                          script=_STATE_SCRIPT)
    assert out["killed"] == ["killed_minhash_state_meta",
                             "killed_seen_hashes_meta"]
    assert out["rows"] == {"seen": 40, "minhash": 160}
