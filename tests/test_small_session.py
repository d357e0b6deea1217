"""The text, dedup, media and sharded-serving queries finish in small Ray
sessions.

Each session runs in a SUBPROCESS with its own ``ray.init(num_cpus=N)``
(the tests/test_chaos.py pattern) and a deadline.  A map stage that holds
every CPU as an actor pool would keep the read tasks from ever running,
so the query would not finish; task-based stages cannot starve their own
upstream.  Each query's rows must equal the same query's rows in the
4-CPU session of the ``ray_session`` fixture.
"""
import json
import os
import signal
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 300

_SCRIPT = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[2]),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as e

qs = e.queries()
out = {}
for name in sys.argv[3].split(","):
    res = qs[name](sys.argv[1])
    rows = res.take_all() if hasattr(res, "take_all") else res.to_pylist()
    out[name] = sorted(json.dumps(r, sort_keys=True, default=str)
                       for r in rows)   # as _rows() below
print("RESULT " + json.dumps(out))
ray.shutdown()
"""


def _small_session(sf_dir: str, num_cpus: int, names: list[str]) -> dict:
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, sf_dir, str(num_cpus),
         ",".join(names)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(
            f"{names} did not finish within {DEADLINE_S} s "
            f"under num_cpus={num_cpus}")
    assert proc.returncode == 0, stderr[-4000:]
    line = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")][-1]
    return json.loads(line[len("RESULT "):])


def _rows(res) -> list[str]:
    rows = res.take_all() if hasattr(res, "take_all") else res.to_pylist()
    return sorted(json.dumps(r, sort_keys=True, default=str) for r in rows)


def test_text_queries_finish_in_one_and_two_cpu_sessions(ray_session,
                                                         sf_dir):
    import __ray_entry__ as e

    one_cpu = ["oov_rate", "percolate", "doc_keywords", "corpus_filter"]
    got_1 = _small_session(sf_dir, 1, one_cpu)
    got_2 = _small_session(sf_dir, 2, ["oov_rate"])
    qs = e.queries()
    for name in one_cpu:
        want = _rows(qs[name](sf_dir))
        assert want, name
        assert got_1[name] == want, name
        if name in got_2:
            assert got_2[name] == want, name


def test_bm25_sharded_finishes_in_a_one_cpu_session(ray_session, sf_dir):
    # one shard actor per term partition (8 here): their placement must
    # not depend on the session's CPU count
    import __ray_entry__ as e

    got = _small_session(sf_dir, 1, ["bm25_sharded"])
    want = _rows(e.queries()["bm25_sharded"](sf_dir))
    assert want and got["bm25_sharded"] == want
