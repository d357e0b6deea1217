import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

_BUSY = "/tmp/si_builder_busy"


def pytest_sessionstart(session):
    """Hold the builder-busy flag for the whole pytest run so the
    background scaling hunt (tools/scaling_hunt.py) never starts a
    measurement pair while tests are loading the box — and, symmetrically,
    so test-spawned Ray clusters (chaos subprocesses) aren't starved by a
    hunt trial's legs (observed: merger chaos test flaking only when a
    trial co-ran)."""
    try:
        with open(_BUSY, "w") as f:
            f.write(f"pytest {os.getpid()}\n")
    except OSError:
        pass
    # If a hunt measurement pair is already in flight, wait it out
    # (bounded) instead of running tests against a saturated box.
    lock = "/tmp/si_scaling_pair.lock"
    deadline = time.monotonic() + float(
        os.environ.get("SI_TEST_LOCK_WAIT_S", "360"))
    while os.path.exists(lock) and time.monotonic() < deadline:
        time.sleep(5)


def pytest_sessionfinish(session, exitstatus):
    try:
        if os.path.exists(_BUSY):
            with open(_BUSY) as f:
                if f.read().startswith("pytest"):
                    os.unlink(_BUSY)
    except OSError:
        pass


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per harness contract)."""
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def ray_counts():
    """Live counts of the Ray Data executions and Ray task submissions
    this test starts (``util.counting_ray_work``); reset a key to count
    from a later point."""
    from search_ingest_ray.util import counting_ray_work
    with counting_ray_work() as counts:
        yield counts


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """Small deterministic webpage corpus shared across tests."""
    from search_ingest_ray.corpus import write_corpus
    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, num_docs=400, num_files=4, seed=42)
    return d
