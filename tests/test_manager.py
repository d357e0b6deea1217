"""Multi-table orchestration (G6) tests."""

from search_ingest_ray.pipelines.manager import ManagedTable, TableManager


def test_table_manager_backfill_all(ray_session, corpus_dir, tmp_path):
    kw = dict(html_col="html", chunk_files=4, num_term_partitions=2)
    mgr = TableManager(str(tmp_path / "base"), [
        ManagedTable("pages_a", corpus_dir, kw),
        ManagedTable("pages_b", corpus_dir, kw),
    ], max_concurrent=2)
    assert not mgr.consistent_indices()
    results = mgr.backfill_all()
    assert set(results) == {"pages_a", "pages_b"}
    assert mgr.load_success()
    assert mgr.consistent_indices()
    # reindex_all empties (G4/S8 analog)
    mgr.reindex_all()
    assert not mgr.consistent_indices()
