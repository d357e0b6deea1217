"""Systematic null-robustness sweep over every docvalue-consuming query.

The round-3 and round-4 advisors each found a query whose docvalue fetch
mishandled missing values (terms_set/distance_feature misalignment,
composite null keys).  Instead of fixing those one at a time, this sweep
builds one index whose stored fields exercise ALL the missing-value
shapes at once —

- ``stars``: int64, nulls on some matched docs,
- ``lang``:  string, nulls on some matched docs (object-dtype sort path),
- ``ghost``: int64, null on EVERY doc (the n=0 aggregate edge),
- ``ts``:    timestamp[us], partial nulls (the cast chain),

— and calls every field-parameterized Searcher method against each
type-appropriate field, once over a match set that covers every doc and
once over an empty match set.  Each call's rows and column types are
pinned in ``null_sweep_pins.json``; all-null fields behave as an empty
match (ES skips docs without the field).  Any future docvalue consumer
added to Searcher should be appended to :func:`_sweep`, with its pin.
"""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.index.build import build_index
from search_ingest_ray.query.searcher import Searcher

ROWS = [
    # url, text, stars, lang, ts(us since epoch)
    ("n0", "alpha beta gamma",  5,    "en", 1_700_000_000_000_000),
    ("n1", "alpha alpha beta",  None, None, None),
    ("n2", "beta gamma delta",  7,    "de", 1_700_003_600_000_000),
    ("n3", "alpha delta",       None, "en", None),
    ("n4", "alpha beta beta",   1,    None, 1_700_007_200_000_000),
    ("n5", "gamma gamma alpha", None, "fr", 1_700_000_000_000_000),
]
TERMS = ["alpha", "beta"]   # every doc contains one of them
NO_MATCH = ["zzz"]          # no doc does: the empty match set
H = 3_600_000_000

PINS_PATH = os.path.join(os.path.dirname(__file__), "null_sweep_pins.json")


@pytest.fixture(scope="module")
def sweep_searcher(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("nullsweep")
    t = pa.table({
        "url": [r[0] for r in ROWS],
        "text": [r[1] for r in ROWS],
        "stars": pa.array([r[2] for r in ROWS], pa.int64()),
        "lang": pa.array([r[3] for r in ROWS], pa.string()),
        "ghost": pa.array([None] * len(ROWS), pa.int64()),
        "ts": pa.array([r[4] for r in ROWS], pa.timestamp("us")),
    })
    pq.write_table(t, str(d / "docs.parquet"))
    root = str(d / "idx")
    build_index([str(d / "docs.parquet")], root, analyzer="simple",
                num_term_partitions=2,
                store_fields=["stars", "lang", "ghost", "ts"])
    return Searcher(root)


def _sweep(terms):
    """(name, method, args, kwargs): every docvalue consumer of Searcher
    over the match set of ``terms``, per type-appropriate field."""
    calls = []
    for f in ("stars", "ghost"):
        calls += [
            ("search_sort_by", (terms, f), {}),
            ("agg_stats", (terms, f), {}),
            ("agg_histogram", (terms, f, 2), {}),
            ("agg_cardinality", (terms, f), {}),
            ("agg_extended_stats", (terms, f), {}),
            ("agg_composite", (terms, [f]), {"size": 3}),
            ("function_score_linear", (terms, f), {"origin": 3, "scale": 4}),
            ("rank_feature_saturation", (terms, f), {"pivot": 3}),
            ("agg_cumulative_histogram", (terms, f, 2), {}),
            ("agg_multi_terms", (terms, [f]), {}),
            ("agg_range", (terms, f, [2, 5]), {}),
            ("agg_percentiles", (terms, f, [50, 99]), {}),
            ("terms_set", (terms, f), {}),
            ("distance_feature", (terms, f), {"origin": 3, "pivot": 2}),
            ("agg_percentile_ranks", (terms, f, [3]), {}),
            ("facet_stats", (terms, "lang", f), {}),
            ("facet_stats", (terms, f, "stars"), {}),
            ("agg_weighted_avg", (terms, f, "stars"), {}),
            ("agg_weighted_avg", (terms, "stars", f), {}),
            ("function_score_gauss", (terms, f), {"origin": 3, "scale": 4}),
            ("agg_date_range", (terms, f, [2, 5]), {}),
            ("agg_cumulative_cardinality", (terms, "ts", f, H), {}),
            ("agg_mad", (terms, f), {}),
            ("agg_boxplot", (terms, f), {}),
            ("matrix_stats", (terms, f, "stars"), {}),
            ("top_metrics", (terms, f, "stars"), {}),
            ("top_metrics", (terms, "stars", f), {}),
            ("t_test", (terms, f, "stars"), {}),
        ]
    f = "lang"
    calls += [
        ("facet_counts", (terms, f), {}),
        ("agg_top_hits", (terms, f), {}),
        ("collapse_top", (terms, f), {}),
        ("agg_composite", (terms, [f]), {"size": 3}),
        ("agg_composite", (terms, [f, "stars"]), {"size": 3}),
        ("agg_multi_terms", (terms, [f]), {}),
        ("agg_multi_terms", (terms, [f, "stars"]), {}),
        ("string_stats", (terms, f), {}),
        ("diversified_sampler", (terms, f), {"max_per": 1}),
        ("search_docs", (terms,), {"return_fields": ["stars", f, "ts"]}),
    ]
    calls += [
        ("agg_date_histogram", (terms, "ts", H), {}),
        ("agg_moving_selected", (terms, "ts", H), {"window": 2, "min_n": 1}),
        ("search_sort_by", (terms, "ts"), {}),
        ("agg_auto_date_histogram", (terms, "ts", 10), {}),
        ("agg_stats_bucket", (terms, "ts", H), {}),
        ("agg_normalize", (terms, "ts", H), {}),
        ("agg_bucket_script", (terms, terms, "ts", H), {}),
        ("agg_percentiles_bucket", (terms, "ts", H, [50, 99]), {}),
        ("agg_bucket_sort", (terms, "ts", H), {"size": 3}),
        ("agg_moving_percentile", (terms, "ts", H), {"window": 2}),
        ("agg_date_range", (terms, "ts", [1_700_003_600_000_000]), {}),
        ("agg_cumulative_cardinality", (terms, "ts", "stars", H), {}),
        ("agg_derivative", (terms, "ts", H), {}),
        ("agg_max_bucket", (terms, "ts", H), {}),
        ("agg_rate", (terms, "ts", H, 60_000_000), {}),
    ]
    return calls


def _call_name(method, args, kwargs) -> str:
    shown = [repr(a) for a in args[1:]] + [f"{k}={v!r}"
                                           for k, v in kwargs.items()]
    where = "" if args[0] is TERMS else " [no match]"
    return f"{method}({', '.join(shown)}){where}"


def _plain(out: pa.Table) -> dict:
    """Rows (timestamps as int64 microseconds) and column types."""
    cols = [c.cast(pa.int64()) if pa.types.is_timestamp(c.type) else c
            for c in out.columns]
    return {"types": [f"{n}:{t}" for n, t in zip(out.column_names,
                                                  out.schema.types)],
            "rows": [list(r) for r in zip(*(c.to_pylist() for c in cols))]}


def _run_sweep(s) -> dict:
    return {_call_name(m, a, kw): _plain(getattr(s, m)(*a, **kw))
            for m, a, kw in _sweep(TERMS) + _sweep(NO_MATCH)}


def test_every_docvalue_query_survives_partial_and_full_nulls(
        sweep_searcher):
    with open(PINS_PATH) as f:
        pins = json.load(f)
    got = _run_sweep(sweep_searcher)
    assert sorted(got) == sorted(pins)
    diffs = [f"{name}:\n  got  {got[name]}\n  want {pins[name]}"
             for name in pins if got[name] != pins[name]]
    assert not diffs, "\n".join(diffs)


def test_all_null_field_aggregates_as_empty(sweep_searcher):
    s = sweep_searcher
    st = s.agg_stats(TERMS, "ghost")
    assert st["n"][0].as_py() == 0
    assert st["sum"][0].as_py() == 0
    assert st["min"][0].as_py() is None
    hist = s.agg_histogram(TERMS, "ghost", 2)
    assert hist.num_rows == 0
    card = s.agg_cardinality(TERMS, "ghost")
    assert card["cardinality"][0].as_py() == 0
    ts = s.terms_set(TERMS, "ghost")
    assert ts.num_rows == 0  # every doc misses the msm field → none match
    df = s.distance_feature(TERMS, "ghost", origin=1, pivot=1)
    assert df.num_rows == 0
    pct = s.agg_percentiles(TERMS, "ghost", [50])
    assert pct["value"][0].as_py() is None or pct.num_rows >= 1


def test_agg_range_excludes_missing_values(sweep_searcher):
    # stars = {5, 7, 1, null×3}; counting the nulls as INT64_MIN would put
    # all 3 in the open low bucket
    out = sweep_searcher.agg_range(TERMS, "stars", [2, 5])
    assert out["n"].to_pylist() == [1, 0, 2]


def test_facet_stats_skips_nan_and_null_keys_and_values(sweep_searcher):
    s = sweep_searcher
    # group=lang ('en':n0,n3  'de':n2  'fr':n5  null:n1,n4): null bucket
    # dropped; n counts docs WITH the stat field (n3 misses stars)
    out = s.facet_stats(TERMS, "lang", "stars")
    rows = {r["lang"]: r for r in out.to_pylist()}
    assert set(rows) == {"en", "de", "fr"}
    assert rows["en"]["n"] == 1 and rows["en"]["sum"] == 5
    assert rows["de"]["n"] == 1 and rows["de"]["sum"] == 7
    assert rows["fr"]["n"] == 0 and rows["fr"]["sum"] == 0
    assert rows["fr"]["min"] is None and rows["fr"]["avg_micro"] is None
    # int group keys come back typed int64, null keys dropped
    out2 = s.facet_stats(TERMS, "stars", "stars")
    assert out2["stars"].type == pa.int64()
    assert out2.num_rows == 3  # values 1, 5, 7 — no null bucket


def test_multi_terms_drops_missing_key_docs(sweep_searcher):
    out = sweep_searcher.agg_multi_terms(TERMS, ["stars"])
    keys = out["stars"].to_pylist()
    assert None not in keys and out["stars"].type == pa.int64()
    assert sorted(keys) == [1, 5, 7]


def test_serve_returns_json_null_for_missing_docvalue(sweep_searcher):
    # json.dumps(float('nan')) emits bare NaN — invalid JSON a strict
    # client rejects; a hit decorated with a missing int field must come
    # back as JSON null instead
    from search_ingest_ray.serve import ServeSession
    sess = ServeSession(sweep_searcher.index_root)
    resp = sess.handle({"op": "query", "id": 1, "query": "alpha beta",
                        "k": 10, "fields": ["stars"]})
    assert resp["ok"], resp
    wire = json.dumps(resp)  # must not raise / emit NaN
    back = json.loads(wire)
    stars = [h["stars"] for h in back["hits"]]
    assert None in stars and all(
        v is None or isinstance(v, int) for v in stars)


def test_partial_null_sort_places_every_matched_doc(sweep_searcher):
    # sort-by-field must not LOSE docs whose field is null (ES sorts
    # missing last by default); we assert the full match set is returned
    s = sweep_searcher
    out = s.search_sort_by(TERMS, "stars", k=100)
    assert out.num_rows == 6  # every doc matches alpha|beta
    vals = out["stars"].to_pylist()
    assert sum(v is None for v in vals) == 3
    # missing sorts LAST regardless of direction (ES ``missing: _last``)
    assert vals[:3] == [7, 5, 1] and vals[3:] == [None, None, None]
    asc = s.search_sort_by(TERMS, "stars", k=100, descending=False)
    avals = asc["stars"].to_pylist()
    assert avals[:3] == [1, 5, 7] and avals[3:] == [None, None, None]
