"""Driver contract for the Ray-Data-native search/index engine.

``entry()`` runs the flagship build+query pipeline on sf0.001;
``queries()`` exposes one callable per implemented operator (SURVEY.md §2),
``oracle_sql()`` the DuckDB-equivalent SQL for the SQL-expressible ones.
Column names/types match between each Ray result and its oracle.

Ray is initialised by the driver before import — nothing here calls
``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa

# A fixed 2-term query for the BM25 oracle: 2-term float sums are
# order-insensitive bit-exact, so engine and SQL agree without tolerance.
BM25_QUERY_TERMS = ("merge", "scan")
BM25_K = 10
RRF_DEPTH = 20  # per-retriever candidate depth fed into the RRF fusion
# mirror of pipelines.flagship.CHAIN_UPDATE_SUFFIX for the SQL oracle
_CHAIN_SUFFIX = " freshly updated merge scan notes"
STOP_SQL = "('the','and','of','a','to','in','is','it','for','on')"

_TOKS = "regexp_extract_all(lower(text), '[a-z0-9]+')"

# mirrors of pipelines.flagship.GEO_LAT_SQL / GEO_LON_SQL (tested equal)
_GEO_LAT = "(-60.0 + ((doc_id % 120001) * 7919 % 120001) / 1000.0)"
_GEO_LON = "(-170.0 + ((doc_id % 340001) * 104729 % 340001) / 1000.0)"


def _docs(sf_dir: str):
    import ray.data as rd
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))


# ---------------------------------------------------------------------------
# individual query implementations


def q_doc_count_by_lang(sf_dir: str):
    """Pruned read (ONLY the lang column leaves storage) + in-batch
    partial counts, then a tiny groupby-sum over one row per
    (block, lang) — never a per-doc shuffle."""
    import ray.data as rd
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["lang"])
    pre = ds.map_batches(
        lambda t: (t.group_by("lang").aggregate([([], "count_all")])
                   .rename_columns(["lang", "n"])),
        batch_format="pyarrow")
    g = pre.groupby("lang").sum("n")
    return g.map_batches(lambda t: t.rename_columns(["lang", "n"]),
                         batch_format="pyarrow")


def q_token_count(sf_dir: str):
    from search_ingest_ray.functions.textstats import token_count_batch
    ds = _docs(sf_dir).map_batches(token_count_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_tokens"])


def q_corpus_stats(sf_dir: str):
    """Document count, token total and micro-unit avgdl of the corpus:
    one aggregate over the tokenize plan, so it runs once (a ``count()``
    then a ``sum()`` would run it twice)."""
    from ray.data.aggregate import Count, Sum

    from search_ingest_ray.functions.textstats import token_count_batch
    agg = (_docs(sf_dir).map_batches(token_count_batch, batch_format="pyarrow")
           .aggregate(Count(), Sum("n_tokens")))
    n_docs = int(agg["count()"])
    total = agg["sum(n_tokens)"] or 0
    avgdl_micro = int(np.floor(total / n_docs * 1e6)) if n_docs else 0
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "total_tokens": pa.array([int(total)], pa.int64()),
        "avgdl_micro": pa.array([avgdl_micro], pa.int64()),
    })


def _postings(sf_dir: str):
    from search_ingest_ray.stages.analyze import PostingEmitter
    emitter = PostingEmitter(text_col="text", id_col="doc_id",
                             id_is_int=True, analyzer="simple")
    return _docs(sf_dir).map_batches(emitter, batch_format="pyarrow",
                                     batch_size=512)


def q_term_df(sf_dir: str):
    ds = _postings(sf_dir).groupby("term").count()
    return ds.map_batches(lambda t: t.rename_columns(["term", "df"]),
                          batch_format="pyarrow")


def q_top_terms(sf_dir: str):
    ds = _postings(sf_dir).groupby("term").sum("tf")
    ds = ds.map_batches(
        lambda t: pa.table({"term": t["term"],
                            "cf": t["sum(tf)"].cast(pa.int64())}),
        batch_format="pyarrow")
    return ds.sort(["cf", "term"], descending=[True, False]).limit(20)


def q_bm25_topk(sf_dir: str):
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple")
    s = Searcher(root)
    d, sc = s.search_terms(list(BM25_QUERY_TERMS), k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def _q_similarity(sf_dir: str, similarity: str):
    """Shared body of the similarity-module queries: same two-term query
    and index as bm25_topk, scored under a non-BM25 similarity
    (Searcher.search_similarity — the ES per-field `similarity` setting)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple")
    s = Searcher(root)
    d, sc = s.search_similarity(list(BM25_QUERY_TERMS), k=BM25_K,
                                similarity=similarity)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_lmd_topk(sf_dir: str):
    """LM Dirichlet similarity top-k (Lucene LMDirichletSimilarity,
    mu=2000) — exact exhaustive scoring over the same index as
    bm25_topk."""
    return _q_similarity(sf_dir, "lmd")


def q_lmjm_topk(sf_dir: str):
    """LM Jelinek-Mercer similarity top-k (lambda=0.1)."""
    return _q_similarity(sf_dir, "lmjm")


def q_tfidf_topk(sf_dir: str):
    """Classic TF-IDF similarity top-k (Lucene ClassicSimilarity with
    queryNorm dropped, as Lucene 8 did)."""
    return _q_similarity(sf_dir, "classic")


def q_lmd_chain(sf_dir: str):
    """LM Dirichlet top-k over a DELTA CHAIN (the bm25_chain fixture:
    epoch-0 backfill + synthetic update/delete delta), served by
    MultiEpochSearcher.search_similarity with dead-docid suppression and
    exact current chain stats — identical to a full rebuild by the
    shared-formula SQL oracle over the final corpus."""
    from search_ingest_ray.pipelines.flagship import documents_chain_index
    from search_ingest_ray.query.multi import MultiEpochSearcher
    root = documents_chain_index(sf_dir, analyzer="simple")
    ms = MultiEpochSearcher(root)
    d, sc = ms.search_similarity(list(BM25_QUERY_TERMS), k=BM25_K,
                                 similarity="lmd")
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_lmd_sharded(sf_dir: str):
    """LM Dirichlet top-k via the scatter-gather sharded serving path:
    per-term-partition shard actors hold the dictionaries + posting mmaps
    and ShardedSearcher._lookup gathers only the query terms' lists, so
    search_similarity's exhaustive decode runs on shard-fetched rows —
    proven identical to lmd_topk by the shared SQL oracle."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.sharded import ShardedSearcher
    root = documents_index(sf_dir, analyzer="simple")
    s = ShardedSearcher(root)
    d, sc = s.search_similarity(list(BM25_QUERY_TERMS), k=BM25_K,
                                similarity="lmd")
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bm25_sharded(sf_dir: str):
    """Scatter-gather sharded serving: the SAME top-k as bm25_topk, served
    by per-term-partition shard actors (each holding 1/P of the
    dictionary) behind a ShardedSearcher coordinator — the multi-node
    serving shape, proven rank- and score-identical by the shared
    oracle."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.sharded import ShardedSearcher
    root = documents_index(sf_dir, analyzer="simple")
    s = ShardedSearcher(root)
    d, sc = s.search_terms(list(BM25_QUERY_TERMS), k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bm25_chain(sf_dir: str):
    """BM25 top-k over a DELTA CHAIN (epoch 0 backfill + a deterministic
    synthetic update/delete delta applied in mode="delta"), served by
    MultiEpochSearcher with dead-docid suppression, exact current stats and
    dead-term-patch pruning — the incremental-epoch path as a driver-facing
    SQL-oracled artifact, not just a pytest one."""
    from search_ingest_ray.pipelines.flagship import documents_chain_index
    from search_ingest_ray.query.multi import MultiEpochSearcher
    root = documents_chain_index(sf_dir, analyzer="simple")
    ms = MultiEpochSearcher(root)
    d, sc = ms.search_terms(list(BM25_QUERY_TERMS), k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bm25_compacted(sf_dir: str):
    """BM25 top-k after CHAIN COMPACTION (epochs.compact_chain — the ES
    force-merge analog): the same backfill+delta chain as bm25_chain,
    rolled into a new single FULL epoch (buckets untouched by the delta
    hard-link-reuse their postings from epoch 0).  Serving collapses to
    one epoch — no dead-docid masks or df patches — and results must be
    bit-identical to the live chain's, so the SQL oracle is shared with
    bm25_chain."""
    from search_ingest_ray.pipelines.flagship import documents_chain_index
    from search_ingest_ray.query.multi import MultiEpochSearcher
    root = documents_chain_index(sf_dir, analyzer="simple", compact=True)
    ms = MultiEpochSearcher(root)
    d, sc = ms.search_terms(list(BM25_QUERY_TERMS), k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bool_chain(sf_dir: str):
    """Bool query (must/should/must_not, integer micro scores) over the
    DELTA CHAIN — the shared bool_combine fed by chain-wide suppressed
    postings with current stats; identical to a full rebuild."""
    from search_ingest_ray.pipelines.flagship import documents_chain_index
    from search_ingest_ray.query.multi import MultiEpochSearcher
    root = documents_chain_index(sf_dir, analyzer="simple")
    ms = MultiEpochSearcher(root)
    d, m = ms.search_bool(list(BM25_QUERY_TERMS), should=["window"],
                          must_not=["spark"], k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


def q_suggest(sf_dir: str):
    """Prefix completion over the documents-index term dictionary (the
    engine-native analog of the ES ``completion`` type): top-10 terms with
    prefix 's', ranked by (-df, term)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    out = s.suggest("s", k=10)
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "df": pa.array([d for _, d in out], pa.int64()),
    })


DOC_FIELDS = ("lang", "n_chars", "source", "text", "doc_id")


def _fields_index(sf_dir: str) -> str:
    from search_ingest_ray.pipelines.flagship import documents_index
    return documents_index(sf_dir, analyzer="simple",
                           store_fields=DOC_FIELDS)


def q_bm25_filtered(sf_dir: str):
    """Filtered BM25 (structured keyword filter): top-k restricted to
    lang='de'; scores use GLOBAL corpus stats (ES filter semantics)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    d, sc = s.search_terms(list(BM25_QUERY_TERMS), k=BM25_K,
                           filters={"lang": "de"})
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bm25_filtered_range(sf_dir: str):
    """Filtered BM25 with a numeric range + keyword-set filter:
    150 ≤ n_chars ≤ 350 AND source ∈ {src3, src7}."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    d, sc = s.search_terms(list(BM25_QUERY_TERMS), k=BM25_K,
                           filters={"n_chars": ("range", 150, 350),
                                    "source": ("in", ["src3", "src7"])})
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score": pa.array(np.round(sc, 4), pa.float64()),
    })


def q_bm25_topk_docs(sf_dir: str):
    """Docstore retrieval: top-k BM25 returning stored fields (lang,
    source), not just docids — the analog of ES hits carrying documents."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    t = s.search_docs(list(BM25_QUERY_TERMS), k=BM25_K,
                      return_fields=["lang", "source"])
    return pa.table({
        "doc_id": t["doc_id"],
        "score": pa.array(np.round(np.asarray(t["score"]), 4), pa.float64()),
        "lang": t["lang"],
        "source": t["source"],
    })


def q_keyword_exact(sf_dir: str):
    """Exact match on a TEXT column's keyword subfield: the generated
    mapping promises text+keyword multi-fields (T2, ref schemas.cr:313-322)
    — filter by the VERBATIM untokenized value (two probe texts via "in"),
    served from the docvalues sidecar as an ES constant_score term query.
    Docs that analyze identically but differ verbatim never match.

    Probe selection is footer-pruned: Parquet row-group statistics locate
    the row groups holding the global min/max doc_id, so only those row
    groups' (doc_id, text) are read — the query CONSTRUCTOR never pulls
    the full text column onto the driver (at 100× scale that read would
    OOM long before the operator ran)."""
    import pyarrow.parquet as pq
    from search_ingest_ray.query.searcher import Searcher
    pf = pq.ParquetFile(os.path.join(sf_dir, "documents.parquet"))
    names = pf.schema_arrow.names
    ci = names.index("doc_id")
    stats = [pf.metadata.row_group(i).column(ci).statistics
             for i in range(pf.metadata.num_row_groups)]
    if all(s is not None and s.has_min_max for s in stats):
        groups = sorted({int(np.argmin([s.min for s in stats])),
                         int(np.argmax([s.max for s in stats]))})
    else:  # stats-less writer: fall back to the full (pruned-column) read
        groups = list(range(pf.metadata.num_row_groups))
    t = pf.read_row_groups(groups, columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy()
    txt = t["text"].to_pylist()
    probes = [txt[int(np.argmin(ids))], txt[int(np.argmax(ids))]]
    s = Searcher(_fields_index(sf_dir))
    d = s.filter_docs({"text": ("in", probes)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


# geo filter fixtures: center in the mid-ocean of the synthetic coordinate
# space, radius chosen so no doc sits near the haversine boundary (nearest
# synthetic points are km apart; trig ulp skew is micrometres)
GEO_CENTER = (37.7749, -122.4194)
GEO_RADIUS_M = 2_500_000.0
GEO_BOX = (50.0, -60.0, 10.0, 40.0)   # top, left, bottom, right


def q_geo_distance(sf_dir: str):
    """ES geo_distance filter: docs whose synthetic geo_point lies within
    GEO_RADIUS_M haversine metres of GEO_CENTER, served from the
    (geo_lat, geo_lon) docvalue pair (constant_score filter context).
    The numpy op order in FieldStore._geo_mask matches the SQL oracle's
    expression exactly; see geo_coords for the coordinate derivation."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    lat0, lon0 = GEO_CENTER
    d = s.filter_docs({"geo": ("geo_distance", lat0, lon0, GEO_RADIUS_M)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


IP_CIDR = "10.16.0.0/12"
MBP_PREFIX = "sca"


def q_ip_cidr(sf_dir: str):
    """ES `ip`-typed CIDR filter as a driver query (previously pytest-only):
    docs whose synthetic dotted-quad ip ("10.{7i%256}.{13i%256}.{i%256}")
    falls in 10.16.0.0/12.  A /12 keeps the first octet and the top 4 bits
    of the second, so membership ⇔ second octet ∈ [16, 32) — the SQL
    oracle tests the octet arithmetic directly while the engine parses the
    stored strings through FieldStore's cidr mask."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    d = s.filter_docs({"ip": ("cidr", IP_CIDR)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


def q_match_bool_prefix(sf_dir: str):
    """ES match_bool_prefix: 'merge' as a scored bool SHOULD term clause +
    trailing prefix 'sca' as a constant-score prefix query (+1e6 micro for
    docs containing any dictionary term with the prefix)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    d, m = s.match_bool_prefix([BM25_QUERY_TERMS[0]], MBP_PREFIX, k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


GEOTILE_ZOOM = 4
RANDOM_SCORE_SEED = 7


def q_geotile(sf_dir: str):
    """ES geotile_grid aggregation: Web-Mercator slippy-map tile buckets
    (zoom 4) over the match set's geo_points; tile math mirrors the SQL
    oracle's IEEE op sequence exactly."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    return s.agg_geotile(list(BM25_QUERY_TERMS), "geo", zoom=GEOTILE_ZOOM)


GEOHASH_PRECISION = 3
MOVING_PCT_WINDOW, MOVING_PCT = 3, 50


IP_PREFIX_LEN = 16


def q_ip_prefix(sf_dir: str):
    """ES ip_prefix aggregation: /16 network-prefix buckets over the
    match set's ip-typed docvalues — the engine parses the stored dotted
    strings, the oracle mirrors the synthetic generator's octet
    arithmetic (10.(7·id%256).x.x → prefix int 10<<24 | octet<<16)."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    return s.agg_ip_prefix(list(BM25_QUERY_TERMS), "ip",
                           prefix_len=IP_PREFIX_LEN)


def q_geohash(sf_dir: str):
    """ES geohash_grid aggregation (precision 3): INTEGER-EXACT cell ids
    — quantize lat/lon with floor division, interleave bits lon-first —
    no trig, so the SQL oracle mirrors with pure arithmetic."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    return s.agg_geohash_grid(list(BM25_QUERY_TERMS), "geo",
                              precision=GEOHASH_PRECISION)


def q_moving_percentile(sf_dir: str):
    """ES moving_percentiles pipeline agg (exact nearest-rank p50 over
    the previous 3 buckets, current excluded; first bucket NULL) on the
    hourly purchase histogram."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_moving_percentile(["purchase"], "ts", HOUR_US,
                                   MOVING_PCT_WINDOW, MOVING_PCT)


def q_geo_sort(sf_dir: str):
    """ES sort-by-_geo_distance (asc): the match set's top-k nearest
    geo_points to GEO_CENTER by haversine; the engine's IEEE op sequence
    mirrors the SQL oracle exactly (FieldStore._geo_mask discipline), so
    the ORDER is deterministic — millidegree-quantized fixtures keep
    distinct points far past trig ulp skew."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    lat0, lon0 = GEO_CENTER
    return s.sort_by_geo_distance(list(BM25_QUERY_TERMS), "geo",
                                  lat0, lon0, k=BM25_K)


def q_random_score(sf_dir: str):
    """ES function_score random_score (seeded, deterministic): per-doc
    md5-low64('<seed>:'||doc_id) % 1e6 over the match set, top-10 —
    the reproducible-sampling scorer, exact DuckDB parity."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.random_score(list(BM25_QUERY_TERMS), seed=RANDOM_SCORE_SEED)


def q_geo_bbox(sf_dir: str):
    """ES geo_bounding_box filter over the same synthetic geo_point pair
    (pure coordinate comparisons — bit-exact vs the SQL oracle)."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    top, left, bottom, right = GEO_BOX
    d = s.filter_docs({"geo": ("geo_bbox", top, left, bottom, right)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


# non-convex "dart" ring (lat, lon) — the concave vertex (10, 0) makes
# even-odd ray casting observable (a convex hull test would disagree);
# vertices sit on .0005 off-grid offsets so no synthetic point (grid step
# 0.001°) ever lies ON an edge → the PNPOLY division is ulp-safe
GEO_POLY = ((40.0005, -50.0005), (45.0005, 0.0005), (40.0005, 50.0005),
            (10.0005, 0.0005), (-20.0005, 0.0005))


def q_geo_polygon(sf_dir: str):
    """ES geo_polygon filter: planar even-odd ray casting over a
    NON-CONVEX ring, served from the (geo_lat, geo_lon) docvalue pair.
    The per-edge crossing expression in FieldStore._geo_mask mirrors the
    unrolled SQL oracle op-for-op."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    d = s.filter_docs({"geo": ("geo_polygon", GEO_POLY)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


# geo_shape probe rect (top, left, bottom, right): sized so intersects /
# within / contains are all non-empty against the synthetic envelopes
GEO_SHAPE_RECT = (30.0, -40.0, 5.0, 10.0)


def q_geo_shape(sf_dir: str):
    """ES geo_shape query over ENVELOPE shapes (the ES `envelope` type):
    each doc stores a deterministic envelope quad (shape_lat_min/max,
    shape_lon_min/max); all four ES spatial relations run against one
    probe rectangle — pure interval algebra, bit-exact vs the SQL
    oracle.  Returns (relation, doc_id) rows."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    rels, ids = [], []
    for rel in ("intersects", "within", "contains", "disjoint"):
        d = s.filter_docs({"shape": (f"geo_shape_{rel}", *GEO_SHAPE_RECT)})
        rels.extend([rel] * len(d))
        ids.extend(d.tolist())
    return pa.table({"relation": pa.array(rels, pa.string()),
                     "doc_id": pa.array(ids, pa.int64())})


def q_exists(sf_dir: str):
    """ES `exists` query (constant_score filter context): docs with a
    non-null value for the nullable int64 alt_m docvalue (null when
    id%5==0)."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    d = s.filter_docs({"alt_m": ("exists",)})
    return pa.table({"doc_id": pa.array(d, pa.int64())})


def q_bool_query(sf_dir: str):
    """ES bool query: must=[merge, scan] (conjunction, both scored),
    should=[window] (scores when present), must_not=[spark] (excludes).
    Integer micro-unit scores (Σ floor(idf·tfnorm·1e6)) make the 3-term
    sum order-insensitive, so the DuckDB oracle is bit-exact."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    d, m = s.search_bool(list(BM25_QUERY_TERMS), should=["window"],
                         must_not=["spark"], k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


FUZZY_PROBE = "merg"
WILDCARD_PATTERN = "m*e"


def q_fuzzy(sf_dir: str):
    """Fuzzy term expansion (ES fuzzy-query rewrite): dictionary terms
    within Levenshtein distance 1 of the probe, ranked (-df, term)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    out = s.fuzzy_terms(FUZZY_PROBE, max_dist=1, k=10)
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "df": pa.array([d for _, d in out], pa.int64()),
    })


def q_wildcard(sf_dir: str):
    """Wildcard term expansion (ES wildcard query) over the dictionary."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    out = s.wildcard_terms(WILDCARD_PATTERN, k=10)
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "df": pa.array([d for _, d in out], pa.int64()),
    })


def q_facet_lang(sf_dir: str):
    """Terms-aggregation (ES aggs) in filter context: language facet
    counts over documents matching ANY of the query terms, resolved from
    the docvalues sidecar — scoring skipped entirely."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.facet_counts(list(BM25_QUERY_TERMS), "lang")


def q_search_after(sf_dir: str):
    """ES search_after cursor pagination: page 2 (ranks 11-20) of the
    micro-scored disjunction, reached by passing page 1's last
    (score_micro, doc_id) as the cursor — one vectorized strict-after
    mask, no offset re-scan."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    d1, m1 = s.search_after(list(BM25_QUERY_TERMS), k=BM25_K)
    if d1.size == 0:  # no page 1 on this corpus → empty page 2
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score_micro": pa.array([], pa.int64())})
    cursor = (int(m1[-1]), int(d1[-1]))
    d2, m2 = s.search_after(list(BM25_QUERY_TERMS), k=BM25_K, after=cursor)
    return pa.table({
        "doc_id": pa.array(d2, pa.int64()),
        "score_micro": pa.array(m2, pa.int64()),
    })


MLT_SEED_DOC = 0
MLT_TERMS = 3


def q_mlt(sf_dir: str):
    """ES more_like_this: the seed doc's top-3 terms by tf·idf micro units
    (docstore text + term-dictionary global df), then the micro-scored
    disjunction over them with the seed excluded."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    _, d, m = s.more_like_this(MLT_SEED_DOC, max_terms=MLT_TERMS, k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


def q_highlight(sf_dir: str):
    """ES highlight anchors: first position (source-token ordinal) of each
    query term in the top-10 docs of the micro-scored disjunction, read
    from the positional index — no document re-analysis."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    return s.highlight_first(list(BM25_QUERY_TERMS), k=BM25_K)


HIST_INTERVAL = 50
HOUR_US = 3_600_000_000


def q_agg_stats(sf_dir: str):
    """ES stats aggregation in filter context: n/min/max/sum/avg over the
    n_chars docvalue of docs matching ANY query term.  avg is exact
    integer micro units ((sum*1e6) // n) so the oracle is bit-identical."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_stats(list(BM25_QUERY_TERMS), "n_chars")


def q_matrix_stats(sf_dir: str):
    """ES matrix_stats aggregation: exact-integer means/variances/
    covariance/correlation² between two docvalues over the match set
    (pairwise deletion, truncating division for SQL parity)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.matrix_stats(list(BM25_QUERY_TERMS), "n_chars", "doc_id")


def q_top_metrics(sf_dir: str):
    """ES top_metrics aggregation: metric values at the top-5 match-set
    docs by (n_chars DESC, doc_id ASC)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.top_metrics(list(BM25_QUERY_TERMS), "n_chars", "doc_id", k=5)


def q_mad(sf_dir: str):
    """ES median_absolute_deviation aggregation, exact nearest-rank
    flavor (lower median of |x − lower-median|)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_mad(list(BM25_QUERY_TERMS), "n_chars")


def q_boxplot(sf_dir: str):
    """ES boxplot aggregation: min/q1/q2/q3/max of the match set's
    n_chars docvalues, exact nearest-rank quartiles."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_boxplot(list(BM25_QUERY_TERMS), "n_chars")


def q_string_stats(sf_dir: str):
    """ES string_stats aggregation over the match set's lang docvalue:
    count, min/max/avg length (integer micro) and Shannon character
    entropy in bits (sequential char-ascending IEEE sum, micro-floored —
    mirrored literally by the oracle's running window sum)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.string_stats(list(BM25_QUERY_TERMS), "lang")


def q_t_test(sf_dir: str):
    """ES t_test aggregation (paired) between n_chars and doc_id over
    the match set: exact bigint sufficient statistics + a fixed double
    op sequence for the t statistic, micro-floored."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.t_test(list(BM25_QUERY_TERMS), "n_chars", "doc_id")


SAMPLER_MAX_PER = 2
SAMPLER_SHARD_SIZE = 7


def q_sampler(sf_dir: str):
    """ES diversified_sampler aggregation: at most SAMPLER_MAX_PER docs
    per lang walking the match set in docid order, capped at
    SAMPLER_SHARD_SIZE total."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.diversified_sampler(list(BM25_QUERY_TERMS), "lang",
                                 max_per=SAMPLER_MAX_PER,
                                 shard_size=SAMPLER_SHARD_SIZE)


def q_agg_histogram(sf_dir: str):
    """ES histogram aggregation: n_chars bucketed at width 50 over the
    match set, empty buckets omitted (min_doc_count=1)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_histogram(list(BM25_QUERY_TERMS), "n_chars", HIST_INTERVAL)


MM_TERMS = ("merge", "src3")


def q_multi_match(sf_dir: str):
    """ES multi_match best_fields over two per-field indexes (text,
    source): each field has its own inverted index and corpus stats
    (Lucene's model); the combined score is the per-doc MAX of the field
    micro scores."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher, multi_match
    s_text = Searcher(documents_index(sf_dir, analyzer="simple"))
    s_src = Searcher(documents_index(sf_dir, analyzer="simple",
                                     text_col="source"))
    d, m = multi_match([s_text, s_src], list(MM_TERMS), k=BM25_K,
                       mode="best_fields")
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


MSM_TERMS = ("merge", "scan", "window")
MM_BOOSTS = (1, 3)


def q_min_should_match(sf_dir: str):
    """ES minimum_should_match: micro-scored disjunction over 3 terms
    restricted to docs matching >= 2 distinct terms."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    d, m = s.search_minimum_should(list(MSM_TERMS), min_match=2, k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


def q_sort_by_field(sf_dir: str):
    """ES sort-by-docvalue: the OR match set ordered by (n_chars desc,
    doc_id) — scoring skipped, sort key from the docvalues sidecar."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.search_sort_by(list(BM25_QUERY_TERMS), "n_chars", k=BM25_K,
                            descending=True)


def q_multi_match_boost(sf_dir: str):
    """ES multi_match most_fields with per-field integer boosts
    (text^1, source^3): boosted micro sums stay oracle-exact."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher, multi_match
    s_text = Searcher(documents_index(sf_dir, analyzer="simple"))
    s_src = Searcher(documents_index(sf_dir, analyzer="simple",
                                     text_col="source"))
    d, m = multi_match([s_text, s_src], list(MM_TERMS), k=BM25_K,
                       mode="most_fields", boosts=list(MM_BOOSTS))
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


def q_termvectors(sf_dir: str):
    """ES _termvectors for doc 0: (term, tf, global df) from the docstore
    text + dictionary stats."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.term_vectors(0)


def q_explain(sf_dir: str):
    """ES _explain: per-term (tf, df, dl, score_micro) breakdown for the
    micro-disjunction's top-1 doc — the rows sum to the score the bool /
    search_after queries report for that doc."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    d, _ = s.search_after(list(BM25_QUERY_TERMS), k=1)
    return s.explain(list(BM25_QUERY_TERMS), int(d[0]))


RANGE_EDGES = (150, 250, 350)


def q_facet_stats(sf_dir: str):
    """Nested aggregation: per-lang bucket over the match set with nested
    n_chars stats (the ES sub-agg shape: terms bucket + stats leaf)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.facet_stats(list(BM25_QUERY_TERMS), "lang", "n_chars")


def q_cardinality(sf_dir: str):
    """ES cardinality agg (exact distinct here; ES itself approximates
    with HLL++): distinct source values over the match set."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_cardinality(list(BM25_QUERY_TERMS), "source")


def q_agg_range(sf_dir: str):
    """ES range agg: [lo, hi) buckets incl. the open ends over n_chars;
    empty buckets returned (ES emits every configured range)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_range(list(BM25_QUERY_TERMS), "n_chars", list(RANGE_EDGES))


REGEXP_PATTERN = "m[a-z]*e"
COMPOSITE_SOURCES = ("lang", "source")
COMPOSITE_AFTER = ("en", "src4")
COMPOSITE_SIZE = 7
FS_ORIGIN, FS_SCALE = 300, 250


def q_regexp(sf_dir: str):
    """Regexp term expansion (ES regexp query): dictionary terms fully
    matching the pattern, ranked (-df, term) — same per-partition
    dictionary scan as fuzzy/wildcard."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    out = s.regexp_terms(REGEXP_PATTERN, k=10)
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "df": pa.array([d for _, d in out], pa.int64()),
    })


def q_ext_stats(sf_dir: str):
    """ES extended_stats in filter context: n/min/max/sum/sum_sq plus
    exact integer-micro avg and population variance over the match set's
    n_chars docvalues."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_extended_stats(list(BM25_QUERY_TERMS), "n_chars")


def q_composite(sf_dir: str):
    """ES composite aggregation: (lang, source) buckets over the match
    set, key-ordered, page 2 via the strictly-after cursor — the
    streaming full-enumeration agg (no deep terms-agg re-aggregation)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_composite(list(BM25_QUERY_TERMS),
                           list(COMPOSITE_SOURCES), size=COMPOSITE_SIZE,
                           after=COMPOSITE_AFTER)


def q_function_score(sf_dir: str):
    """ES function_score with linear decay on a docvalue: micro-scored
    disjunction × max(0, scale-|n_chars-origin|)//scale, exact integer
    arithmetic end to end."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.function_score_linear(list(BM25_QUERY_TERMS), "n_chars",
                                   origin=FS_ORIGIN, scale=FS_SCALE,
                                   k=BM25_K)


def q_function_score_gauss(sf_dir: str):
    """ES function_score with GAUSS decay (decay=0.5 at `scale`):
    micro-scored disjunction × exp(-(n_chars-origin)²/(2σ²)),
    σ² = scale²/(2·ln2); floor to micro — double expression mirrors the
    SQL oracle op-for-op (libm exp discipline, like the geotile
    ln/tan oracle)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.function_score_gauss(list(BM25_QUERY_TERMS), "n_chars",
                                  origin=FS_ORIGIN, scale=FS_SCALE,
                                  k=BM25_K)


DIS_MAX_TB = (3, 10)
BOOSTING_NEG = "window"
BOOSTING_NB = (1, 2)
RANK_FEATURE_PIVOT = 250
PREFIX_QUERY = "me"
SPAN_FIRST_TERM, SPAN_FIRST_BOUNDARY = "merge", 5
SPAN_NEAR_SLOP = 3
CUMHIST_INTERVAL = 100
RARE_MAX_DF = 60
AGG_FILTERS = (("short", {"n_chars": ("range", None, 249)}),
               ("de", {"lang": "de"}),
               ("srcs", {"source": ("in", ["src3", "src7"])}))
ADJ_FILTERS = (("en", {"lang": "en"}),
               ("long", {"n_chars": ("range", 300, None)}))


def q_dis_max(sf_dir: str):
    """ES dis_max query: best-field score + tie_breaker×(others), exact
    integer micro arithmetic (tie_breaker 3/10)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.dis_max(list(BM25_QUERY_TERMS), k=BM25_K,
                     tie_breaker=DIS_MAX_TB)


def q_boosting(sf_dir: str):
    """ES boosting query: positive disjunction demoted (×1/2, not
    excluded) on docs matching the negative term."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.boosting(list(BM25_QUERY_TERMS), [BOOSTING_NEG],
                      negative_boost=BOOSTING_NB, k=BM25_K)


def q_rank_feature(sf_dir: str):
    """ES rank_feature (saturation) in bool should: disjunction micro +
    (1e6·v)//(v+pivot) on the n_chars docvalue."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.rank_feature_saturation(list(BM25_QUERY_TERMS), "n_chars",
                                     pivot=RANK_FEATURE_PIVOT, k=BM25_K)


def q_prefix_query(sf_dir: str):
    """ES prefix query in filter context: docs containing any term with
    the prefix, with per-doc distinct matched-term counts."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    return s.prefix_match(PREFIX_QUERY)


def q_span_first(sf_dir: str):
    """ES span_first: docs whose first 'merge' occurrence sits at
    source-token position < 5, with that position."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple",
                                 with_positions=True))
    return s.span_first(SPAN_FIRST_TERM, SPAN_FIRST_BOUNDARY)


def q_span_near(sf_dir: str):
    """ES span_near in_order=false: docs where the two terms occur within
    slop gap positions in either order (union of the two ordered sloppy
    phrase matches over the shared cross-candidate DP)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple",
                                 with_positions=True))
    d = s.span_near_unordered(*BM25_QUERY_TERMS, slop=SPAN_NEAR_SLOP)
    return pa.table({"doc_id": pa.array(np.sort(d), pa.int64())})


def q_agg_filters(sf_dir: str):
    """ES filters aggregation: named predicate buckets counted over the
    match set's docvalues."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_filters(list(BM25_QUERY_TERMS), list(AGG_FILTERS))


def q_adjacency(sf_dir: str):
    """ES adjacency_matrix aggregation: named filters and their pairwise
    intersections ("a&b"), empty buckets omitted."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_adjacency_matrix(list(BM25_QUERY_TERMS), list(ADJ_FILTERS))


def q_cum_hist(sf_dir: str):
    """ES histogram + cumulative_sum + derivative pipeline aggs over
    n_chars (interval 100) in filter context."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_cumulative_histogram(list(BM25_QUERY_TERMS), "n_chars",
                                      CUMHIST_INTERVAL)


def q_rare_terms(sf_dir: str):
    """ES rare_terms aggregation: long-tail terms with global df ≤ 2,
    ascending (df, term) — exact from the dictionary's global df."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    out = s.rare_terms(RARE_MAX_DF, k=10)
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "df": pa.array([d for _, d in out], pa.int64()),
    })


def q_multi_terms(sf_dir: str):
    """ES multi_terms aggregation: (lang, source) buckets over the match
    set ordered by count descending (terms-agg order)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_multi_terms(list(BM25_QUERY_TERMS),
                             list(COMPOSITE_SOURCES), k=10)


IDS_PROBE = (0, 1, 7, 10**12)   # last id is absent → silently dropped
PHRASE_PREFIX_FIRST = "merge"
PHRASE_PREFIX = "sc"


def q_repetition(sf_dir: str):
    """Gopher-style repetitiveness: per-doc top-bigram fraction in exact
    integer micro-units — the boilerplate/degenerate-page filter signal
    of a training-data pipeline."""
    from search_ingest_ray.functions.textstats import repetition_batch
    ds = _docs(sf_dir).map_batches(repetition_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_bigrams", "top_bigram_micro"])


def q_weighted_avg(sf_dir: str):
    """ES weighted_avg aggregation (and the pre-aggregate-then-groupby
    scale pattern): per-lang average of n_chars weighted by token count,
    exact integers — in-batch partial (Σw, Σv·w) per lang, then a tiny
    groupby-sum over one row per (block, lang), never a per-doc shuffle."""
    from search_ingest_ray.functions.textstats import (token_count_batch,
                                                       weighted_partial_batch)
    ds = (_docs(sf_dir)
          .map_batches(token_count_batch, batch_format="pyarrow")
          .map_batches(functools.partial(weighted_partial_batch,
                                         group_col="lang", val_col="n_chars",
                                         weight_col="n_tokens"),
                       batch_format="pyarrow"))
    g = ds.groupby("lang").sum(["w_sum", "wv_sum"])

    def _finalize(t: pa.Table) -> pa.Table:
        w = t["sum(w_sum)"].to_numpy().astype(np.int64)
        wv = t["sum(wv_sum)"].to_numpy().astype(np.int64)
        return pa.table({
            "lang": t["lang"],
            "wavg_micro": pa.array((wv * 1_000_000) // np.maximum(w, 1),
                                   pa.int64()),
        })

    # stays a Dataset end to end (rows = distinct langs, tiny) — no
    # driver-side pandas round-trip.
    return g.map_batches(_finalize, batch_format="pyarrow").sort("lang")


def q_ids(sf_dir: str):
    """ES ids query: docstore fetch by docid list; absent ids silently
    dropped, only the touched docid-range shards load."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.ids_query(list(IDS_PROBE), ["lang", "source"])


def q_phrase_prefix(sf_dir: str):
    """ES match_phrase_prefix: exact phrase then a prefix-expanded last
    position (uncapped expansion so the LIKE oracle mirrors exactly)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple",
                                 with_positions=True))
    d = s.match_phrase_prefix([PHRASE_PREFIX_FIRST], PHRASE_PREFIX)
    return pa.table({"doc_id": pa.array(np.sort(d), pa.int64())})


DECONTAM_MOD = 97   # docs with doc_id % MOD == 0 form the "benchmark" slice


def q_decontaminate(sf_dir: str):
    """GPT-3-style eval-set decontamination: flag corpus docs sharing any
    word-3-gram with the (broadcast) benchmark slice.  No shuffle — the
    benchmark n-gram hash set rides the scoring task and is probed per
    batch."""
    from search_ingest_ray.functions.decontam import decontaminate
    return decontaminate(_docs(sf_dir), mod=DECONTAM_MOD, k=3)


def q_dup_ngrams(sf_dir: str):
    """Lee-et-al duplicate-n-gram signal: per doc, how many of its
    distinct 5-grams occur in ≥2 docs corpus-wide (exact integer micro
    fraction).  Shuffles 8-byte n-gram hashes, never text."""
    from search_ingest_ray.functions.decontam import dup_ngram_stats
    return dup_ngram_stats(_docs(sf_dir), k=5)


FILTER_MIN_TOKENS = 30        # Gopher-style length floor
FILTER_MIN_STOP_MICRO = 20_000    # ≥2% stopwords
FILTER_MAX_REP_MICRO = 100_000    # top bigram ≤10% of bigrams
FILTER_MAX_DUP_MICRO = 500_000    # ≤50% corpus-duplicated 5-grams
FILTER_LANG = "en"
FILTER_N_SIGNALS = 4


def q_corpus_filter(sf_dir: str):
    """The canonical LLM training-data filter pipeline END TO END:
    quality thresholds + Gopher repetition cap + language-ID + exact
    dedup (first wins) + benchmark decontamination + duplicate-n-gram
    cap.

    Fused shape (round 4): ONE tokenize pass
    (:class:`~search_ingest_ray.functions.decontam.CorpusSignalScorer`)
    computes every per-doc scalar signal — quality, repetition, langid,
    decontam probe, content hash — and the tiny scalar table (ids +
    micro-ratios + hashes, ~50 B/doc, never text) is materialized as the
    branch point of the vote streams; only the corpus-wide
    duplicate-5-gram signal makes a second pass over text (its n-gram
    shuffle needs one row per distinct 5-gram regardless).  Down from
    four independent tokenize passes; values are
    bit-identical to the unfused stages, so the SQL oracle is unchanged.

    Votes: each signal family emits (doc_id, ok); ONE doc_id-keyed sum
    combines them (a doc survives iff present with ok=1 in all four vote
    streams; ``keys_with_sum``: hash partitions, one Arrow group_by
    each) — no driver-side joins."""
    import pyarrow.compute as pc

    from search_ingest_ray.functions.decontam import (CorpusSignalScorer,
                                                      benchmark_ngram_hashes,
                                                      dup_ngram_stats)
    from search_ingest_ray.stages.fold import keys_with_sum, partitioned_fold
    docs = _docs(sf_dir)

    scorer = CorpusSignalScorer(
        benchmark_ngram_hashes(docs, mod=DECONTAM_MOD, k=3),
        mod=DECONTAM_MOD, k=3)
    # scalars only — see docstring
    sig = docs.map_batches(scorer, batch_format="pyarrow").materialize()

    def sig_quality(t: pa.Table) -> pa.Table:
        ok = ((t["n_tokens"].to_numpy(zero_copy_only=False)
               >= FILTER_MIN_TOKENS)
              & (t["stopword_ratio_micro"].to_numpy(zero_copy_only=False)
                 >= FILTER_MIN_STOP_MICRO)
              & (t["top_bigram_micro"].to_numpy(zero_copy_only=False)
                 <= FILTER_MAX_REP_MICRO)
              & (np.asarray(t["lang_pred"].to_pylist()) == FILTER_LANG))
        return pa.table({"doc_id": t["doc_id"],
                         "ok": pa.array(ok.astype(np.int64))})

    s1 = sig.map_batches(sig_quality, batch_format="pyarrow")
    # benchmark docs emit NO decontam vote (the eval slice never enters
    # the training corpus), exactly like the unfused decontaminate()
    def sig_decontam(t: pa.Table) -> pa.Table:
        nb = t.filter(pc.equal(t["is_bench"], 0))
        return pa.table({
            "doc_id": nb["doc_id"],
            "ok": pc.subtract(pa.scalar(1, pa.int64()), nb["contaminated"]),
        })

    s2 = sig.map_batches(sig_decontam, batch_format="pyarrow")
    s3 = dup_ngram_stats(docs, k=5).map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "ok": pc.cast(pc.less_equal(t["dup_micro"],
                                        FILTER_MAX_DUP_MICRO), pa.int64()),
        }), batch_format="pyarrow")
    s4 = partitioned_fold(sig.select_columns(["doc_id", "content_hash"]),
                          ["content_hash"], ["doc_id"],
                          keep="first").map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "ok": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }), batch_format="pyarrow")

    votes = s1.union(s2).union(s3).union(s4)
    return keys_with_sum(votes, "doc_id", "ok", FILTER_N_SIGNALS)


RESCORE_WINDOW = 50
RESCORE_BONUS = 5_000_000


def q_rescore(sf_dir: str):
    """ES rescore: the top-50 window of the (scan, merge) micro
    disjunction reranked with an exact-phrase bonus — phrase hits gain
    +5e6 micro units; docs outside the window never rescored."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d, m = s.rescore_phrase(list(PHRASE_TERMS), window=RESCORE_WINDOW,
                            bonus_micro=RESCORE_BONUS, k=BM25_K)
    return pa.table({
        "doc_id": pa.array(d, pa.int64()),
        "score_micro": pa.array(m, pa.int64()),
    })


PCTS = (50, 90, 99)


def q_percentiles(sf_dir: str):
    """ES percentiles agg (exact nearest-rank flavor) over n_chars of the
    match set."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_percentiles(list(BM25_QUERY_TERMS), "n_chars", list(PCTS))


def q_rank_eval(sf_dir: str):
    """ES _rank_eval API: precision@k, MRR and recall of the BM25 top-k
    against derived qrels (relevant = docs containing EVERY query term),
    in exact integer micro-units."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    d, _sc = s.search_terms(list(BM25_QUERY_TERMS), k=BM25_K)
    per_term = [s._match_docids([t])
                for t in dict.fromkeys(BM25_QUERY_TERMS)]
    rel = per_term[0]
    for p in per_term[1:]:
        rel = np.intersect1d(rel, p)
    hits = np.isin(d, rel)
    n_hit = int(hits.sum())
    first = int(np.flatnonzero(hits)[0]) + 1 if n_hit else 0
    return pa.table({
        "precision_micro": pa.array([n_hit * 1_000_000 // BM25_K],
                                    pa.int64()),
        "mrr_micro": pa.array([1_000_000 // first if first else 0],
                              pa.int64()),
        "recall_micro": pa.array([n_hit * 1_000_000 // max(rel.size, 1)],
                                 pa.int64()),
        "n_rel": pa.array([int(rel.size)], pa.int64()),
    })


TERMS_SET_TERMS = ("merge", "scan", "hash")


def q_terms_set(sf_dir: str):
    """ES terms_set: a doc matches when at least (n_chars % 3) + 1 of the
    query terms occur in it — per-doc minimum_should_match from a
    docvalues field with a vectorized script transform."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.terms_set(list(TERMS_SET_TERMS), "n_chars",
                       transform=lambda v: v % 3 + 1)


DISTANCE_ORIGIN = 400
DISTANCE_PIVOT = 50


def q_distance_feature(sf_dir: str):
    """ES distance_feature (numeric): proximity of n_chars to an origin,
    exact integer micro decay, top-10 over the match set."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.distance_feature(list(BM25_QUERY_TERMS), "n_chars",
                              DISTANCE_ORIGIN, DISTANCE_PIVOT, k=10)


def q_index_stats(sf_dir: str):
    """ES _stats-style counters straight from segment metadata — an
    index-integrity invariant the SQL oracle re-derives from raw text."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_index(sf_dir, analyzer="simple"))
    return s.index_stats()


PCT_RANK_VALUES = (100, 300, 800)


def q_percentile_ranks(sf_dir: str):
    """ES percentile_ranks agg (exact-CDF flavor) over n_chars of the
    match set: per probe value, match-set fraction ≤ it in integer
    micro-percent."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_percentile_ranks(list(BM25_QUERY_TERMS), "n_chars",
                                  list(PCT_RANK_VALUES))


def q_top_hits(sf_dir: str):
    """ES top_hits sub-agg: per-lang top-2 docs by the micro disjunction
    score."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_top_hits(list(BM25_QUERY_TERMS), "lang", per_group=2)


_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_PHONE = r"\d{3}-\d{3}-\d{4}"


def q_pii_scrub(sf_dir: str):
    """PII scrubbing (email/phone masking) via Arrow's RE2 regex kernels —
    the same regex engine DuckDB uses, so regexp_replace parity is
    structural.  The corpus carries no PII, so a deterministic identifier
    string derived from doc_id is appended first (both sides compute the
    identical enrichment)."""
    import pyarrow.compute as pc

    from search_ingest_ray.functions.scrub import scrub_pii

    def enrich(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.string())
        txt = pc.binary_join_element_wise(
            batch["text"], " mail u", ids, "@ex.com tel 555-123-4567", "")
        return batch.set_column(batch.schema.get_field_index("text"),
                                "text", txt)

    ds = scrub_pii(_docs(sf_dir).map_batches(enrich, batch_format="pyarrow"))
    return ds.select_columns(["doc_id", "text_scrubbed", "n_redactions"])


def q_collapse(sf_dir: str):
    """ES collapse (field collapsing): the disjunction top-10 with at most
    one hit per lang, each lang represented by its best (-score, doc_id)
    doc — the serve-time host-dedup idiom."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.collapse_top(list(BM25_QUERY_TERMS), "lang", k=BM25_K)


def q_sig_terms(sf_dir: str):
    """ES significant_terms: integer-exact lift of match-set terms vs the
    corpus background (fg>=2), top-10 by (-lift, term)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.significant_terms(list(BM25_QUERY_TERMS), k=10, min_fg=2)


def q_date_histogram(sf_dir: str):
    """ES date_histogram over an event stream: hourly counts of
    event_type='purchase', served from the events index (term filter →
    timestamp docvalues → floor-to-hour buckets)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_date_histogram(["purchase"], "ts", HOUR_US)


AUTO_DH_TARGET = 10


def q_auto_date_histogram(sf_dir: str):
    """ES auto_date_histogram over the purchase event stream: smallest
    ladder interval whose potential bucket span fits AUTO_DH_TARGET
    buckets, then exact bucket counts."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_auto_date_histogram(["purchase"], "ts",
                                     target=AUTO_DH_TARGET)


PINNED_IDS = (42, 7, 10**12)  # last id absent at every scale → dropped


def q_pinned(sf_dir: str):
    """ES pinned query: PINNED_IDS rank first in the given order (absent
    ids dropped via one FieldStore.contains probe), then organic BM25
    hits excluding pinned ids fill the remaining slots — pinned hits
    count against the requested size, total <= k (ES semantics)."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.pinned(list(BM25_QUERY_TERMS), list(PINNED_IDS), k=BM25_K)


MOVING_WINDOW = 3
MOVING_MIN_N = 2


SERIAL_LAG = 3


def q_derivative(sf_dir: str):
    """ES derivative + serial_diff (lag=3) pipeline aggs over the hourly
    purchase date_histogram, densified with insert_zeros gap policy
    (Searcher.agg_derivative)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_derivative(["purchase"], "ts", HOUR_US, lag=SERIAL_LAG)


def q_max_bucket(sf_dir: str):
    """ES max_bucket sibling agg: the hourly purchase bucket(s) with the
    maximum count (ties all returned, ES keys-list semantics)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_max_bucket(["purchase"], "ts", HOUR_US)


def q_moving_avg(sf_dir: str):
    """ES moving_fn + bucket_selector pipeline aggs over the hourly
    purchase date_histogram: previous-3-bucket moving average (exact
    integer micro), then keep only buckets with n >= 2."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_moving_selected(["purchase"], "ts", HOUR_US,
                                 MOVING_WINDOW, MOVING_MIN_N)


def q_weighted_avg_filter(sf_dir: str):
    """ES weighted_avg aggregation in FILTER context over the match set:
    value = n_chars, weight = doc_id; exact Python-bigint
    (sum v*w * 1e6) // sum w (the oracle sums in HUGEINT).  The
    dataset-level per-group flavor is the separate weighted_avg entry."""
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(_fields_index(sf_dir))
    return s.agg_weighted_avg(list(BM25_QUERY_TERMS), "n_chars", "doc_id")


def q_geo_bounds(sf_dir: str):
    """ES geo_bounds aggregation: the covering box of the match set's
    geo_points — min/max of IEEE doubles, bit-identical to the oracle."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    return s.agg_geo_bounds(list(BM25_QUERY_TERMS), "geo")


def q_geo_centroid(sf_dir: str):
    """ES geo_centroid aggregation: exact-integer mean of the match set's
    millidegree-quantized geo_points in micro units (float sums would be
    order-sensitive; both sides recover millidegrees with
    floor(x*1000+0.5) and divide truncated like DuckDB //)."""
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(documents_geo_index(sf_dir))
    return s.agg_geo_centroid(list(BM25_QUERY_TERMS), "geo")


def q_stats_bucket(sf_dir: str):
    """ES stats_bucket pipeline agg (subsumes avg/sum/min/max_bucket
    values) over the hourly purchase date_histogram's bucket counts."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_stats_bucket(["purchase"], "ts", HOUR_US)


def q_normalize_agg(sf_dir: str):
    """ES normalize pipeline agg (rescale_0_1) over the hourly purchase
    date_histogram: per bucket (n-min)*1e6 // (max-min)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_normalize(["purchase"], "ts", HOUR_US)


def q_bucket_script(sf_dir: str):
    """ES bucket_script pipeline agg: hourly purchase/click count ratio in
    exact integer micro per bucket present in EITHER stream (missing side
    counts 0; n_b = 0 → NULL ratio, the painless division-by-zero)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_bucket_script(["purchase"], ["click"], "ts", HOUR_US)


MINUTE_US = 60_000_000


def q_rate_agg(sf_dir: str):
    """ES rate aggregation: hourly purchase buckets re-expressed as exact
    per-minute rates in integer micro."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_rate(["purchase"], "ts", HOUR_US, MINUTE_US)


def q_cumulative_cardinality(sf_dir: str):
    """ES cumulative_cardinality pipeline agg: per hourly purchase bucket,
    the exact number of distinct user_ids seen so far ("new users per
    period" shape)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_cumulative_cardinality(["purchase"], "ts", "user_id",
                                        HOUR_US)


BUCKET_SORT_SIZE = 5


# 2024-01-10 / 2024-01-20 midnight UTC in epoch micros
DATE_RANGE_EDGES = (1704844800000000, 1705708800000000)


def q_date_range(sf_dir: str):
    """ES date_range aggregation over the purchase stream: half-open
    ranges (-inf, Jan10), [Jan10, Jan20), [Jan20, +inf) — from inclusive,
    to exclusive, EMPTY ranges kept (ES date_range semantics)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_date_range(["purchase"], "ts", list(DATE_RANGE_EDGES))


def q_percentiles_bucket(sf_dir: str):
    """ES percentiles_bucket pipeline agg: exact nearest-rank PCTS over
    the hourly purchase histogram's bucket counts."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_percentiles_bucket(["purchase"], "ts", HOUR_US,
                                    list(PCTS))


def q_bucket_sort(sf_dir: str):
    """ES bucket_sort pipeline agg: top-5 busiest purchase hours (count
    desc, bucket asc tiebreak)."""
    from search_ingest_ray.pipelines.flagship import events_index
    from search_ingest_ray.query.searcher import Searcher
    s = Searcher(events_index(sf_dir))
    return s.agg_bucket_sort(["purchase"], "ts", HOUR_US,
                             size=BUCKET_SORT_SIZE)


def q_incremental_dedup(sf_dir: str):
    """Cross-epoch incremental exact dedup (the continuous-crawl shape):
    docs whose doc_id % 3 == 0 form the PREVIOUS crawl's persisted
    hash-bucketed state (functions/dedup.py write_seen_hashes, 8 B/doc);
    the probe co-partitions new (id, hash) pairs against it — each
    map_groups task lazily reads only ITS bucket's state files, text
    never shuffles, state never broadcasts.  Survivors = docs whose
    content hash is absent from the state (md5-low64, DuckDB-mirrored)."""
    import hashlib as _hl
    import os as _os

    import pyarrow.compute as pc

    from search_ingest_ray.functions.dedup import (incremental_dedup,
                                                   write_seen_hashes)
    key = _hl.sha1(f"{sf_dir}:incdedup-v1".encode()).hexdigest()[:16]
    state = _os.path.join("/tmp/search_ingest_ray_cache",
                          f"incdedup-{key}")
    if not _os.path.exists(_os.path.join(state, "_STATE_META.json")):
        def _prev_crawl(t: pa.Table) -> pa.Table:
            did = t["doc_id"]
            mod3 = pc.subtract(did, pc.multiply(
                pc.divide(did, pa.scalar(3, pa.int64())),
                pa.scalar(3, pa.int64())))
            return t.filter(pc.equal(mod3, pa.scalar(0, pa.int64())))

        prev = _docs(sf_dir).map_batches(_prev_crawl,
                                         batch_format="pyarrow")
        write_seen_hashes(prev, state, num_buckets=16)
    return incremental_dedup(_docs(sf_dir), state)


def q_incremental_near_dup(sf_dir: str):
    """Cross-epoch MinHash-LSH near-dup filter: docs with doc_id % 3 == 0
    form the persisted band-key state (write_minhash_state); every doc
    sharing >=1 LSH band key with it is dropped (candidate-level —
    the production LSH-filter behavior).  Probe co-partitioned by
    gk = band*NB + hash-bucket, state files read lazily per group,
    survivors via the one-exchange id-keyed vote sum."""
    import hashlib as _hl
    import os as _os

    import pyarrow.compute as pc

    from search_ingest_ray.functions.dedup import (
        incremental_near_dup_filter, write_minhash_state)
    key = _hl.sha1(f"{sf_dir}:incmh-v1".encode()).hexdigest()[:16]
    state = _os.path.join("/tmp/search_ingest_ray_cache", f"incmh-{key}")
    if not _os.path.exists(_os.path.join(state, "_STATE_META.json")):
        def _prev(t: pa.Table) -> pa.Table:
            did = t["doc_id"]
            mod3 = pc.subtract(did, pc.multiply(
                pc.divide(did, pa.scalar(3, pa.int64())),
                pa.scalar(3, pa.int64())))
            return t.filter(pc.equal(mod3, pa.scalar(0, pa.int64())))

        write_minhash_state(
            _docs(sf_dir).map_batches(_prev, batch_format="pyarrow"),
            state, num_perm=32, bands=8, num_buckets=16)
    return incremental_near_dup_filter(_docs(sf_dir), state)


def q_dedup_exact(sf_dir: str):
    from search_ingest_ray.functions.dedup import exact_dedup
    return exact_dedup(_docs(sf_dir)).select_columns(["doc_id"])


_PERCOLATE_QUERIES = [
    (1, ["merge", "scan", "sort"], 2),
    (2, ["window"], 1),
    (3, ["spark", "slow", "batch", "join"], 3),
    (4, ["customer", "data"], 2),
]


def q_percolate(sf_dir: str):
    """ES percolate (reverse search): a registered query set is matched
    against the doc stream — broadcast queries, distinct (doc, term) hits
    times a term × query membership matrix, zero shuffle
    (functions/textstats.py PercolateStage).  SQL-oracled via
    distinct-token join + group count vs each query's
    minimum_should_match."""
    import ray.data as rd
    from search_ingest_ray.functions.textstats import percolate
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return percolate(ds, _PERCOLATE_QUERIES)


def q_weighted_sample(sf_dir: str):
    """Sequential Poisson weighted sample (inclusion ∝ n_chars): exact
    integer rank h//w, per-batch local top-k then one tiny sort+limit
    (functions/sampling.py weighted_sample); SQL ORDER BY-LIMIT oracle."""
    import ray.data as rd
    from search_ingest_ray.functions.sampling import weighted_sample
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"])
    out = weighted_sample(ds, 40, weight_col="n_chars", salt="w4")
    return out.select_columns(["doc_id"])


def q_group_topk(sf_dir: str):
    """Per-group top-k selection (best 5 docs per language by length):
    one group-keyed exchange + vectorized per-partition rank
    (functions/sampling.py grouped_topk); SQL row_number oracle."""
    import ray.data as rd
    from search_ingest_ray.functions.sampling import grouped_topk
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang", "n_chars"])
    out = grouped_topk(ds, 5, group_col="lang", order_cols=["n_chars"],
                       key_col="doc_id")
    return out.select_columns(["doc_id", "lang", "n_chars"])


def q_hll_card(sf_dir: str):
    """Distributed HyperLogLog in EXACT integer arithmetic
    (functions/sketch.py): constant-size exchange (≤256 register rows
    per batch, one 256-group max) vs cardinality's full distinct
    shuffle.  Raw estimate — every operation integer, so the DuckDB
    oracle reproduces it bit-for-bit (hugeint + printf('%b') bitlen)."""
    import ray.data as rd
    from search_ingest_ray.functions.sketch import hll_cardinality
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    return hll_cardinality(ds, key_col="doc_id", salt="hll")


def q_shard_plan(sf_dir: str):
    """Deterministic shuffled shard layout — the training-data output
    step: shard = md5_63(salt||doc_id) % 8, pos = rank within shard by
    (hash, doc_id).  One exchange + per-shard vectorized sort
    (functions/packing.py shard_plan); byte-identical across runs and
    resumes, SQL-oracled via row_number."""
    import ray.data as rd
    from search_ingest_ray.functions.packing import shard_plan
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id"])
    out = shard_plan(ds, 8, key_col="doc_id", salt="s4")
    return out.select_columns(["doc_id", "shard", "pos"])


def q_pack_plan(sf_dir: str):
    """Sequence packing into fixed 64-token training examples over the
    deterministic shard shuffle (functions/packing.py pack_sequences).
    The greedy per-shard scan is the semantics (inherently sequential;
    O(blocks·log n) searchsorted, shards parallel) — not
    SQL-expressible, rows-only; tests prove identity with a naive
    reference over the DuckDB-derived hash order."""
    import ray.data as rd
    from search_ingest_ray.functions.packing import pack_sequences
    from search_ingest_ray.functions.textstats import token_count_batch
    ds = (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "text"])
          .map_batches(token_count_batch, batch_format="pyarrow")
          .select_columns(["doc_id", "n_tokens"]))
    out = pack_sequences(ds, 64, nshards=4, salt="p4")
    return out.select_columns(["doc_id", "shard", "block", "offset"])


def q_oov_rate(sf_dir: str):
    """Vocabulary-coverage quality signal: per-doc OOV fraction vs the
    corpus top-20 vocabulary, exact integer ppm.  One distinct-word pass
    + the vocab carried in the scoring task's arguments; zero corpus
    shuffle
    (functions/textstats.py oov_rate)."""
    import ray.data as rd
    from search_ingest_ray.functions.textstats import oov_rate
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return oov_rate(ds, vocab_k=20)


def q_unigram_ppl(sf_dir: str):
    """CCNet-style LM-quality score: per-doc cross-entropy under an
    add-one-smoothed unigram model of the corpus top-20 vocabulary, exact
    integer micro-nats per token (per-token floor before the sum keeps
    the arithmetic association-free).  One distinct-word pass + the model
    carried in the scoring task's arguments; zero corpus shuffle
    (functions/textstats.py unigram_ppl)."""
    import ray.data as rd
    from search_ingest_ray.functions.textstats import unigram_ppl
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return unigram_ppl(ds, vocab_k=20)


def q_quality_classifier(sf_dir: str):
    """fastText-style hashed linear quality classifier: per-doc exact
    int64 milli-score under a broadcast hashed-bag-of-words weight table
    (bucket = md5_low64(tok) % 4096), keep = score > 0 — the
    model-scoring filter stage of GPT-3/LLaMA-class pipelines, zero
    corpus shuffle (functions/textstats.py hashed_linear_score)."""
    import ray.data as rd
    from search_ingest_ray.functions.textstats import hashed_linear_score
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return hashed_linear_score(ds)


def q_bpe_pairs(sf_dir: str):
    """Adjacent-character pair frequencies over the corpus word vocab —
    the statistics the first BPE merge maximizes and the SQL-exact
    anchor of the BPE family (functions/bpe.py pair_counts: partial
    word counts per batch, one small groupby, zero-copy bincount over
    the Arrow string buffer).  Top-20 by (-n, left, right)."""
    import ray.data as rd
    from search_ingest_ray.functions.bpe import pair_counts
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    # the pair table is ≤ 65k rows by construction: one tiny final sort
    return (pair_counts(ds)
            .sort(["n", "left", "right"], descending=[True, False, False])
            .limit(20))


def q_bpe_merges(sf_dir: str):
    """First 30 BPE merges learned from the corpus (deterministic: ties
    break on the lexicographically smallest pair).  Iterative argmax is
    not SQL-expressible — rows-only; tests/test_bpe.py proves the
    incremental trainer identical to a full-recount reference and the
    first merge identical to the SQL pair argmax."""
    from search_ingest_ray.functions.bpe import train_bpe
    import ray.data as rd
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    merges = train_bpe(ds, n_merges=30)
    return pa.table({
        "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string()),
    })


def q_bpe_tokenize(sf_dir: str):
    """Per-doc BPE token counts under the 30-merge table — the
    production encode path (a BPEEncodeStage task per batch, with a
    per-process word→encoding cache).  Rows-only (deterministic; the
    encode rule is pytest-proven equal to training-order replay)."""
    import ray.data as rd
    from search_ingest_ray.functions.bpe import BPEEncodeStage, train_bpe
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    merges = train_bpe(ds, n_merges=30)
    return ds.map_batches(BPEEncodeStage(merges), batch_format="pyarrow",
                          batch_size=256)


def q_sample_docs(sf_dir: str):
    """Deterministic hash-gated Bernoulli sample (25%): pure filter
    stage, zero shuffle, identical keep-set across runs / shards /
    resumes (functions/sampling.py hash_sample)."""
    import ray.data as rd
    from search_ingest_ray.functions.sampling import hash_sample
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang"])
    return hash_sample(ds, 250_000, key_col="doc_id", salt="s4")


def q_stratified_sample(sf_dir: str):
    """Exact per-language quota sample (uniform without replacement,
    hash-ordered): one stratum-keyed exchange, vectorized per-partition
    rank (functions/sampling.py stratified_quota)."""
    import ray.data as rd
    from search_ingest_ray.functions.sampling import stratified_quota
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang"])
    return stratified_quota(ds, {"en": 60, "de": 25, "zh": 100_000},
                            strata_col="lang", key_col="doc_id", salt="q4")


def q_mixture_mix(sf_dir: str):
    """GPT-3/Pile-style fractional epoch mixing: lang-weighted
    repetition (en×1.7, de×2, fr×0.4, rest dropped) as a deterministic
    flat-map — expected multiplicity exactly the weight, zero shuffle
    (functions/sampling.py mixture_repeat)."""
    import ray.data as rd
    from search_ingest_ray.functions.sampling import mixture_repeat
    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang"])
    out = mixture_repeat(ds, {"en": 1_700_000, "de": 2_000_000,
                              "fr": 400_000},
                         strata_col="lang", key_col="doc_id", salt="m4")
    return out.select_columns(["doc_id", "copy"])


def q_events_fold(sf_dir: str):
    import ray.data as rd
    from search_ingest_ray.stages.fold import fold_last_write_wins
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id", "event_type", "value"])
    out = fold_last_write_wins(ev, "user_id", ["ts", "event_id"])
    return out.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "last_type": t["event_type"],
                            "last_value": t["value"]}),
        batch_format="pyarrow")


def q_events_fold_tombstone(sf_dir: str):
    """E9 with deletes: event_type 'error' acts as a tombstone."""
    import ray.data as rd
    from search_ingest_ray.stages.fold import fold_last_write_wins
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id", "event_type"])

    def add_action(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        act = pc.if_else(pc.equal(t["event_type"], "error"),
                         pa.scalar("deleted"), pa.scalar("created"))
        return t.append_column("action", act)

    ev = ev.map_batches(add_action, batch_format="pyarrow")
    out = fold_last_write_wins(ev, "user_id", ["ts", "event_id"],
                               action_col="action")
    return out.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "last_type": t["event_type"]}),
        batch_format="pyarrow")


def q_events_fold_partial(sf_dir: str):
    """Changed-fields delta merge (ref changed_json / ES doc_as_upsert,
    elastic.cr:231-232,420): a CDC stream whose rows carry only changed
    columns — per user, each column independently takes its newest
    non-null value.  The partial pattern is synthesized deterministically:
    event_type present when event_id % 3 != 0, value when event_id % 2 == 0."""
    import ray.data as rd
    from search_ingest_ray.stages.fold import fold_changed_fields
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id",
                                  "event_type", "value"])

    def to_partial(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow.compute as pc
        eid = t["event_id"].to_numpy()
        etype = pc.if_else(pa.array(eid % 3 != 0), t["event_type"],
                           pa.scalar(None, pa.string()))
        val = pc.if_else(pa.array(eid % 2 == 0), t["value"],
                         pa.scalar(None, pa.float64()))
        return pa.table({"event_id": t["event_id"], "ts": t["ts"],
                         "user_id": t["user_id"],
                         "event_type": etype, "value": val})

    delta = ev.map_batches(to_partial, batch_format="pyarrow")
    out = fold_changed_fields(delta, "user_id", ["ts", "event_id"])
    return out.map_batches(
        lambda t: pa.table({"user_id": t["user_id"],
                            "last_type": t["event_type"],
                            "last_value": t["value"]}),
        batch_format="pyarrow")


def q_asof_orders(sf_dir: str):
    """Temporal as-of join: each event picks the latest order by the same
    customer at or before the event time (ties on o_orderdate resolve to
    the largest o_orderkey).  Co-partitioned sort-merge as-of — see
    functions/relational.py."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import asof_join
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["event_id", "ts", "user_id"])
    od = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_custkey", "o_orderdate",
                                  "o_totalprice"])
    return asof_join(ev, od, on="user_id", right_on="o_custkey",
                     left_ts="ts", right_ts="o_orderdate",
                     left_cols=["event_id"],
                     right_cols=["o_orderkey", "o_totalprice"],
                     tie_col="o_orderkey")


PRICE_BANDS = [(0, 0.0, 925.0), (1, 925.0, 950.0), (2, 950.0, 975.0),
               (3, 975.0, 1000.0), (4, 1000.0, 10**9)]


def q_range_price(sf_dir: str):
    """Broadcast range (interval) join: each part row is matched to the
    retail-price band containing it (lo <= p < hi) via one searchsorted
    pass per batch — zero shuffle."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import range_join_broadcast
    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey", "p_retailprice"])
    out = range_join_broadcast(parts, PRICE_BANDS,
                               value_col="p_retailprice", out_col="band_id")
    return out.select_columns(["p_partkey", "band_id"])


def q_interval_orders(sf_dir: str):
    """Distributed interval join — the LARGE-interval-side scale path
    range_join_broadcast's docstring promises (relational.py
    interval_join): every order joins every OVERLAPPING price interval
    containing its total price.  Intervals are derived from the part
    table by exact int64 arithmetic (spread over the o_totalprice
    domain, varying widths) so the SQL oracle reproduces the float64
    boundaries bit-for-bit.  Shape: intervals replicate to the bins
    they overlap, points go to their one bin, both sides hash-partition
    on the bin (one exchange each) and each partition resolves
    containment with blockwise boolean broadcasting guarded by bin
    equality — no distinct pass, no driver-side state.  ``iid`` keeps
    the part read's key type, so the join takes it from that read's
    Parquet footer instead of running the mapped intervals for a
    schema."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import interval_join

    def _iv_make(b: pa.Table) -> pa.Table:
        k = b["p_partkey"].to_numpy(zero_copy_only=False)
        k = k[(k % 50) == 0]
        lo = ((k * 7919) % 490000).astype(np.float64)
        hi = lo + (100 + (k * 131) % 2000).astype(np.float64)
        return pa.table({"iid": pa.array(k, b["p_partkey"].type),
                         "lo": pa.array(lo), "hi": pa.array(hi)})

    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_totalprice"])
    parts = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                            columns=["p_partkey"])
    key_type = parts.schema().types[0]
    ivs = parts.map_batches(_iv_make, batch_format="pyarrow")
    return interval_join(orders, ivs, value_col="o_totalprice",
                         lo_col="lo", hi_col="hi",
                         point_cols=["o_orderkey"], interval_cols=["iid"],
                         bin_width=1024.0, num_partitions=32,
                         types={"iid": key_type})


def q_window_events(sf_dir: str):
    """Tumbling-window aggregate over the event stream: daily
    (window_start, event_type) event counts and micro-unit value sums;
    per-batch pyarrow partials shrink the shuffle to O(windows x types)."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import tumbling_window
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type", "value"])
    return tumbling_window(ev, ts_col="ts", width_us=86_400_000_000,
                           key_col="event_type", value_col="value")


SLIDE_SIZE_US = 3_600_000_000   # 1 h windows
SLIDE_HOP_US = 900_000_000      # hopping every 15 min


def q_window_sliding(sf_dir: str):
    """Sliding (hopping) window counts over the event stream: 1-hour
    windows every 15 minutes per event_type — each event replicated to
    its 4 covering windows in a vectorized per-batch partial."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import sliding_window
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["ts", "event_type"])
    return sliding_window(ev, ts_col="ts", size_us=SLIDE_SIZE_US,
                          hop_us=SLIDE_HOP_US, key_col="event_type")


def q_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity gap) per user —
    hash-partitioned by user, one vectorized lexsort+gap-scan pass per
    partition."""
    import ray.data as rd
    from search_ingest_ray.functions.relational import session_windows
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts"])
    return session_windows(ev, user_col="user_id", ts_col="ts",
                           gap_us=1_800_000_000)


def q_replicate_orders(sf_dir: str):
    import ray.data as rd
    from search_ingest_ray.schemas import ParentRelation, TableConfig
    from search_ingest_ray.stages.replicate import replicate
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    cfg = TableConfig("orders", id_field="o_orderkey", doc_type="Order",
                      parents=[ParentRelation("Customer", "customer", "o_custkey")])
    return replicate(orders, cfg)


def _routed_root(sf_dir: str) -> str:
    """Build (once, cached) the routed parent-child store for orders↔customer."""
    import hashlib
    import ray.data as rd
    from search_ingest_ray.pipelines.routed import build_routed_indexes
    from search_ingest_ray.schemas import ParentRelation, TableConfig
    key = hashlib.sha1(f"{sf_dir}:routed-v1".encode()).hexdigest()[:12]
    root = f"/tmp/search_ingest_ray_cache/routed-{key}"
    marker = os.path.join(root, "_BUILT")
    if not os.path.exists(marker):
        orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                                 columns=["o_orderkey", "o_custkey",
                                          "o_totalprice"])
        cust = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                               columns=["c_custkey", "c_mktsegment"])
        build_routed_indexes({
            "orders": (orders, TableConfig(
                "orders", id_field="o_orderkey", doc_type="Order",
                parents=[ParentRelation("Customer", "customer", "o_custkey")])),
            "customer": (cust, TableConfig(
                "customer", id_field="c_custkey", doc_type="Customer")),
        }, root)
        with open(marker, "w") as f:
            f.write("ok")
    return root


def q_has_child_orders(sf_dir: str):
    """has_child query over the routed parent-child store: customers having
    ≥1 Order child with o_totalprice > 450000 (ES join-field semantics,
    ref spec/elastic_spec.cr:100-118)."""
    import pyarrow.compute as pc
    from search_ingest_ray.pipelines.routed import has_child
    root = _routed_root(sf_dir)
    out = has_child(root, "customer", "Order",
                    child_filter=lambda t: pc.greater(t["o_totalprice"],
                                                      pa.scalar(450000.0)))
    return out.map_batches(
        lambda t: pa.table({"o_custkey": pc.cast(t["route"], pa.int64())}),
        batch_format="pyarrow")


def q_has_parent_orders(sf_dir: str):
    """has_parent query: Orders whose parent Customer is in the BUILDING
    market segment — children resolved through the routed join field."""
    import pyarrow.compute as pc
    from search_ingest_ray.pipelines.routed import has_parent
    root = _routed_root(sf_dir)
    out = has_parent(root, "customer", "Customer", "Order",
                     parent_filter=lambda t: pc.equal(
                         t["c_mktsegment"], pa.scalar("BUILDING")))
    return out.map_batches(
        lambda t: pa.table({"o_orderkey": t["o_orderkey"],
                            "o_custkey": t["o_custkey"]}),
        batch_format="pyarrow")


def q_ann_cosine(sf_dir: str):
    import pyarrow.parquet as pq
    from search_ingest_ray.functions.similarity import knn_cosine
    import ray.data as rd
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])["embedding"][0].as_py()
    ds = rd.read_parquet(emb_path)
    out = knn_cosine(ds, [q], k=10, round_to=None)
    return out.map_batches(
        lambda t: pa.table({
            "vec_id": t["vec_id"],
            "cos_micro": pa.array(
                np.round(np.asarray(t["cos"]) * 1e4).astype(np.int64)),
        }), batch_format="pyarrow")


def q_rrf_hybrid(sf_dir: str):
    """Hybrid retrieval: the ES ``rrf`` retriever shape — a lexical BM25
    top-N (our own inverted index + exact MaxScore searcher) and a vector
    cosine-kNN top-N (distributed broadcast-query scan over the embeddings
    table) fused by reciprocal rank in exact integer micro-units
    (``Σ 1_000_000 // (60 + rank)``).  Each retriever is already
    distributed; the fusion touches only 2×N ids, never the corpus — the
    reason RRF is the hybrid shape that holds at 100 TB."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from search_ingest_ray.functions.similarity import knn_cosine
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.fusion import rrf_fuse
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple")
    lex_ids, _ = Searcher(root).search_terms(list(BM25_QUERY_TERMS),
                                             k=RRF_DEPTH)
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path,
                      filters=[("vec_id", "=", 0)])["embedding"][0].as_py()
    vec = knn_cosine(rd.read_parquet(emb_path), [q], k=RRF_DEPTH,
                     round_to=None).take_all()  # ≤ RRF_DEPTH rows
    vec_ids = np.array([r["vec_id"] for r in
                        sorted(vec, key=lambda r: r["rank"])],
                       dtype=np.int64)
    return rrf_fuse([np.asarray(lex_ids, dtype=np.int64), vec_ids],
                    k=BM25_K)


KNN_FILTER_LABEL = 1


def q_knn_filtered(sf_dir: str):
    """ES kNN search with a pre-filter (modern `knn` + `filter`): cosine
    top-k restricted to label == 1, with the predicate pushed into the
    parquet read (row-group pruning) — the filter never reaches the
    scoring stage as Python."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from search_ingest_ray.functions.similarity import knn_cosine
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path,
                      filters=[("vec_id", "=", 0)])["embedding"][0].as_py()
    ds = rd.read_parquet(emb_path,
                         filter=(pa.dataset.field("label")
                                 == KNN_FILTER_LABEL))
    out = knn_cosine(ds, [q], k=10, round_to=None)
    return out.map_batches(
        lambda t: pa.table({
            "vec_id": t["vec_id"],
            "cos_micro": pa.array(
                np.round(np.asarray(t["cos"]) * 1e4).astype(np.int64)),
        }), batch_format="pyarrow")


def q_quality(sf_dir: str):
    from search_ingest_ray.functions.textstats import quality_batch
    ds = _docs(sf_dir).map_batches(quality_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "text_len", "n_tokens",
                              "stopword_ratio_micro", "mean_token_len_micro"])


GOPHER_MIN_WORDS = 20   # Gopher's 50 would fail every synthetic doc
GOPHER_MIN_REQUIRED = 1  # the synthetic vocab carries only "the"


def q_gopher_rules(sf_dir: str):
    """Full Gopher quality-rule filter (Rae et al. 2021 §A1.1): word-count
    /mean-word-length bounds, symbol + bullet + ellipsis ratios, alpha-word
    fraction, required-word hits — all exact integers/floor-micro, one
    vectorized map_batches pass, zero shuffle."""
    from search_ingest_ray.functions.textstats import gopher_rules_batch
    ds = _docs(sf_dir).map_batches(
        gopher_rules_batch, batch_format="pyarrow",
        fn_kwargs={"min_words": GOPHER_MIN_WORDS,
                   "min_required": GOPHER_MIN_REQUIRED})
    return ds.select_columns([
        "doc_id", "n_words", "mean_word_len_micro", "alpha_word_micro",
        "n_required_hits", "symbol_word_micro", "bullet_line_micro",
        "ellipsis_line_micro", "pass_gopher"])


SPAN_TOKENS = 3  # C4's unit is the three-sentence span; here 3 tokens


def q_span_dedup(sf_dir: str):
    """C4-style duplicate-span removal (Raffel et al. 2020): every repeated
    3-token span keeps only its first global occurrence and documents are
    reassembled from surviving spans.  Two partition-keyed exchanges
    (span-hash election, doc-id reassembly), vectorized throughout."""
    from search_ingest_ray.functions.dedup import span_dedup
    return span_dedup(_docs(sf_dir), span_tokens=SPAN_TOKENS)


LINE_MIN_DOCS = 3  # RefinedWeb removes lines duplicated across ≥N docs


def q_line_dedup(sf_dir: str):
    """RefinedWeb-style boilerplate-line removal (Penedo et al. 2023):
    every 3-token span occurring in ≥ LINE_MIN_DOCS distinct docs is cut
    from EVERY doc (frequency-threshold removal — no surviving copy,
    unlike span_dedup's C4 first-wins).  Same two partition-keyed
    exchanges; the doc-frequency count is one reduceat per partition."""
    from search_ingest_ray.functions.dedup import line_dedup
    return line_dedup(_docs(sf_dir), span_tokens=SPAN_TOKENS,
                      min_docs=LINE_MIN_DOCS)


PHRASE_TERMS = ("scan", "merge")


def q_phrase_match(sf_dir: str):
    """Exact-phrase match via the positional index (documents are
    space-separated simple tokens, so the SQL oracle is a substring test)."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d, _ = s.match_phrase(list(PHRASE_TERMS), k=10**9)
    return pa.table({"doc_id": pa.array(np.sort(d), pa.int64())})


PHRASE_SLOP = 2
PHRASE_COMMON = ("join", "row")  # two of the corpus's most frequent terms


def q_phrase_common(sf_dir: str):
    """Worst-case phrase shape: BOTH terms are among the corpus's most
    frequent, so candidates ≈ the intersection of two huge posting lists —
    the case the flattened (cross-candidate vectorized) gap DP exists for;
    also the bench entry showing the per-doc loop no longer dominates."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d, _ = s.match_phrase(list(PHRASE_COMMON), k=10**9)
    return pa.table({"doc_id": pa.array(np.sort(d), pa.int64())})


INTERVALS_GAPS = 3


def q_intervals(sf_dir: str):
    """ES ``intervals`` query (all_of, UNORDERED, max_gaps=3) over the
    positional index: docs where 'merge' and 'scan' co-occur in either
    order within 3 interior positions (Searcher.intervals_match — one
    flattened searchsorted per direction across all candidate docs).  The
    SQL oracle tests pairwise position distance, which equals the
    nearest-neighbor test the engine performs."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d = s.intervals_match(*BM25_QUERY_TERMS, max_gaps=INTERVALS_GAPS,
                          ordered=False)
    return pa.table({"doc_id": pa.array(d, pa.int64())})


SPAN_NOT_PRE, SPAN_NOT_POST = 2, 2


def q_span_not(sf_dir: str):
    """ES span_not query (single-term spans): docs with at least one
    'merge' occurrence that has NO 'scan' within SPAN_NOT_PRE tokens
    before / SPAN_NOT_POST after (docs without 'scan' match outright).
    Vectorized nearest-exclude searchsorteds per side over the flattened
    (docrank, pos) keys — Searcher.span_not."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d = s.span_not(*BM25_QUERY_TERMS, pre=SPAN_NOT_PRE, post=SPAN_NOT_POST)
    return pa.table({"doc_id": pa.array(d, pa.int64())})


SPAN_WITHIN_LITTLE, SPAN_WITHIN_SLOP = "window", 4


def q_span_within(sf_dir: str):
    """ES span_within: docs where a 'window' occurrence is enclosed by an
    ordered (merge .. scan) span with <= 4 interior positions.  The
    engine's nearest-A/nearest-B reduction is cross-validated by the
    oracle's ANY-pair EXISTS formulation."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d = s.span_within(SPAN_WITHIN_LITTLE, *BM25_QUERY_TERMS,
                      slop=SPAN_WITHIN_SLOP)
    return pa.table({"doc_id": pa.array(d, pa.int64())})


def q_phrase_slop(sf_dir: str):
    """Sloppy phrase (ordered, total gap ≤ slop) via the positional index;
    the SQL oracle is a bounded-gap regex over the space-separated tokens."""
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import Searcher
    root = documents_index(sf_dir, analyzer="simple", with_positions=True)
    s = Searcher(root)
    d, _ = s.match_phrase(list(PHRASE_TERMS), k=10**9, slop=PHRASE_SLOP)
    return pa.table({"doc_id": pa.array(np.sort(d), pa.int64())})


def q_token_jaccard(sf_dir: str):
    """Token-set Jaccard of every doc vs doc_id 0 (n-gram Jaccard dedup
    operator at n=1, SQL-oracled; word-shingle variants are rows-only)."""
    import pyarrow.parquet as pq
    from search_ingest_ray.analyzer import tokenize_simple
    doc_path = os.path.join(sf_dir, "documents.parquet")
    t0_text = pq.read_table(doc_path, filters=[("doc_id", "=", 0)])["text"][0].as_py()
    t0 = frozenset(tokenize_simple(t0_text))
    n0 = len(t0)

    def jac(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        out = np.empty(len(ids), dtype=np.int64)
        for i, txt in enumerate(batch["text"].to_pylist()):
            s_ = set(tokenize_simple(txt or ""))
            inter = len(s_ & t0)
            out[i] = int(np.floor(inter / (n0 + len(s_) - inter) * 1e6)) \
                if (n0 + len(s_) - inter) else 0
        return pa.table({"doc_id": pa.array(ids), "jac_micro": pa.array(out)})

    return _docs(sf_dir).map_batches(jac, batch_format="pyarrow")


def q_embedding_near_dup(sf_dir: str):
    import ray.data as rd
    from search_ingest_ray.functions.similarity import embedding_near_dup
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    # random synthetic embeddings peak near cos≈0.48 — a 0.35
    # threshold exercises the pair machinery with a non-empty result
    return embedding_near_dup(ds, threshold=0.35, nbits=2)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup (cluster-partitioned semantic dedup): k-means coarse
    quantizer → per-cluster blockwise cosine shadowing, lowest vec_id
    survives (functions/similarity.py semantic_dedup).  Approximate by
    design across cluster boundaries → rows-only; tests prove nlist=1
    ≡ the global rule and cluster recovery on separated fixtures."""
    import ray.data as rd
    from search_ingest_ray.functions.similarity import semantic_dedup
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"])
    out = semantic_dedup(ds, threshold=0.35, nlist=8)
    return out.select_columns(["vec_id"])


# -- rows-only operators (no SQL equivalent; driver records row counts) ------


def q_minhash_pairs(sf_dir: str):
    from search_ingest_ray.functions.dedup import minhash_candidate_pairs
    return minhash_candidate_pairs(_docs(sf_dir), num_perm=32, bands=8)


DEDUP_CLUSTER_THR = 500_000


def q_dedup_clusters(sf_dir: str):
    """Duplicate clustering: LSH candidates → exact token-set Jaccard
    verify (integer-exact threshold) → connected components → every doc
    labeled with its cluster's min doc_id (singletons label themselves).
    Oracled by a recursive-CTE transitive closure over the same verified
    edges."""
    from search_ingest_ray.functions.dedup import dedup_clusters
    return dedup_clusters(_docs(sf_dir), num_perm=32, bands=8,
                          jaccard_threshold_micro=DEDUP_CLUSTER_THR)


def q_simhash(sf_dir: str):
    from search_ingest_ray.functions.dedup import simhash_batch
    ds = _docs(sf_dir).map_batches(simhash_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "simhash"])


def q_langid(sf_dir: str):
    from search_ingest_ray.functions.textstats import langid_batch
    ds = _docs(sf_dir).map_batches(langid_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "lang", "lang_pred"])


def q_fingerprint(sf_dir: str):
    from search_ingest_ray.functions.textstats import fingerprint_batch
    ds = _docs(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint"])


def q_wet_ingest(sf_dir: str):
    """WET source round-trip (sources/wet.py — Common Crawl ISO-28500
    WARC conversion records): each document batch is rendered as a
    gzipped WET shard and parsed back inside the same map_batches task,
    proving the framing byte-exact via an md5-low64 hash of the
    recovered text (DuckDB ``md5_number_lower`` parity).  Zero driver
    materialization and zero shuffle; the file-based reader
    (``read_wet``, one shard per task) shares this parser and is
    pytest-covered (tests/test_wet.py)."""
    import gzip

    import pyarrow.compute as pc
    import ray.data as rd

    from search_ingest_ray.functions.dedup import content_hash_batch
    from search_ingest_ray.sources.wet import parse_warc, wet_bytes

    def rt(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        urls = [f"http://ex.org/{i}" for i in ids]
        shard = gzip.compress(
            wet_bytes(urls, batch["text"].to_pylist()), compresslevel=1)
        rec = parse_warc(shard)
        out = pa.table({
            "doc_id": pa.array([int(u.rsplit("/", 1)[1])
                                for u in rec["url"]], pa.int64()),
            "text": pa.array(rec["text"], pa.string()),
        })
        out = content_hash_batch(out, text_col="text", out_col="text_hash")
        return pa.table({
            "doc_id": out["doc_id"],
            "text_hash": out["text_hash"],
            "n_chars": pc.cast(pc.utf8_length(out["text"]), pa.int64()),
        })

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    return ds.map_batches(rt, batch_format="pyarrow")


def q_ann_lsh(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd
    from search_ingest_ray.functions.similarity import ann_lsh
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])["embedding"][0].as_py()
    return ann_lsh(rd.read_parquet(emb_path), [q], k=10, nbits=4)


def q_ann_ivf(sf_dir: str):
    """IVF coarse-quantizer ANN (sampled spherical k-means + probed
    inverted lists) — the partition-pruned scale path; nprobe tunes
    recall (rows-only: approximate by design)."""
    import pyarrow.parquet as pq
    import ray.data as rd
    from search_ingest_ray.functions.similarity import ann_ivf
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])["embedding"][0].as_py()
    return ann_ivf(rd.read_parquet(emb_path), [q], k=10, nlist=8, nprobe=3)


WAV_RATE = 8000
WAV_HALF = 10       # square-wave half-period in samples
WAV_AMP = 0.5       # quantizes to ±16383/32768 exactly


def q_audio_features(sf_dir: str):
    """REAL audio decode, SQL-oracled end to end: a deterministic square
    wave (n_samples = 1000 + (n_chars%7)·100, half-period 10) is encoded
    to PCM WAV per doc, the feature task decodes it with the stdlib
    codec, and DuckDB re-derives every feature analytically — RMS is
    exactly 16383/32768 (dyadic quantization, IEEE-exact), zero crossings
    are (n-1)//half."""
    from search_ingest_ray.functions.imagecodec import encode_wav
    from search_ingest_ray.functions.multimodal import audio_feature_batch

    def to_wav(t: pa.Table) -> pa.Table:
        wavs = []
        for nc in t["n_chars"].to_numpy(zero_copy_only=False):
            n = 1000 + (int(nc) % 7) * 100
            i = np.arange(n)
            x = np.where((i // WAV_HALF) % 2 == 0, WAV_AMP, -WAV_AMP)
            wavs.append(encode_wav(x, WAV_RATE))
        return pa.table({"media_id": t["doc_id"].cast(pa.string()),
                         "data": pa.array(wavs, pa.binary())})

    ds = (_docs(sf_dir).map_batches(to_wav, batch_format="pyarrow")
          .map_batches(audio_feature_batch, batch_format="pyarrow",
                       batch_size=64, fn_kwargs={"strict": True}))
    return ds.map_batches(
        lambda t: pa.table({
            "doc_id": t["media_id"].cast(pa.int64()),
            "n_samples": t["n_samples"],
            "duration_us": t["duration_us"],
            "rms_micro": t["rms_micro"],
            "zcr_micro": t["zcr_micro"],
        }), batch_format="pyarrow")


def q_image_features(sf_dir: str):
    """Multimodal with REAL pixel decode: a deterministic 16×16 PNG is
    synthesized per doc (seeded by doc_id), then the feature task
    decodes the actual pixels (stdlib zlib codec) and emits
    pixel-statistics features — decoded=True end to end."""
    from search_ingest_ray.functions.imagecodec import encode_png
    from search_ingest_ray.functions.multimodal import image_feature_batch

    def to_binary(t: pa.Table) -> pa.Table:
        from search_ingest_ray.functions.jpegcodec import encode_jpeg
        imgs = []
        for i in t["doc_id"].to_pylist():
            rng = np.random.default_rng(int(i))
            px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
            if i % 3 == 0:       # real baseline JPEG, chroma-subsampled
                imgs.append(encode_jpeg(px, quality=90, subsampling="4:2:0"))
            elif i % 3 == 1:     # real PNG
                imgs.append(encode_png(px))
            else:                # real grayscale JPEG 4:4:4
                imgs.append(encode_jpeg(px[:, :, 0], quality=85))
        return pa.table({"media_id": t["doc_id"].cast(pa.string()),
                         "data": pa.array(imgs, pa.binary())})

    ds = _docs(sf_dir).map_batches(to_binary, batch_format="pyarrow")
    return ds.map_batches(image_feature_batch, batch_format="pyarrow",
                          batch_size=64, fn_kwargs={"strict": True})


def q_jpeg_features(sf_dir: str):
    """REAL JPEG decode, SQL-oracled end to end on an exactness anchor:
    at quality=75 the scaled Annex-K luma quant[0] is exactly 8, so a
    solid grayscale value v (chosen ≠ 0 mod 32, so histogram bins are
    ulp-safe) round-trips through DCT→quant→Huffman→IDCT to EXACTLY v.
    Every doc gets its own solid JPEG (varying dims exercise multi-MCU
    grids; doc_id%5==0 adds restart markers); DuckDB re-derives gray and
    the one-hot luminance bin analytically.  A wrong bit anywhere in the
    codec breaks the identity."""
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    from search_ingest_ray.functions.multimodal import image_feature_batch

    def to_jpeg(t: pa.Table) -> pa.Table:
        imgs = []
        for i in t["doc_id"].to_pylist():
            v = 40 + (int(i) % 13) * 16
            w = 8 + (int(i) % 3) * 8
            h = 8 + ((int(i) // 3) % 2) * 8
            imgs.append(encode_jpeg(
                np.full((h, w), v, np.uint8), quality=75,
                restart_interval=1 if i % 5 == 0 else 0))
        return pa.table({"media_id": t["doc_id"].cast(pa.string()),
                         "data": pa.array(imgs, pa.binary())})

    ds = (_docs(sf_dir).map_batches(to_jpeg, batch_format="pyarrow")
          .map_batches(image_feature_batch, batch_format="pyarrow",
                       batch_size=64, fn_kwargs={"strict": True}))

    def extract(t: pa.Table) -> pa.Table:
        feats = np.asarray(t["feature"].combine_chunks()
                           .flatten().to_numpy(zero_copy_only=False),
                           dtype=np.float64).reshape(-1, 12)
        return pa.table({
            "doc_id": t["media_id"].cast(pa.int64()),
            "width": t["width"].cast(pa.int64()),
            "height": t["height"].cast(pa.int64()),
            "decoded": t["decoded"],
            "gray": pa.array(np.round(feats[:, 0] * 255).astype(np.int64)),
            "lum_bin": pa.array(np.argmax(feats[:, 3:11], axis=1)
                                .astype(np.int64)),
        })

    return ds.map_batches(extract, batch_format="pyarrow")


def q_gif_features(sf_dir: str):
    """REAL GIF decode (pure-numpy LZW, gifcodec.py), SQL-oracled end to
    end.  GIF is LOSSLESS, so the oracle is stronger than the JPEG
    anchor: each doc gets a two-tone gray GIF (first k row-major pixels
    gray a = 40+(id%13)·16, rest gray b = 255−a; k = 1+(7·id mod (n−1)))
    — even ids INTERLACED (the decoder's four-pass reorder must be
    bit-perfect), ids %5==0 ANIMATED two-frame (first-frame semantics of
    decode_image over the GCE/animation parse).  The stage's luminance
    histogram is converted back to exact per-bin COUNTS, which DuckDB
    re-derives analytically; a and b always land in distinct 32-wide bins
    (a ≡ 8/24 mod 32 keeps ulp margin).  A wrong bit anywhere in LZW,
    palette mapping, interlace or compositing breaks the counts."""
    from search_ingest_ray.functions.gifcodec import encode_gif
    from search_ingest_ray.functions.multimodal import image_feature_batch

    def to_gif(t: pa.Table) -> pa.Table:
        imgs = []
        for i in t["doc_id"].to_pylist():
            i = int(i)
            w = 8 + (i % 3) * 4
            h = 6 + (i % 2) * 4
            n = w * h
            a = 40 + (i % 13) * 16
            k = 1 + (7 * i) % (n - 1)
            flat = np.full(n, 255 - a, np.uint8)
            flat[:k] = a
            img = np.repeat(flat, 3).reshape(h, w, 3)
            frames = [img, 255 - img] if i % 5 == 0 else img
            imgs.append(encode_gif(frames, interlace=(i % 2 == 0)))
        return pa.table({"media_id": t["doc_id"].cast(pa.string()),
                         "data": pa.array(imgs, pa.binary())})

    ds = (_docs(sf_dir).map_batches(to_gif, batch_format="pyarrow")
          .map_batches(image_feature_batch, batch_format="pyarrow",
                       batch_size=64, fn_kwargs={"strict": True}))

    def extract(t: pa.Table) -> pa.Table:
        feats = np.asarray(t["feature"].combine_chunks()
                           .flatten().to_numpy(zero_copy_only=False),
                           dtype=np.float64).reshape(-1, 12)
        w = t["width"].to_numpy().astype(np.int64)
        h = t["height"].to_numpy().astype(np.int64)
        counts = np.round(feats[:, 3:11] * (w * h)[:, None]).astype(np.int64)
        # exactly two occupied bins per doc by construction
        occ = counts > 0
        bins = np.tile(np.arange(8), (len(counts), 1))
        lo = np.where(occ, bins, 99).min(axis=1)
        hi = np.where(occ, bins, -1).max(axis=1)
        rows = np.arange(len(counts))
        return pa.table({
            "doc_id": t["media_id"].cast(pa.int64()),
            "width": pa.array(w),
            "height": pa.array(h),
            "decoded": t["decoded"],
            "bin_lo": pa.array(lo.astype(np.int64)),
            "cnt_lo": pa.array(counts[rows, lo]),
            "bin_hi": pa.array(hi.astype(np.int64)),
            "cnt_hi": pa.array(counts[rows, hi]),
        })

    return ds.map_batches(extract, batch_format="pyarrow")


def q_video_features(sf_dir: str):
    """REAL video decode, SQL-oracled end to end: each doc gets an MJPEG
    video — even doc_ids an AVI (RIFF container walk, avicodec.py), odd
    doc_ids an MP4 (ISO BMFF sample-table demux, mp4codec.py; doc_id%4==1
    faststart moov-first layout, doc_id%4==3 moov-last with a trailing
    short chunk) — of four solid-gray q75 frames.  gray_k =
    40+((id+3k)%13)·16 rides the JPEG exactness anchor, so every sampled
    frame's mean luminance is analytically exact regardless of container;
    doc_id%5==0 frames carry restart markers.  frame_sample_batch with
    frames=3 picks frames [0, 1, 3] of 4 (unique(linspace(0,3,3)→int)),
    which DuckDB reproduces with a VALUES list.  A wrong byte in the RIFF walk,
    box walk, stsc/stco/stsz math, chunk padding, or any frame's
    Huffman/IDCT breaks the per-frame grays."""
    from search_ingest_ray.functions.avicodec import encode_avi_mjpeg
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    from search_ingest_ray.functions.mp4codec import encode_mp4_mjpeg
    from search_ingest_ray.functions.multimodal import frame_sample_batch

    def to_vid(t: pa.Table) -> pa.Table:
        vids = []
        for i in t["doc_id"].to_pylist():
            i = int(i)
            w = 8 + (i % 3) * 8
            h = 8 + ((i // 3) % 2) * 8
            frames = [encode_jpeg(
                np.full((h, w), 40 + ((i + 3 * k) % 13) * 16, np.uint8),
                quality=75, restart_interval=1 if i % 5 == 0 else 0)
                for k in range(4)]
            if i % 2 == 0:
                vids.append(encode_avi_mjpeg(frames, width=w, height=h))
            else:
                vids.append(encode_mp4_mjpeg(frames, width=w, height=h,
                                             samples_per_chunk=3,
                                             faststart=(i % 4 == 1)))
        return pa.table({"media_id": t["doc_id"].cast(pa.string()),
                         "data": pa.array(vids, pa.binary())})

    ds = (_docs(sf_dir).map_batches(to_vid, batch_format="pyarrow")
          .map_batches(frame_sample_batch, batch_format="pyarrow",
                       batch_size=64,
                       fn_kwargs={"frames": 3, "strict": True}))

    def extract(t: pa.Table) -> pa.Table:
        feats = np.asarray(t["feature"].combine_chunks()
                           .flatten().to_numpy(zero_copy_only=False),
                           dtype=np.float64).reshape(-1, 12)
        return pa.table({
            "doc_id": t["media_id"].cast(pa.int64()),
            "frame": t["frame"].cast(pa.int64()),
            "decoded": t["decoded"],
            "gray": pa.array(np.round(feats[:, 0] * 255).astype(np.int64)),
        })

    return ds.map_batches(extract, batch_format="pyarrow")


def _pa_mod(arr, n: int):
    """Arrow int64 modulo (pyarrow.compute has no mod kernel): a-(a//n)*n.
    Inputs are non-negative doc_ids, so truncating divide ≡ SQL ``%``."""
    import pyarrow.compute as pc
    nn = pa.scalar(n, pa.int64())
    return pc.subtract(arr, pc.multiply(pc.divide(arr, nn), nn))


def _messy_urls(doc_ids) -> tuple[pa.Array, str]:
    """Deterministic noisy crawl-URL per doc_id, fully Arrow-vectorized,
    plus the byte-identical DuckDB construction (the pair is the test
    harness for functions/urltools.py: mixed-case scheme/host, default +
    non-default ports, duplicate slashes, trailing slash, tracking params,
    fragments — every alias class the canonicalizer must fold)."""
    import pyarrow.compute as pc
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    d = doc_ids
    m = {k: _pa_mod(d, k) for k in (2, 3, 4, 5, 6, 7, 11, 50, 97)}
    s = lambda arr: pc.cast(arr, pa.string())  # noqa: E731
    i64 = lambda v: pa.scalar(v, pa.int64())   # noqa: E731
    scheme = pc.if_else(
        pc.equal(m[4], i64(0)), "http",
        pc.if_else(pc.equal(m[4], i64(1)), "HTTP",
                   pc.if_else(pc.equal(m[4], i64(2)), "https", "HTTPS")))
    host = pc.if_else(
        pc.equal(m[3], i64(0)),
        pc.binary_join_element_wise("Host", s(m[97]), ".Example.COM", ""),
        pc.binary_join_element_wise("host", s(m[97]), ".example.com", ""))
    def_port = pc.if_else(pc.greater_equal(m[4], i64(2)), ":443", ":80")
    port = pc.if_else(
        pc.equal(m[5], i64(0)), def_port,
        pc.if_else(pc.equal(m[5], i64(1)), ":8080", ""))
    path = pc.binary_join_element_wise(
        "/p", pc.if_else(pc.equal(m[7], i64(0)), "//", "/"), s(m[50]), "")
    trail = pc.if_else(pc.equal(m[6], i64(0)), "/", "")
    query = pc.if_else(
        pc.equal(m[3], i64(0)),
        pc.binary_join_element_wise("?utm_source=feed&ref=", s(m[11]), ""),
        pc.if_else(
            pc.equal(m[3], i64(1)),
            pc.binary_join_element_wise("?ref=", s(m[11]),
                                        "&utm_campaign=x", ""),
            ""))
    frag = pc.if_else(
        pc.equal(m[2], i64(0)),
        pc.binary_join_element_wise("#sec", s(m[5]), ""), "")
    urls = pc.binary_join_element_wise(
        scheme, "://", host, port, path, trail, query, frag, "")
    return urls, _MESSY_URL_SQL


# byte-identical DuckDB construction of _messy_urls (doc_id is the only input)
_MESSY_URL_SQL = (
        "(CASE doc_id%4 WHEN 0 THEN 'http' WHEN 1 THEN 'HTTP'"
        " WHEN 2 THEN 'https' ELSE 'HTTPS' END)"
        " || '://' ||"
        " (CASE WHEN doc_id%3=0 THEN 'Host'||CAST(doc_id%97 AS VARCHAR)"
        "||'.Example.COM'"
        " ELSE 'host'||CAST(doc_id%97 AS VARCHAR)||'.example.com' END)"
        " || (CASE WHEN doc_id%5=0 THEN"
        " (CASE WHEN doc_id%4>=2 THEN ':443' ELSE ':80' END)"
        " WHEN doc_id%5=1 THEN ':8080' ELSE '' END)"
        " || '/p' || (CASE WHEN doc_id%7=0 THEN '//' ELSE '/' END)"
        " || CAST(doc_id%50 AS VARCHAR)"
        " || (CASE WHEN doc_id%6=0 THEN '/' ELSE '' END)"
        " || (CASE WHEN doc_id%3=0 THEN"
        " '?utm_source=feed&ref='||CAST(doc_id%11 AS VARCHAR)"
        " WHEN doc_id%3=1 THEN"
        " '?ref='||CAST(doc_id%11 AS VARCHAR)||'&utm_campaign=x'"
        " ELSE '' END)"
        " || (CASE WHEN doc_id%2=0 THEN '#sec'||CAST(doc_id%5 AS VARCHAR)"
        " ELSE '' END)")


def _crawl_urls(doc_ids) -> pa.Array:
    """Collision-bearing crawl URLs: the canonical form depends ONLY on
    ``k = doc_id % 40`` (40 distinct pages), while the alias noise — case,
    default ports, duplicate/trailing slashes, tracking params, fragments —
    varies per doc_id.  ~12 crawls alias each canonical URL at sf0.001, so
    ``url_dedup`` genuinely folds.  Mirrored byte-identically by
    ``_CRAWL_URL_SQL``."""
    import pyarrow.compute as pc
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    d = doc_ids
    k = _pa_mod(d, 40)
    s = lambda arr: pc.cast(arr, pa.string())  # noqa: E731
    i64 = lambda v: pa.scalar(v, pa.int64())   # noqa: E731
    https = pc.equal(_pa_mod(k, 2), i64(1))
    upper = pc.equal(_pa_mod(d, 2), i64(1))
    scheme = pc.if_else(
        https, pc.if_else(upper, "HTTPS", "https"),
        pc.if_else(upper, "HTTP", "http"))
    host = pc.if_else(
        pc.equal(_pa_mod(d, 3), i64(0)),
        pc.binary_join_element_wise("Site", s(_pa_mod(k, 7)),
                                    ".Example.COM", ""),
        pc.binary_join_element_wise("site", s(_pa_mod(k, 7)),
                                    ".example.com", ""))
    port = pc.if_else(
        pc.equal(_pa_mod(d, 5), i64(0)),
        pc.if_else(https, ":443", ":80"), "")
    path = pc.binary_join_element_wise(
        "/p", pc.if_else(pc.equal(_pa_mod(d, 7), i64(0)), "//", "/"),
        s(k), "")
    has_q = pc.equal(_pa_mod(k, 3), i64(0))
    trail = pc.if_else(
        pc.and_(pc.equal(_pa_mod(d, 6), i64(0)), pc.invert(has_q)), "/", "")
    ref = pc.binary_join_element_wise("?ref=", s(_pa_mod(k, 11)), "")
    query = pc.if_else(
        has_q,
        pc.if_else(
            pc.equal(_pa_mod(d, 3), i64(0)),
            pc.binary_join_element_wise("?utm_source=feed&ref=",
                                        s(_pa_mod(k, 11)), ""),
            pc.if_else(
                pc.equal(_pa_mod(d, 3), i64(1)),
                pc.binary_join_element_wise(ref, "&utm_campaign=x", ""),
                ref)),
        pc.if_else(pc.equal(_pa_mod(d, 3), i64(0)), "?utm_source=feed", ""))
    frag = pc.if_else(
        pc.equal(_pa_mod(d, 2), i64(0)),
        pc.binary_join_element_wise("#s", s(_pa_mod(d, 5)), ""), "")
    return pc.binary_join_element_wise(
        scheme, "://", host, port, path, trail, query, frag, "")


_CRAWL_URL_SQL = (
    "(CASE WHEN (doc_id%40)%2=1 THEN"
    " (CASE WHEN doc_id%2=1 THEN 'HTTPS' ELSE 'https' END)"
    " ELSE (CASE WHEN doc_id%2=1 THEN 'HTTP' ELSE 'http' END) END)"
    " || '://' ||"
    " (CASE WHEN doc_id%3=0 THEN"
    " 'Site'||CAST((doc_id%40)%7 AS VARCHAR)||'.Example.COM'"
    " ELSE 'site'||CAST((doc_id%40)%7 AS VARCHAR)||'.example.com' END)"
    " || (CASE WHEN doc_id%5=0 THEN"
    " (CASE WHEN (doc_id%40)%2=1 THEN ':443' ELSE ':80' END)"
    " ELSE '' END)"
    " || '/p' || (CASE WHEN doc_id%7=0 THEN '//' ELSE '/' END)"
    " || CAST(doc_id%40 AS VARCHAR)"
    " || (CASE WHEN doc_id%6=0 AND (doc_id%40)%3<>0 THEN '/' ELSE '' END)"
    " || (CASE WHEN (doc_id%40)%3=0 THEN"
    " (CASE WHEN doc_id%3=0 THEN"
    " '?utm_source=feed&ref='||CAST((doc_id%40)%11 AS VARCHAR)"
    " WHEN doc_id%3=1 THEN"
    " '?ref='||CAST((doc_id%40)%11 AS VARCHAR)||'&utm_campaign=x'"
    " ELSE '?ref='||CAST((doc_id%40)%11 AS VARCHAR) END)"
    " ELSE (CASE WHEN doc_id%3=0 THEN '?utm_source=feed' ELSE '' END) END)"
    " || (CASE WHEN doc_id%2=0 THEN '#s'||CAST(doc_id%5 AS VARCHAR)"
    " ELSE '' END)")


# DuckDB mirror of functions/urltools.canonicalize_urls — the SAME RE2 op
# sequence (documented contract), applied to a column named ``url``.
_CANON_NOISE_SQL = (
    r"regexp_replace(regexp_replace(regexp_replace(regexp_replace("
    r"regexp_replace(url, '#.*$', '', 'g'),"
    r" '([?&])(utm_[A-Za-z0-9_]*|fbclid|gclid|msclkid|mc_eid)=[^&#]*',"
    r" '\1', 'g'),"
    r" '\?&+', '?', 'g'), '&&+', '&', 'g'), '[?&]+$', '', 'g')")
_URL_PARTS_SQL = "'^([A-Za-z][A-Za-z0-9+.-]*)://([^/?#]*)(.*)$'"
_CANON_SQL_CTE = f"""
  noise AS (SELECT doc_id, {_CANON_NOISE_SQL} AS s FROM messy),
  parts AS (SELECT doc_id,
                   lower(regexp_extract(s, {_URL_PARTS_SQL}, 1)) AS scheme,
                   lower(regexp_extract(s, {_URL_PARTS_SQL}, 2)) AS hostport,
                   regexp_extract(s, {_URL_PARTS_SQL}, 3) AS rest
            FROM noise),
  canon AS (SELECT doc_id, scheme,
                   CASE WHEN scheme='http'
                        THEN regexp_replace(hostport, ':80$', '', 'g')
                        WHEN scheme='https'
                        THEN regexp_replace(hostport, ':443$', '', 'g')
                        ELSE hostport END AS hostc,
                   regexp_replace(regexp_replace(regexp_replace(rest,
                     '/{{2,}}', '/', 'g'), '^(.*[^/])/$', '\\1', 'g'),
                     '^/$', '', 'g') AS restc
            FROM parts),
  curl AS (SELECT doc_id,
                  scheme || '://' || hostc || restc AS canon_url,
                  regexp_replace(hostc, ':[0-9]+$', '', 'g') AS host
           FROM canon)"""


def q_url_canon(sf_dir: str):
    """URL canonicalization (functions/urltools.py): deterministic noisy
    crawl URLs per doc_id → canonical form + host + registrable domain.
    One map_batches pass, a fixed sequence of RE2 kernels, zero shuffle —
    the per-row cost is identical at 500 rows and 10^12 rows."""
    from search_ingest_ray.functions.urltools import (
        canonicalize_urls, host_of, registered_domain_of)

    def kern(batch: pa.Table) -> pa.Table:
        urls, _ = _messy_urls(batch["doc_id"])
        canon = canonicalize_urls(urls)
        return pa.table({
            "doc_id": batch["doc_id"],
            "canon_url": canon,
            "host": host_of(canon),
            "domain": registered_domain_of(canon),
        })

    ds = _docs(sf_dir).select_columns(["doc_id"])
    return ds.map_batches(kern, batch_format="pyarrow")


def q_url_dedup(sf_dir: str):
    """Canonical-URL dedup (keep the NEWEST crawl of each canonical URL):
    the crawl-corpus analog of the reference's last-write-wins upsert
    (reference ``table.cr:63-83``).  Reuses partitioned_fold — the one
    shuffle moves each row once, keyed by a hash of the canonical URL;
    doc_ids collide mod 50 per host so every canonical key sees multiple
    crawls."""
    from search_ingest_ray.functions.urltools import canonical_url_dedup

    def add_cols(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        urls = _crawl_urls(batch["doc_id"])
        ts = pc.add(batch["doc_id"], pa.scalar(1577836800, pa.int64()))
        return pa.table({"doc_id": batch["doc_id"], "url": urls,
                         "crawl_ts": ts})

    ds = _docs(sf_dir).select_columns(["doc_id"]) \
        .map_batches(add_cols, batch_format="pyarrow")
    out = canonical_url_dedup(ds, url_col="url", ts_col="crawl_ts",
                              tiebreak_cols=("doc_id",))
    return out.select_columns(["canon_url", "doc_id", "crawl_ts"])


def q_host_stats(sf_dir: str):
    """Per-host corpus statistics over canonicalized URLs: in-batch
    partial aggregation (one row per (block, host)) before the tiny
    per-host groupby-sum — the shuffle moves #hosts×#blocks rows, never
    per-doc."""
    from search_ingest_ray.functions.urltools import canonicalize_urls, host_of

    def partial(batch: pa.Table) -> pa.Table:
        urls, _ = _messy_urls(batch["doc_id"])
        t = pa.table({"host": host_of(canonicalize_urls(urls)),
                      "n_chars": batch["n_chars"]})
        g = t.group_by("host").aggregate(
            [([], "count_all"), ("n_chars", "sum")])
        return g.rename_columns(["host", "n_pages", "total_chars"])

    ds = _docs(sf_dir).select_columns(["doc_id", "n_chars"]) \
        .map_batches(partial, batch_format="pyarrow")
    g = ds.groupby("host").sum(["n_pages", "total_chars"])
    return g.map_batches(
        lambda t: t.rename_columns(["host", "n_pages", "total_chars"]),
        batch_format="pyarrow")


KEYWORDS_TOP = 3


def q_doc_keywords(sf_dir: str):
    """Per-doc top-3 TF-IDF keywords (textstats.KeywordExtractor): exact
    global df aggregated once and carried by the extractor task — the
    broadcast-join shape; docs stream embarrassingly parallel.
    Scores in the more_like_this tf·idf micro units (bit-identical SQL
    oracle)."""
    from search_ingest_ray.functions.textstats import KeywordExtractor
    dfr = _postings(sf_dir).groupby("term").count().take_all()
    df = {r["term"]: int(r["count()"]) for r in dfr}
    import pyarrow.parquet as _pq
    n_docs = _pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        KeywordExtractor(df, n_docs, top=KEYWORDS_TOP),
        batch_format="pyarrow")


def q_compression_ratio(sf_dir: str):
    """Compressibility quality signal (functions/textstats.py
    compression_ratio_batch): per-doc zlib ratio in integer micro —
    boilerplate collapses, noise stays near 1e6.  Rows-only (no SQL
    zlib); deterministic for the fixed level, pytest-anchored."""
    from search_ingest_ray.functions.textstats import compression_ratio_batch
    return (_docs(sf_dir).select_columns(["doc_id", "text"])
            .map_batches(compression_ratio_batch, batch_format="pyarrow"))


BLOCKED_HOSTS = ("host3.example.com", "host17.example.com",
                 "host42.example.com")


def q_url_blocklist(sf_dir: str):
    """Domain-blocklist filtering (the Dolma/CCNet URL-filter stage):
    drop every page whose canonical host is on a blocklist.  The
    blocklist is an Arrow array captured by the task's function (Ray
    Data ships it once per operator), the filter is one vectorized
    pc.is_in inside map_batches — zero shuffle; at 100 TB the blocklist
    (even millions of hosts) rides the object store while pages stream
    through untouched.  Returns surviving (doc_id, host)."""
    import pyarrow.compute as pc

    from search_ingest_ray.functions.urltools import (canonicalize_urls,
                                                      host_of)
    blocked = pa.array(list(BLOCKED_HOSTS), pa.string())

    def kern(batch: pa.Table) -> pa.Table:
        urls, _ = _messy_urls(batch["doc_id"])
        host = host_of(canonicalize_urls(urls))
        keep = pc.invert(pc.is_in(host, value_set=blocked))
        return pa.table({"doc_id": batch["doc_id"],
                         "host": host}).filter(keep)

    ds = _docs(sf_dir).select_columns(["doc_id"])
    return ds.map_batches(kern, batch_format="pyarrow")


CHUNK_MAX_TOKENS, CHUNK_STRIDE = 128, 96


def q_chunk_plan(sf_dir: str):
    """Sliding-window context chunking (functions/packing.py chunk_plan):
    per doc, one chunk per CHUNK_STRIDE-token window start with
    n_toks = min(CHUNK_MAX_TOKENS, n − start) — the overlapping-window
    layout for cutting long documents into model-context training
    examples.  Metadata-only plan, embarrassingly parallel, no shuffle."""
    from search_ingest_ray.functions.packing import chunk_plan
    from search_ingest_ray.functions.textstats import token_count_batch
    ds = (_docs(sf_dir).select_columns(["doc_id", "text"])
          .map_batches(token_count_batch, batch_format="pyarrow")
          .select_columns(["doc_id", "n_tokens"]))
    return chunk_plan(ds, CHUNK_MAX_TOKENS, CHUNK_STRIDE)


def q_json_fields(sf_dir: str):
    """Schema-on-read JSON projection (functions/jsonfields.py — the
    reference's RethinkDB-JSON→typed-ES-fields job, schemas.cr
    type_mapping): extract ``props.k`` as int64 with a vectorized Rust
    JSONPath kernel, then per-bucket stats with in-batch partials before
    the tiny groupby — payload bytes never reach the shuffle."""
    import pyarrow.compute as pc
    import ray.data as rd
    from search_ingest_ray.functions.jsonfields import extract_json_fields

    def partial(batch: pa.Table) -> pa.Table:
        b = extract_json_fields(batch, json_col="props",
                                fields={"k": ("$.k", "int64")})
        t = pa.table({
            "k_bucket": _pa_mod(b["k"], 10),
            "value_micro": pc.cast(
                pc.floor(pc.multiply(b["value"], pa.scalar(1e6))),
                pa.int64()),
        })
        g = t.group_by("k_bucket").aggregate(
            [([], "count_all"), ("value_micro", "sum")])
        return g.rename_columns(["k_bucket", "n", "value_micro_sum"])

    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["props", "value"])
    g = ds.map_batches(partial, batch_format="pyarrow") \
          .groupby("k_bucket").sum(["n", "value_micro_sum"])
    return g.map_batches(
        lambda t: t.rename_columns(["k_bucket", "n", "value_micro_sum"]),
        batch_format="pyarrow")


def q_webpage_build(sf_dir: str):
    """F0 corpus: extract html→text (byte-identity) + index build smoke on
    a small deterministic synthetic corpus (rows-only; the real assertions
    live in tests/test_index.py)."""
    from search_ingest_ray.corpus import write_corpus
    from search_ingest_ray.index.build import build_index
    from search_ingest_ray.query.searcher import Searcher
    cdir = "/tmp/search_ingest_ray_cache/webcorpus400"
    write_corpus(cdir, num_docs=400, num_files=4, seed=42)
    root = "/tmp/search_ingest_ray_cache/webindex400"
    build_index(cdir, root, html_col="html", chunk_files=2,
                num_term_partitions=4, hot_df_threshold=150, hot_salt=2)
    s = Searcher(root)
    d, sc = s.search("straße merge", k=10)
    return pa.table({"docid": pa.array(d, pa.int64()),
                     "score": pa.array(sc, pa.float64())})


# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: build the documents index at sf0.001 and serve the seeded
    query set; returns (query_id, rank, doc_id, score) rows."""
    from search_ingest_ray.pipelines.flagship import documents_index, run_query_set
    sf_dir = "/root/testdata/sf0.001"
    root = documents_index(sf_dir, analyzer="simple")
    queries = [["merge", "scan"], ["window", "hash", "join"], ["spark"],
               ["stream", "batch"], ["table", "sort"], ["dup", "key"]]
    return run_query_set(root, queries, k=10)


def _once(fn: Callable[[str], Any]) -> Callable[[str], Any]:
    """``fn`` with a lazy Ray Data result returned materialized, so a
    query runs its plan once per call however the caller reads it.

    A lazy plan runs again on every read, and one read runs it twice:
    in Ray 2.49.2 ``Dataset.to_arrow_refs`` executes the plan, then calls
    ``schema(fetch_if_missing=True)``, which executes it again, because
    the plan keeps no output and no ``map_batches`` operator can infer
    its schema.  ``to_arrow_refs``, ``take_all``, ``to_pandas`` and
    ``count`` on a materialized result read its snapshot.  Every caller
    reads the whole result, so this pins no more than they already do.
    A ``pa.Table`` or DataFrame result passes through unchanged."""
    @functools.wraps(fn)
    def run(sf_dir: str):
        from ray.data import Dataset
        res = fn(sf_dir)
        return res.materialize() if isinstance(res, Dataset) else res
    return run


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: _once(fn) for name, fn in {
        "doc_count_by_lang": q_doc_count_by_lang,
        "token_count": q_token_count,
        "corpus_stats": q_corpus_stats,
        "term_df": q_term_df,
        "top_terms": q_top_terms,
        "bm25_topk": q_bm25_topk,
        "bm25_sharded": q_bm25_sharded,
        "lmd_topk": q_lmd_topk,
        "lmd_sharded": q_lmd_sharded,
        "lmd_chain": q_lmd_chain,
        "lmjm_topk": q_lmjm_topk,
        "tfidf_topk": q_tfidf_topk,
        "bm25_chain": q_bm25_chain,
        "bm25_compacted": q_bm25_compacted,
        "bool_chain": q_bool_chain,
        "suggest": q_suggest,
        "bm25_filtered": q_bm25_filtered,
        "bm25_filtered_range": q_bm25_filtered_range,
        "bm25_topk_docs": q_bm25_topk_docs,
        "dedup_exact": q_dedup_exact,
        "incremental_dedup": q_incremental_dedup,
        "incremental_near_dup": q_incremental_near_dup,
        "percolate": q_percolate,
        "weighted_sample": q_weighted_sample,
        "group_topk": q_group_topk,
        "hll_card": q_hll_card,
        "shard_plan": q_shard_plan,
        "pack_plan": q_pack_plan,
        "oov_rate": q_oov_rate,
        "unigram_ppl": q_unigram_ppl,
        "quality_classifier": q_quality_classifier,
        "bpe_pairs": q_bpe_pairs,
        "bpe_merges": q_bpe_merges,
        "bpe_tokenize": q_bpe_tokenize,
        "sample_docs": q_sample_docs,
        "stratified_sample": q_stratified_sample,
        "mixture_mix": q_mixture_mix,
        "events_fold": q_events_fold,
        "events_fold_tombstone": q_events_fold_tombstone,
        "events_fold_partial": q_events_fold_partial,
        "keyword_exact": q_keyword_exact,
        "geo_distance": q_geo_distance,
        "ip_cidr": q_ip_cidr,
        "match_bool_prefix": q_match_bool_prefix,
        "geo_bbox": q_geo_bbox,
        "geotile": q_geotile,
        "geo_sort": q_geo_sort,
        "geohash": q_geohash,
        "ip_prefix": q_ip_prefix,
        "moving_percentile": q_moving_percentile,
        "random_score": q_random_score,
        "geo_polygon": q_geo_polygon,
        "geo_shape": q_geo_shape,
        "exists": q_exists,
        "bool_query": q_bool_query,
        "fuzzy": q_fuzzy,
        "wildcard": q_wildcard,
        "facet_lang": q_facet_lang,
        "search_after": q_search_after,
        "mlt": q_mlt,
        "highlight": q_highlight,
        "agg_stats": q_agg_stats,
        "matrix_stats": q_matrix_stats,
        "top_metrics": q_top_metrics,
        "mad": q_mad,
        "boxplot": q_boxplot,
        "string_stats": q_string_stats,
        "t_test": q_t_test,
        "sampler": q_sampler,
        "agg_histogram": q_agg_histogram,
        "date_histogram": q_date_histogram,
        "auto_date_histogram": q_auto_date_histogram,
        "pinned": q_pinned,
        "moving_avg": q_moving_avg,
        "weighted_avg_filter": q_weighted_avg_filter,
        "geo_bounds": q_geo_bounds,
        "geo_centroid": q_geo_centroid,
        "stats_bucket": q_stats_bucket,
        "normalize_agg": q_normalize_agg,
        "bucket_script": q_bucket_script,
        "cumulative_cardinality": q_cumulative_cardinality,
        "percentiles_bucket": q_percentiles_bucket,
        "date_range": q_date_range,
        "rate_agg": q_rate_agg,
        "bucket_sort": q_bucket_sort,
        "derivative": q_derivative,
        "max_bucket": q_max_bucket,
        "facet_stats": q_facet_stats,
        "cardinality": q_cardinality,
        "agg_range": q_agg_range,
        "regexp": q_regexp,
        "ext_stats": q_ext_stats,
        "composite": q_composite,
        "function_score": q_function_score,
        "function_score_gauss": q_function_score_gauss,
        "dis_max": q_dis_max,
        "boosting": q_boosting,
        "rank_feature": q_rank_feature,
        "prefix_query": q_prefix_query,
        "span_first": q_span_first,
        "span_near": q_span_near,
        "agg_filters": q_agg_filters,
        "adjacency": q_adjacency,
        "cum_hist": q_cum_hist,
        "rare_terms": q_rare_terms,
        "multi_terms": q_multi_terms,
        "repetition": q_repetition,
        "weighted_avg": q_weighted_avg,
        "decontaminate": q_decontaminate,
        "dup_ngrams": q_dup_ngrams,
        "corpus_filter": q_corpus_filter,
        "ids": q_ids,
        "phrase_prefix": q_phrase_prefix,
        "multi_match": q_multi_match,
        "termvectors": q_termvectors,
        "explain_top1": q_explain,
        "min_should_match": q_min_should_match,
        "sort_by_field": q_sort_by_field,
        "multi_match_boost": q_multi_match_boost,
        "percentiles": q_percentiles,
        "percentile_ranks": q_percentile_ranks,
        "index_stats": q_index_stats,
        "audio_features": q_audio_features,
        "distance_feature": q_distance_feature,
        "terms_set": q_terms_set,
        "rank_eval": q_rank_eval,
        "top_hits": q_top_hits,
        "collapse": q_collapse,
        "pii_scrub": q_pii_scrub,
        "sig_terms": q_sig_terms,
        "rescore": q_rescore,
        "asof_orders": q_asof_orders,
        "range_price": q_range_price,
        "interval_orders": q_interval_orders,
        "window_events": q_window_events,
        "window_sliding": q_window_sliding,
        "sessions": q_sessions,
        "replicate_orders": q_replicate_orders,
        "has_child_orders": q_has_child_orders,
        "has_parent_orders": q_has_parent_orders,
        "ann_cosine": q_ann_cosine,
        "rrf_hybrid": q_rrf_hybrid,
        "knn_filtered": q_knn_filtered,
        "quality": q_quality,
        "gopher_rules": q_gopher_rules,
        "span_dedup": q_span_dedup,
        "line_dedup": q_line_dedup,
        "token_jaccard": q_token_jaccard,
        "phrase_match": q_phrase_match,
        "phrase_common": q_phrase_common,
        "phrase_slop": q_phrase_slop,
        "intervals": q_intervals,
        "span_not": q_span_not,
        "span_within": q_span_within,
        # SQL-oracled via md5-low64 token hashes (util.tok_hash_sql) +
        # hugeint mod-2^64 arithmetic in DuckDB
        "minhash_pairs": q_minhash_pairs,
        "dedup_clusters": q_dedup_clusters,
        "simhash": q_simhash,
        "langid": q_langid,
        "fingerprint": q_fingerprint,
        "wet_ingest": q_wet_ingest,
        "url_canon": q_url_canon,
        "url_dedup": q_url_dedup,
        "host_stats": q_host_stats,
        "url_blocklist": q_url_blocklist,
        "chunk_plan": q_chunk_plan,
        "json_fields": q_json_fields,
        "doc_keywords": q_doc_keywords,
        # rows-only (non-SQL-expressible)
        "compression_ratio": q_compression_ratio,
        "embedding_near_dup": q_embedding_near_dup,
        "semantic_dedup": q_semantic_dedup,
        "ann_lsh": q_ann_lsh,
        "ann_ivf": q_ann_ivf,
        "image_features": q_image_features,
        "jpeg_features": q_jpeg_features,
        "gif_features": q_gif_features,
        "video_features": q_video_features,
        "webpage_build": q_webpage_build,
    }.items()}


def _mulmod64(x: str, y: str) -> str:
    """SQL for ``(x * y) mod 2^64`` on HUGEINTs via 32-bit split — a direct
    64×64 product can overflow signed-128 HUGEINT; each split partial stays
    < 2^97.  Mirrors numpy uint64 wrap-around multiplication."""
    return (f"((({x}) % 4294967296::HUGEINT) * ({y})"
            f" + ((({x}) // 4294967296::HUGEINT) * ({y}))"
            f" % 4294967296::HUGEINT * 4294967296::HUGEINT)"
            f" % 18446744073709551616::HUGEINT")


_M61 = (1 << 61) - 1
_M64 = 1 << 64
_M63 = 1 << 63


def oracle_sql() -> dict[str, str]:
    k1, b = 1.2, 0.75
    t1, t2 = BM25_QUERY_TERMS

    # CTE prefix shared by every BM25-scored oracle (plain top-k, filtered
    # variants, and the RRF hybrid below): `scored(doc_id, s)` is the exact
    # two-term BM25 sum over the whole corpus.
    bm25_ctes = f"""toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({k1} + 1)
              / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)"""

    def bm25_sql(where: str | None = None, extra_cols: str = "") -> str:
        """BM25 top-k SQL; ``where`` filters the candidate set AFTER scoring
        with GLOBAL stats (ES filter semantics — filters never change
        idf/avgdl), exactly like the engine's docvalues filter path."""
        filt = (f"JOIN documents d ON scored.doc_id = d.doc_id WHERE {where}"
                if where else
                ("JOIN documents d ON scored.doc_id = d.doc_id"
                 if extra_cols else ""))
        return f"""
WITH {bm25_ctes}
SELECT scored.doc_id, round(s, 4) AS score{extra_cols} FROM scored
{filt}
ORDER BY s DESC, scored.doc_id LIMIT {BM25_K}
"""

    bm25 = bm25_sql()

    # CTE prefix shared by the similarity-module oracles (lmd/lmjm/tfidf):
    # identical toks/dl to bm25_ctes, plus per-term ttf (collection term
    # frequency) and df over the SAME two query terms.  Each scored formula
    # mirrors Searcher.search_similarity op-for-op (see its docstring).
    sim_ctes = f"""toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM {{src}}
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM {{src}}) AS n,
         (SELECT cast(count(*) AS double) FROM toks) AS t
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
ttf AS (SELECT term, cast(sum(tf) AS double) AS ttf,
               count(*) AS df FROM tf GROUP BY term)"""

    def sim_sql(score_expr: str, src: str = "documents",
                prefix: str = "") -> str:
        return f"""
WITH {prefix}{sim_ctes.format(src=src)},
scored AS (
  SELECT tf.doc_id, sum({score_expr}) AS s
  FROM tf JOIN ttf USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT scored.doc_id, round(s, 4) AS score FROM scored
ORDER BY s DESC, scored.doc_id LIMIT {BM25_K}
"""

    mu, lam = 2000.0, 0.1
    lmd = sim_sql(
        f"greatest(0, ln(1 + tf.tf / ({mu} * ((ttf.ttf + 1) / (stats.t + 1))))"
        f" + ln({mu} / (dl.dl + {mu})))")
    lmjm = sim_sql(
        f"ln(1 + ((1 - {lam}) * tf.tf / dl.dl)"
        f" / ({lam} * ((ttf.ttf + 1) / (stats.t + 1))))")
    tfidf = sim_sql(
        "sqrt(tf.tf) * pow(1 + ln((stats.n + 1) / (ttf.df + 1)), 2)"
        " / sqrt(dl.dl)")
    # the chain variant scores the SAME lmd formula over bm25_chain's
    # final corpus (update/delete delta applied)
    lmd_chain = sim_sql(
        f"greatest(0, ln(1 + tf.tf / ({mu} * ((ttf.ttf + 1) / (stats.t + 1))))"
        f" + ln({mu} / (dl.dl + {mu})))",
        src="final",
        prefix=f"""final AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3
              THEN text || '{_CHAIN_SUFFIX}' ELSE text END AS text
  FROM documents WHERE doc_id % 13 <> 5
),
""")

    # -- constants for the hash-pipeline oracles (all data-independent:
    # interpolated as SQL literals, computed from the same seeds the engine
    # stages use) ------------------------------------------------------------
    from search_ingest_ray.functions.dedup import MinHashEmitter, _perm_params
    from search_ingest_ray.functions.textstats import _LANG_PROFILES

    mh_a, mh_b = _perm_params(32, 7)   # q_minhash_pairs: num_perm=32, seed=7
    mh_mix = MinHashEmitter._SHINGLE_MIX[:3]          # shingle_k=3
    mh_bmix = [((r + 1) * 0x9E3779B97F4A7C15) % _M64 for r in range(4)]
    perm_vals = ",".join(f"({i},{int(mh_a[i])}::HUGEINT,{int(mh_b[i])}::HUGEINT)"
                         for i in range(32))
    bmix_vals = ",".join(f"({r},{c}::HUGEINT)" for r, c in enumerate(mh_bmix))
    prof_vals = ",".join(f"('{lang}','{w}')"
                         for lang, prof in sorted(_LANG_PROFILES.items())
                         for w in sorted(prof))
    fp_seed63 = 14695981039346656037 % _M63

    _MH_BANDS_CTE = f"""base AS (
  SELECT doc_id,
         list_concat({_TOKS},
           list_transform(range(greatest(3 - len({_TOKS}), 0)),
                          x -> '')) AS toks
  FROM documents),
tok AS (SELECT doc_id, md5_number_lower(unnest(toks))::HUGEINT AS h,
               unnest(range(len(toks))) AS pos, len(toks) AS nt FROM base),
w AS (
  SELECT doc_id, pos, nt, h,
         lead(h, 1) OVER (PARTITION BY doc_id ORDER BY pos) AS h1,
         lead(h, 2) OVER (PARTITION BY doc_id ORDER BY pos) AS h2
  FROM tok),
sh AS (
  SELECT doc_id,
         ({_mulmod64('h', f'{int(mh_mix[0])}::HUGEINT')}
          + {_mulmod64('h1', f'{int(mh_mix[1])}::HUGEINT')}
          + {_mulmod64('h2', f'{int(mh_mix[2])}::HUGEINT')})
           % {_M64}::HUGEINT % {_M61}::HUGEINT AS shm
  FROM w WHERE pos <= nt - 3),
perms(pidx, a, b) AS (VALUES {perm_vals}),
sig AS (
  SELECT sh.doc_id, p.pidx,
         min((({_mulmod64('p.a', 'sh.shm')} + p.b) % {_M64}::HUGEINT)
             % {_M61}::HUGEINT) AS sig
  FROM sh CROSS JOIN perms p GROUP BY sh.doc_id, p.pidx),
bm(r, c) AS (VALUES {bmix_vals}),
bands AS (
  SELECT doc_id, pidx // 4 AS band,
         cast(sum({_mulmod64('sig', 'bm.c')}) % {_M63}::HUGEINT AS bigint)
           AS band_hash
  FROM sig JOIN bm ON bm.r = pidx % 4
  GROUP BY doc_id, pidx // 4)"""

    def _sh_cte(k: int, p: str = "n", out: str = "sh") -> str:
        """CTE ``{out}(doc_id, hv)``: DISTINCT word-k-gram hashes per doc —
        the exact ShingleHasher value (md5-low64 token hashes +
        position-weighted MIX polynomial, wrapping mod 2^64).  ``p``
        prefixes the intermediate CTE names so two k's can coexist in one
        query."""
        from search_ingest_ray.functions.dedup import ShingleHasher
        mix = ShingleHasher.MIX
        leads = ",\n         ".join(
            f"lead(h, {j}) OVER (PARTITION BY doc_id ORDER BY pos) AS h{j}"
            for j in range(1, k))
        terms = "\n          + ".join(
            _mulmod64("h" if j == 0 else f"h{j}",
                      f"{int(mix[j])}::HUGEINT")
            for j in range(k))
        return f"""{p}base AS (
  SELECT doc_id,
         list_concat({_TOKS},
           list_transform(range(greatest({k} - len({_TOKS}), 0)),
                          x -> '')) AS toks
  FROM documents),
{p}tok AS (SELECT doc_id, md5_number_lower(unnest(toks))::HUGEINT AS h,
                unnest(range(len(toks))) AS pos, len(toks) AS nt
         FROM {p}base),
{p}w AS (
  SELECT doc_id, pos, nt, h,
         {leads}
  FROM {p}tok),
{out} AS (
  SELECT DISTINCT doc_id,
         ({terms}) % {_M64}::HUGEINT AS hv
  FROM {p}w WHERE pos <= nt - {k})"""

    bool_micro = (f"cast(floor(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))"
                  f" * ((tf.tf * ({k1} + 1))"
                  f" / (tf.tf + {k1} * ((1 - {b}) + ({b} * dl.dl) / stats.avgdl)))"
                  f" * 1e6) AS bigint)")

    sql = {
        "doc_count_by_lang":
            "SELECT lang, count(*) AS n FROM documents GROUP BY lang",
        "token_count":
            f"SELECT doc_id, len({_TOKS}) AS n_tokens FROM documents",
        "corpus_stats": f"""
            SELECT cast(count(*) AS bigint) AS n_docs,
                   cast(coalesce(sum(len({_TOKS})), 0) AS bigint) AS total_tokens,
                   cast(floor(coalesce(sum(len({_TOKS})), 0)::double
                        / count(*) * 1e6) AS bigint) AS avgdl_micro
            FROM documents""",
        "term_df": f"""
            SELECT term, count(DISTINCT doc_id) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            GROUP BY term""",
        "top_terms": f"""
            SELECT term, count(*) AS cf
            FROM (SELECT unnest({_TOKS}) AS term FROM documents)
            GROUP BY term ORDER BY cf DESC, term LIMIT 20""",
        "bm25_topk": bm25,
        "bm25_sharded": bm25,
        "lmd_topk": lmd,
        "lmd_sharded": lmd,
        "lmd_chain": lmd_chain,
        "lmjm_topk": lmjm,
        "tfidf_topk": tfidf,
        "bm25_chain": f"""
WITH final AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3
              THEN text || '{_CHAIN_SUFFIX}' ELSE text END AS text
  FROM documents WHERE doc_id % 13 <> 5
),
toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM final
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM final) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM final) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
scored AS (
  SELECT tf.doc_id,
         sum( ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * ({k1} + 1)
              / (tf.tf + {k1} * (1 - {b} + {b} * dl.dl / stats.avgdl)) ) AS s
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
  GROUP BY tf.doc_id
)
SELECT scored.doc_id, round(s, 4) AS score FROM scored
ORDER BY s DESC, scored.doc_id LIMIT {BM25_K}
""",
        "suggest": f"""
            SELECT term, cast(count(DISTINCT doc_id) AS bigint) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            WHERE term LIKE 's%'
            GROUP BY term ORDER BY df DESC, term LIMIT 10""",
        "bm25_filtered": bm25_sql(where="d.lang = 'de'"),
        "bm25_filtered_range": bm25_sql(
            where="d.n_chars BETWEEN 150 AND 350 "
                  "AND d.source IN ('src3', 'src7')"),
        "bm25_topk_docs": bm25_sql(extra_cols=", d.lang, d.source"),
        "keyword_exact": """
            SELECT doc_id FROM documents
            WHERE text IN (
              (SELECT text FROM documents ORDER BY doc_id ASC LIMIT 1),
              (SELECT text FROM documents ORDER BY doc_id DESC LIMIT 1))""",
        # geo oracles mirror geo_coords + FieldStore._geo_mask op-for-op
        # (same IEEE double sequence; 0.017453292519943295 = pi/180)
        "geo_distance": f"""
WITH g AS (
  SELECT doc_id, {_GEO_LAT} AS lat, {_GEO_LON} AS lon FROM documents
),
h AS (
  SELECT doc_id,
         sin((lat - {GEO_CENTER[0]!r}) * 0.017453292519943295 / 2.0) AS sdlat,
         sin((lon - {GEO_CENTER[1]!r}) * 0.017453292519943295 / 2.0) AS sdlon,
         cos({GEO_CENTER[0]!r} * 0.017453292519943295)
           * cos(lat * 0.017453292519943295) AS cc
  FROM g
)
SELECT doc_id FROM h
WHERE 2.0 * 6371000.0
      * asin(sqrt(least(sdlat * sdlat + cc * sdlon * sdlon, 1.0)))
      <= {GEO_RADIUS_M!r}
ORDER BY doc_id""",
        "geo_bbox": f"""
SELECT doc_id FROM (
  SELECT doc_id, {_GEO_LAT} AS lat, {_GEO_LON} AS lon FROM documents
)
WHERE lat >= {GEO_BOX[2]!r} AND lat <= {GEO_BOX[0]!r}
  AND lon >= {GEO_BOX[1]!r} AND lon <= {GEO_BOX[3]!r}
ORDER BY doc_id""",
        "geotile": f"""
WITH m AS (
  SELECT {_GEO_LAT} AS lat, {_GEO_LON} AS lon FROM documents
  WHERE len(list_filter({_TOKS}, x -> x IN ('{t1}', '{t2}'))) > 0)
SELECT cast(floor((lon + 180.0) / 360.0 * {float(2 ** GEOTILE_ZOOM)!r})
            AS BIGINT) AS tile_x,
       cast(floor((1.0 - ln(tan(lat * (pi() / 180.0))
                            + 1.0 / cos(lat * (pi() / 180.0))) / pi())
                  / 2.0 * {float(2 ** GEOTILE_ZOOM)!r}) AS BIGINT) AS tile_y,
       cast(count(*) AS BIGINT) AS n
FROM m GROUP BY 1, 2""",
        "random_score": f"""
SELECT doc_id,
       (md5_number_lower('{RANDOM_SCORE_SEED}:' || doc_id)
        % 1000000)::BIGINT AS score_micro
FROM documents
WHERE len(list_filter({_TOKS}, x -> x IN ('{t1}', '{t2}'))) > 0
ORDER BY score_micro DESC, doc_id LIMIT 10""",
        # even-odd ray casting, one unrolled PNPOLY crossing term per edge
        # (edge k: verts[k] -> verts[k-1]), mirroring FieldStore._geo_mask
        "geo_polygon": f"""
SELECT doc_id FROM (
  SELECT doc_id, {_GEO_LAT} AS lat, {_GEO_LON} AS lon FROM documents
)
WHERE (""" + " + ".join(
            f"""CASE WHEN (lat > {GEO_POLY[k][0]!r})
                       <> (lat > {GEO_POLY[k - 1][0]!r})
                      AND lon < ({GEO_POLY[k - 1][1]!r} - {GEO_POLY[k][1]!r})
                          * (lat - {GEO_POLY[k][0]!r})
                          / ({GEO_POLY[k - 1][0]!r} - {GEO_POLY[k][0]!r})
                          + {GEO_POLY[k][1]!r}
                 THEN 1 ELSE 0 END"""
            for k in range(len(GEO_POLY))) + """) % 2 = 1
ORDER BY doc_id""",
        # envelope interval algebra per ES relation; env CTE mirrors
        # pipelines/flagship.py geo_envelope op-for-op
        "geo_shape": f"""
WITH env AS (
  SELECT doc_id,
         ({_GEO_LAT} - (0.5 + (doc_id % 7) / 2.0)) AS lat_min,
         ({_GEO_LAT} + (0.5 + (doc_id % 7) / 2.0)) AS lat_max,
         ({_GEO_LON} - (0.5 + (doc_id % 11) / 2.0)) AS lon_min,
         ({_GEO_LON} + (0.5 + (doc_id % 11) / 2.0)) AS lon_max
  FROM documents
),
rect AS (SELECT {GEO_SHAPE_RECT[0]!r} AS top, {GEO_SHAPE_RECT[1]!r} AS lft,
                {GEO_SHAPE_RECT[2]!r} AS bot, {GEO_SHAPE_RECT[3]!r} AS rgt)
SELECT relation, doc_id FROM (
  SELECT 'intersects' AS relation, doc_id FROM env, rect
  WHERE lat_min <= top AND lat_max >= bot
    AND lon_min <= rgt AND lon_max >= lft
  UNION ALL
  SELECT 'within', doc_id FROM env, rect
  WHERE lat_min >= bot AND lat_max <= top
    AND lon_min >= lft AND lon_max <= rgt
  UNION ALL
  SELECT 'contains', doc_id FROM env, rect
  WHERE lat_min <= bot AND lat_max >= top
    AND lon_min <= lft AND lon_max >= rgt
  UNION ALL
  SELECT 'disjoint', doc_id FROM env, rect
  WHERE NOT (lat_min <= top AND lat_max >= bot
             AND lon_min <= rgt AND lon_max >= lft)
) ORDER BY relation, doc_id""",
        "exists": """
SELECT doc_id FROM documents WHERE doc_id % 5 <> 0 ORDER BY doc_id""",
        "bool_chain": f"""
WITH final AS (
  SELECT doc_id,
         CASE WHEN doc_id % 7 = 3
              THEN text || '{_CHAIN_SUFFIX}' ELSE text END AS text
  FROM documents WHERE doc_id % 13 <> 5
),
toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM final
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM final) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM final) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}', 'window') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
  HAVING count(DISTINCT CASE WHEN term IN ('{t1}', '{t2}')
                        THEN term END) = 2
)
SELECT s.doc_id, s.score_micro FROM scored s
WHERE NOT EXISTS (SELECT 1 FROM toks t
                  WHERE t.doc_id = s.doc_id AND t.term = 'spark')
ORDER BY s.score_micro DESC, s.doc_id LIMIT {BM25_K}
""",
        "ip_cidr": """
            SELECT doc_id FROM documents
            WHERE ((doc_id * 7) % 256) BETWEEN 16 AND 31""",
        "match_bool_prefix": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term = '{t1}' GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
bm AS (SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM per GROUP BY doc_id),
pd AS (SELECT DISTINCT doc_id FROM toks WHERE term LIKE '{MBP_PREFIX}%'),
ids AS (SELECT doc_id FROM bm UNION SELECT doc_id FROM pd),
scored AS (
  SELECT ids.doc_id,
         coalesce(bm.m, 0)
         + CASE WHEN pd.doc_id IS NOT NULL THEN 1000000 ELSE 0 END
           AS score_micro
  FROM ids LEFT JOIN bm ON ids.doc_id = bm.doc_id
           LEFT JOIN pd ON ids.doc_id = pd.doc_id
)
SELECT doc_id, score_micro FROM scored
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "bool_query": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}', 'window') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
  HAVING count(DISTINCT CASE WHEN term IN ('{t1}', '{t2}')
                        THEN term END) = 2
)
SELECT s.doc_id, s.score_micro FROM scored s
WHERE NOT EXISTS (SELECT 1 FROM toks t
                  WHERE t.doc_id = s.doc_id AND t.term = 'spark')
ORDER BY s.score_micro DESC, s.doc_id LIMIT {BM25_K}
""",
        "search_after": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
)
SELECT doc_id, score_micro FROM scored
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K} OFFSET {BM25_K}
""",
        "mlt": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
gdf AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
seed_tf AS (
  SELECT term, count(*) AS tf FROM toks
  WHERE doc_id = {MLT_SEED_DOC} GROUP BY term
),
sel AS (
  SELECT st.term FROM seed_tf st JOIN gdf g USING (term) CROSS JOIN stats
  ORDER BY cast(floor(st.tf * ln(1 + (stats.n - g.df + 0.5) / (g.df + 0.5))
                      * 1e6) AS bigint) DESC, st.term
  LIMIT {MLT_TERMS}
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN (SELECT term FROM sel) GROUP BY doc_id, term
),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN gdf df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
)
SELECT doc_id, score_micro FROM scored
WHERE doc_id != {MLT_SEED_DOC}
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "highlight": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
),
topd AS (
  SELECT doc_id FROM scored ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
),
pos AS (
  SELECT doc_id, unnest({_TOKS}) AS term,
         unnest(range(len({_TOKS}))) AS pos
  FROM documents
)
SELECT p.doc_id, p.term, cast(min(p.pos) AS bigint) AS first_pos
FROM pos p JOIN topd USING (doc_id)
WHERE p.term IN ('{t1}', '{t2}')
GROUP BY p.doc_id, p.term
ORDER BY p.doc_id, p.term
""",
        "multi_match": f"""
WITH ttoks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
tdl AS (SELECT doc_id, count(*) AS dl FROM ttoks GROUP BY doc_id),
tstats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM ttoks)
           / (SELECT count(*) FROM documents) AS avgdl
),
ttf AS (
  SELECT doc_id, term, count(*) AS tf FROM ttoks
  WHERE term IN ('{MM_TERMS[0]}', '{MM_TERMS[1]}') GROUP BY doc_id, term
),
tdf AS (SELECT term, count(*) AS df FROM ttf GROUP BY term),
tper AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM ttf tf JOIN tdf df USING (term) JOIN tdl dl USING (doc_id)
  CROSS JOIN tstats stats
),
tscored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM tper GROUP BY doc_id
),
stoks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(source), '[a-z0-9]+'))
           AS term
  FROM documents
),
sdl AS (SELECT doc_id, count(*) AS dl FROM stoks GROUP BY doc_id),
sstats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM stoks)
           / (SELECT count(*) FROM documents) AS avgdl
),
stf AS (
  SELECT doc_id, term, count(*) AS tf FROM stoks
  WHERE term IN ('{MM_TERMS[0]}', '{MM_TERMS[1]}') GROUP BY doc_id, term
),
sdf AS (SELECT term, count(*) AS df FROM stf GROUP BY term),
sper AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM stf tf JOIN sdf df USING (term) JOIN sdl dl USING (doc_id)
  CROSS JOIN sstats stats
),
sscored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM sper GROUP BY doc_id
)
SELECT doc_id,
       greatest(coalesce(t.m, 0), coalesce(s.m, 0)) AS score_micro
FROM tscored t FULL JOIN sscored s USING (doc_id)
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "fuzzy": f"""
            SELECT term, cast(count(DISTINCT doc_id) AS bigint) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            WHERE levenshtein(term, '{FUZZY_PROBE}') <= 1
            GROUP BY term ORDER BY df DESC, term LIMIT 10""",
        "wildcard": f"""
            SELECT term, cast(count(DISTINCT doc_id) AS bigint) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            WHERE term LIKE '{WILDCARD_PATTERN.replace("*", "%").replace("?", "_")}'
            GROUP BY term ORDER BY df DESC, term LIMIT 10""",
        "facet_lang": f"""
            SELECT lang, count(*) AS n FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY lang""",
        "agg_stats": f"""
            SELECT cast(count(*) AS bigint) AS n,
                   cast(min(n_chars) AS bigint) AS min,
                   cast(max(n_chars) AS bigint) AS max,
                   cast(sum(n_chars) AS bigint) AS sum,
                   cast((sum(n_chars) * 1000000) // count(*) AS bigint)
                     AS avg_micro
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0""",
        "matrix_stats": f"""
            WITH m AS (
              SELECT n_chars::HUGEINT AS x, doc_id::HUGEINT AS y
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            s AS (SELECT count(*)::HUGEINT AS n, sum(x) AS sx, sum(y) AS sy,
                         sum(x*x) AS sxx, sum(y*y) AS syy, sum(x*y) AS sxy
                  FROM m)
            SELECT cast(n AS BIGINT) AS n,
                   cast(sx * 1000000 // n AS BIGINT) AS mean_x_micro,
                   cast(sy * 1000000 // n AS BIGINT) AS mean_y_micro,
                   cast((n*sxx - sx*sx) * 1000000 // (n*n) AS BIGINT)
                     AS var_x_micro,
                   cast((n*syy - sy*sy) * 1000000 // (n*n) AS BIGINT)
                     AS var_y_micro,
                   cast((n*sxy - sx*sy) * 1000000 // (n*n) AS BIGINT)
                     AS cov_micro,
                   cast(CASE WHEN n*sxy - sx*sy > 0 THEN 1
                             WHEN n*sxy - sx*sy < 0 THEN -1
                             ELSE 0 END AS BIGINT) AS corr_sign,
                   cast(CASE WHEN (n*sxx - sx*sx) > 0 AND (n*syy - sy*sy) > 0
                        THEN ((n*sxy - sx*sy) * (n*sxy - sx*sy) * 1000000)
                             // ((n*sxx - sx*sx) * (n*syy - sy*sy))
                        ELSE NULL END AS BIGINT) AS corr_sq_micro
            FROM s""",
        "top_metrics": f"""
            SELECT cast(n_chars AS BIGINT) AS sort_val,
                   cast(doc_id AS BIGINT) AS metric
            FROM documents
            WHERE len(list_filter({_TOKS}, x -> x IN ('{t1}', '{t2}'))) > 0
            ORDER BY n_chars DESC, doc_id LIMIT 5""",
        "mad": f"""
            WITH v AS (
              SELECT n_chars AS x FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            c AS (SELECT count(*) AS n FROM v),
            med AS (
              SELECT x AS med FROM
                (SELECT x, row_number() OVER (ORDER BY x) AS rn FROM v), c
              WHERE rn = (c.n + 1) // 2),
            dev AS (SELECT abs(v.x - med.med) AS d FROM v, med),
            mad AS (
              SELECT d AS mad FROM
                (SELECT d, row_number() OVER (ORDER BY d) AS rn FROM dev), c
              WHERE rn = (c.n + 1) // 2)
            SELECT cast(c.n AS BIGINT) AS n, cast(med.med AS BIGINT) AS median,
                   cast(mad.mad AS BIGINT) AS mad
            FROM c, med, mad""",
        "boxplot": f"""
            WITH v AS (
              SELECT n_chars AS x FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            c AS (SELECT count(*) AS n FROM v),
            r AS (SELECT x, row_number() OVER (ORDER BY x) AS rn FROM v)
            SELECT cast(c.n AS BIGINT) AS n,
                   (SELECT cast(min(x) AS BIGINT) FROM v) AS min,
                   (SELECT cast(x AS BIGINT) FROM r, c
                    WHERE rn = greatest(cast(ceil(0.25 * c.n) AS BIGINT), 1))
                     AS q1,
                   (SELECT cast(x AS BIGINT) FROM r, c
                    WHERE rn = greatest(cast(ceil(0.5 * c.n) AS BIGINT), 1))
                     AS q2,
                   (SELECT cast(x AS BIGINT) FROM r, c
                    WHERE rn = greatest(cast(ceil(0.75 * c.n) AS BIGINT), 1))
                     AS q3,
                   (SELECT cast(max(x) AS BIGINT) FROM v) AS max
            FROM c""",
        "string_stats": f"""
            WITH v AS (
              SELECT lang AS s FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
                AND lang IS NOT NULL),
            c AS (SELECT count(*) AS n, sum(length(s)) AS total_len,
                         min(length(s)) AS min_len,
                         max(length(s)) AS max_len FROM v),
            ch AS (SELECT unnest(string_split(s, '')) AS ch FROM v),
            cc AS (SELECT ch, count(*) AS cnt FROM ch GROUP BY ch),
            tot AS (SELECT sum(cnt) AS t FROM cc),
            terms AS (
              SELECT ch, -((cnt / tot.t) * log2(cnt / tot.t)) AS term
              FROM cc, tot),
            ent AS (
              SELECT sum(term) OVER (ORDER BY ch
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                       AS e,
                     row_number() OVER (ORDER BY ch) AS rn,
                     count(*) OVER () AS m
              FROM terms)
            SELECT cast(c.n AS BIGINT) AS n,
                   cast(c.min_len AS BIGINT) AS min_len,
                   cast(c.max_len AS BIGINT) AS max_len,
                   cast((1000000 * c.total_len) // c.n AS BIGINT)
                     AS avg_len_micro,
                   cast(floor(ent.e * 1000000) AS BIGINT) AS entropy_micro
            FROM c, ent WHERE ent.rn = ent.m""",
        "t_test": f"""
            WITH v AS (
              SELECT cast(n_chars AS HUGEINT) - cast(doc_id AS HUGEINT) AS d
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
                AND n_chars IS NOT NULL AND doc_id IS NOT NULL),
            s AS (SELECT count(*) AS n, sum(d) AS sum_d,
                         sum(d * d) AS sum_d2 FROM v)
            SELECT cast(n AS BIGINT) AS n,
                   cast(sum_d AS BIGINT) AS sum_d,
                   cast(sum_d2 AS BIGINT) AS sum_d2,
                   cast(floor(
                     (cast(sum_d AS DOUBLE) / n)
                     / sqrt(((cast(sum_d2 AS DOUBLE)
                              - (cast(sum_d AS DOUBLE)
                                 * cast(sum_d AS DOUBLE)) / n)
                             / (n - 1)) / n)
                     * 1000000) AS BIGINT) AS t_micro
            FROM s""",
        "sampler": f"""
            WITH m AS (
              SELECT doc_id, lang AS value FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
                AND lang IS NOT NULL),
            r AS (SELECT doc_id, value,
                         row_number() OVER (PARTITION BY value
                                            ORDER BY doc_id) AS k
                  FROM m),
            s AS (SELECT doc_id, value FROM r WHERE k <= {SAMPLER_MAX_PER}
                  ORDER BY doc_id LIMIT {SAMPLER_SHARD_SIZE})
            SELECT doc_id, value FROM s ORDER BY doc_id""",
        "agg_histogram": f"""
            SELECT cast((n_chars // {HIST_INTERVAL}) * {HIST_INTERVAL}
                        AS bigint) AS bucket,
                   count(*) AS n
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY bucket ORDER BY bucket""",
        "date_histogram": """
            SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
            FROM events WHERE event_type = 'purchase'
            GROUP BY bucket ORDER BY bucket""",
        "derivative": f"""
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket
            ),
            mm AS (SELECT min(bucket) AS lo, max(bucket) AS hi FROM h),
            allb AS (
              SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR))
                AS bucket FROM mm
            ),
            dense AS (
              SELECT f.bucket, coalesce(h.n, 0) AS n
              FROM allb f LEFT JOIN h ON f.bucket = h.bucket
            )
            SELECT bucket, n,
                   n - lag(n, 1) OVER (ORDER BY bucket) AS deriv,
                   n - lag(n, {SERIAL_LAG}) OVER (ORDER BY bucket) AS sdiff
            FROM dense ORDER BY bucket""",
        "max_bucket": """
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket
            )
            SELECT bucket, n FROM h WHERE n = (SELECT max(n) FROM h)
            ORDER BY bucket""",
        "auto_date_histogram": f"""
            WITH v AS (
              SELECT epoch_us(ts) AS us FROM events
              WHERE event_type = 'purchase'),
            mm AS (SELECT min(us) AS lo, max(us) AS hi FROM v),
            ladder(i) AS (VALUES
              (1000000), (60000000), (300000000), (600000000),
              (1800000000), (3600000000), (10800000000), (43200000000),
              (86400000000), (604800000000), (2592000000000),
              (7776000000000), (31536000000000)),
            fit AS (SELECT i FROM ladder, mm
                    WHERE hi // i - lo // i + 1 <= {AUTO_DH_TARGET}
                    ORDER BY i LIMIT 1),
            chosen AS (
              SELECT coalesce((SELECT i FROM fit), 31536000000000) AS i)
            SELECT cast(chosen.i AS BIGINT) AS interval_us,
                   make_timestamp((us // chosen.i) * chosen.i) AS bucket,
                   count(*) AS n
            FROM v, chosen
            GROUP BY 1, 2 ORDER BY bucket""",
        "pinned": f"""
            WITH {{bm25_ctes}},
            pin(pid, pr) AS (VALUES
              {", ".join(f"({i}, {r})"
                         for r, i in enumerate(PINNED_IDS, 1))}),
            kept AS (
              SELECT pid, row_number() OVER (ORDER BY pr) AS krank
              FROM pin WHERE pid IN (SELECT doc_id FROM documents)),
            org AS (
              SELECT scored.doc_id,
                     row_number() OVER (ORDER BY s DESC, scored.doc_id)
                       AS orank
              FROM scored
              WHERE scored.doc_id NOT IN (SELECT pid FROM kept)),
            np AS (SELECT count(*) AS c FROM kept)
            SELECT krank AS rank, pid AS doc_id, true AS pinned FROM kept
            WHERE krank <= {BM25_K}
            UNION ALL
            SELECT orank + np.c, doc_id, false
            FROM org, np WHERE orank + np.c <= {BM25_K}
            ORDER BY rank""".replace("{bm25_ctes}", bm25_ctes),
        "moving_avg": f"""
WITH h AS (
  SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
  FROM events WHERE event_type = 'purchase' GROUP BY bucket),
m AS (
  SELECT bucket, n,
         sum(n) OVER w AS wsum,
         count(*) OVER w AS wcnt
  FROM h
  WINDOW w AS (ORDER BY bucket
               ROWS BETWEEN {MOVING_WINDOW} PRECEDING AND 1 PRECEDING))
SELECT bucket, cast(n AS bigint) AS n,
       cast(CASE WHEN wcnt > 0 THEN wsum * 1000000 // wcnt END AS bigint)
         AS mov_avg_micro
FROM m WHERE n >= {MOVING_MIN_N} ORDER BY bucket""",
        "weighted_avg_filter": f"""
            WITH v AS (
              SELECT cast(n_chars AS HUGEINT) AS v,
                     cast(doc_id AS HUGEINT) AS w
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
                AND n_chars IS NOT NULL AND doc_id IS NOT NULL)
            SELECT cast(count(*) AS BIGINT) AS n,
                   cast(sum(w) AS BIGINT) AS sum_w,
                   cast(CASE WHEN sum(w) <> 0
                        THEN (sum(v * w) * 1000000) // sum(w) END
                        AS BIGINT) AS wavg_micro
            FROM v""",
        "geohash": (lambda bits, lon_b, lat_b: f"""
            WITH g AS (
              SELECT least(cast(floor(({_GEO_LON} + 180.0) / 360.0
                                      * {float(1 << lon_b)!r}) AS BIGINT),
                           {(1 << lon_b) - 1}) AS lon_q,
                     least(cast(floor(({_GEO_LAT} + 90.0) / 180.0
                                      * {float(1 << lat_b)!r}) AS BIGINT),
                           {(1 << lat_b) - 1}) AS lat_q
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0)
            SELECT cast({" + ".join(
                f"(((lon_q >> {lon_b - 1 - i // 2}) & 1) << {bits - 1 - i})"
                if i % 2 == 0 else
                f"(((lat_q >> {lat_b - 1 - i // 2}) & 1) << {bits - 1 - i})"
                for i in range(bits))} AS BIGINT) AS cell,
                   count(*) AS n
            FROM g GROUP BY cell ORDER BY cell""")(
                5 * GEOHASH_PRECISION, (5 * GEOHASH_PRECISION + 1) // 2,
                (5 * GEOHASH_PRECISION) // 2),
        "ip_prefix": f"""
            SELECT cast(167772160 + ((doc_id * 7) % 256) * 65536
                        AS BIGINT) AS prefix,
                   count(*) AS n
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY prefix ORDER BY prefix""",
        "moving_percentile": f"""
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket),
            r AS (SELECT bucket, n,
                         row_number() OVER (ORDER BY bucket) AS rn
                  FROM h)
            SELECT a.bucket, cast(a.n AS BIGINT) AS n,
                   cast((SELECT s.n FROM (
                       SELECT b.n,
                              row_number() OVER (ORDER BY b.n) AS rk,
                              count(*) OVER () AS m
                       FROM r b
                       WHERE b.rn BETWEEN a.rn - {MOVING_PCT_WINDOW}
                                      AND a.rn - 1) s
                     WHERE s.rk = greatest(cast(ceiling(
                       {MOVING_PCT} / 100.0 * s.m) AS BIGINT), 1))
                     AS BIGINT) AS pctl
            FROM r a ORDER BY a.bucket""",
        "geo_sort": f"""
            WITH g AS (
              SELECT doc_id, {_GEO_LAT} AS lat, {_GEO_LON} AS lon
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            h AS (
              SELECT doc_id,
                     sin((lat - {GEO_CENTER[0]!r}) * 0.017453292519943295
                         / 2.0) AS sdlat,
                     sin((lon - {GEO_CENTER[1]!r}) * 0.017453292519943295
                         / 2.0) AS sdlon,
                     cos({GEO_CENTER[0]!r} * 0.017453292519943295)
                       * cos(lat * 0.017453292519943295) AS cc
              FROM g),
            d AS (
              SELECT doc_id,
                     2.0 * 6371000.0 * asin(sqrt(least(
                       sdlat * sdlat + cc * sdlon * sdlon, 1.0))) AS dist
              FROM h),
            r AS (
              SELECT doc_id, dist,
                     row_number() OVER (ORDER BY dist, doc_id) AS rank
              FROM d)
            SELECT cast(rank AS BIGINT) AS rank, doc_id,
                   cast(floor(dist) AS BIGINT) AS dist_m
            FROM r WHERE rank <= {BM25_K} ORDER BY rank""",
        "geo_bounds": f"""
            WITH g AS (
              SELECT {_GEO_LAT} AS lat, {_GEO_LON} AS lon FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0)
            SELECT cast(count(*) AS BIGINT) AS n,
                   max(lat) AS top_left_lat, min(lon) AS top_left_lon,
                   min(lat) AS bottom_right_lat,
                   max(lon) AS bottom_right_lon
            FROM g""",
        "geo_centroid": f"""
            WITH g AS (
              SELECT cast(floor({_GEO_LAT} * 1000.0 + 0.5) AS BIGINT)
                       AS lat_mil,
                     cast(floor({_GEO_LON} * 1000.0 + 0.5) AS BIGINT)
                       AS lon_mil
              FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0)
            SELECT cast(count(*) AS BIGINT) AS n,
                   cast((sum(lat_mil) * 1000) // count(*) AS BIGINT)
                     AS lat_micro,
                   cast((sum(lon_mil) * 1000) // count(*) AS BIGINT)
                     AS lon_micro
            FROM g""",
        "stats_bucket": """
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket)
            SELECT cast(count(*) AS BIGINT) AS n_buckets,
                   cast(min(n) AS BIGINT) AS min_n,
                   cast(max(n) AS BIGINT) AS max_n,
                   cast(sum(n) AS BIGINT) AS sum_n,
                   cast((sum(n) * 1000000) // count(*) AS BIGINT)
                     AS avg_micro
            FROM h""",
        "normalize_agg": """
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket),
            mm AS (SELECT min(n) AS lo, max(n) AS hi FROM h)
            SELECT bucket, cast(n AS BIGINT) AS n,
                   cast(CASE WHEN hi <> lo
                        THEN ((n - lo) * 1000000) // (hi - lo) END
                        AS BIGINT) AS norm_micro
            FROM h, mm ORDER BY bucket""",
        "bucket_script": """
            WITH a AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket),
            b AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'click' GROUP BY bucket),
            u AS (SELECT bucket FROM a UNION SELECT bucket FROM b)
            SELECT u.bucket,
                   cast(coalesce(a.n, 0) AS BIGINT) AS n_a,
                   cast(coalesce(b.n, 0) AS BIGINT) AS n_b,
                   cast(CASE WHEN coalesce(b.n, 0) <> 0
                        THEN (coalesce(a.n, 0) * 1000000) // b.n END
                        AS BIGINT) AS ratio_micro
            FROM u LEFT JOIN a ON u.bucket = a.bucket
                   LEFT JOIN b ON u.bucket = b.bucket
            ORDER BY u.bucket""",
        "cumulative_cardinality": """
            WITH p AS (
              SELECT date_trunc('hour', ts) AS bucket, user_id
              FROM events WHERE event_type = 'purchase'
                AND ts IS NOT NULL AND user_id IS NOT NULL),
            h AS (SELECT bucket, count(*) AS n FROM p GROUP BY bucket),
            f AS (SELECT user_id, min(bucket) AS first_b FROM p
                  GROUP BY user_id)
            SELECT h.bucket, cast(h.n AS BIGINT) AS n,
                   cast((SELECT count(*) FROM f
                         WHERE f.first_b <= h.bucket) AS BIGINT)
                     AS cum_card
            FROM h ORDER BY h.bucket""",
        "rate_agg": f"""
            SELECT date_trunc('hour', ts) AS bucket,
                   cast(count(*) AS BIGINT) AS n,
                   cast((count(*)::HUGEINT * {MINUTE_US} * 1000000)
                        // {HOUR_US} AS BIGINT) AS rate_micro
            FROM events WHERE event_type = 'purchase'
            GROUP BY bucket ORDER BY bucket""",
        "percentiles_bucket": f"""
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket),
            o AS (SELECT n, row_number() OVER (ORDER BY n) AS rn FROM h),
            cnt AS (SELECT count(*) AS m FROM h),
            p(pct) AS (VALUES ({PCTS[0]}), ({PCTS[1]}), ({PCTS[2]}))
            SELECT cast(p.pct AS BIGINT) AS pct,
                   (SELECT cast(o.n AS BIGINT) FROM o CROSS JOIN cnt
                    WHERE o.rn = greatest(
                      cast(ceiling(p.pct / 100.0 * cnt.m) AS bigint), 1))
                     AS value
            FROM p ORDER BY pct""",
        "date_range": f"""
            WITH v AS (
              SELECT epoch_us(ts) AS us FROM events
              WHERE event_type = 'purchase' AND ts IS NOT NULL),
            r(range_idx, from_us, to_us) AS (VALUES
              (0, NULL, {DATE_RANGE_EDGES[0]}),
              (1, {DATE_RANGE_EDGES[0]}, {DATE_RANGE_EDGES[1]}),
              (2, {DATE_RANGE_EDGES[1]}, NULL))
            SELECT cast(r.range_idx AS BIGINT) AS range_idx,
                   cast(r.from_us AS BIGINT) AS from_us,
                   cast(r.to_us AS BIGINT) AS to_us,
                   cast((SELECT count(*) FROM v
                         WHERE (r.from_us IS NULL OR v.us >= r.from_us)
                           AND (r.to_us IS NULL OR v.us < r.to_us))
                        AS BIGINT) AS n
            FROM r ORDER BY range_idx""",
        "bucket_sort": f"""
            WITH h AS (
              SELECT date_trunc('hour', ts) AS bucket, count(*) AS n
              FROM events WHERE event_type = 'purchase' GROUP BY bucket),
            r AS (
              SELECT bucket, n,
                     row_number() OVER (ORDER BY n DESC, bucket) AS rank
              FROM h)
            SELECT cast(rank AS BIGINT) AS rank, bucket,
                   cast(n AS BIGINT) AS n
            FROM r WHERE rank <= {BUCKET_SORT_SIZE} ORDER BY rank""",
        "facet_stats": f"""
            SELECT lang,
                   cast(count(*) AS bigint) AS n,
                   cast(min(n_chars) AS bigint) AS min,
                   cast(max(n_chars) AS bigint) AS max,
                   cast(sum(n_chars) AS bigint) AS sum,
                   cast((sum(n_chars) * 1000000) // count(*) AS bigint)
                     AS avg_micro
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY lang ORDER BY lang""",
        "cardinality": f"""
            SELECT cast(count(DISTINCT source) AS bigint) AS cardinality
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0""",
        "min_should_match": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{MSM_TERMS[0]}', '{MSM_TERMS[1]}', '{MSM_TERMS[2]}')
  GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
  HAVING count(DISTINCT term) >= 2
)
SELECT doc_id, score_micro FROM scored
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "rescore": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS base
  FROM per GROUP BY doc_id
),
w AS (
  SELECT doc_id, base,
         row_number() OVER (ORDER BY base DESC, doc_id) AS rn
  FROM scored
),
resc AS (
  SELECT w.doc_id,
         w.base + CASE WHEN ' ' || lower(d.text) || ' '
                LIKE '% {" ".join(PHRASE_TERMS)} %'
              THEN {RESCORE_BONUS} ELSE 0 END AS score_micro
  FROM w JOIN documents d USING (doc_id)
  WHERE w.rn <= {RESCORE_WINDOW}
)
SELECT doc_id, score_micro FROM resc
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "percentiles": f"""
            WITH m AS (
              SELECT n_chars AS v FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
            ),
            o AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM m),
            cnt AS (SELECT count(*) AS n FROM m),
            p(pct) AS (VALUES ({PCTS[0]}), ({PCTS[1]}), ({PCTS[2]}))
            SELECT cast(p.pct AS bigint) AS pct,
                   (SELECT o.v FROM o CROSS JOIN cnt
                    WHERE o.rn = greatest(
                      cast(ceiling(p.pct / 100.0 * cnt.n) AS bigint), 1))
                     AS value
            FROM p ORDER BY pct""",
        "rank_eval": f"""
WITH ranked AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY score DESC, doc_id) AS rn
  FROM ({bm25})
),
rel AS (
  SELECT doc_id FROM documents
  WHERE list_has_all({_TOKS}, ['{t1}', '{t2}'])
),
hit AS (SELECT rn FROM ranked JOIN rel USING (doc_id))
SELECT
  cast((SELECT count(*) FROM hit) * 1000000 // {BM25_K} AS bigint)
    AS precision_micro,
  cast(coalesce((SELECT 1000000 // min(rn) FROM hit), 0) AS bigint)
    AS mrr_micro,
  cast((SELECT count(*) FROM hit) * 1000000
       // greatest((SELECT count(*) FROM rel), 1) AS bigint)
    AS recall_micro,
  cast((SELECT count(*) FROM rel) AS bigint) AS n_rel""",
        "terms_set": f"""
            SELECT doc_id,
                   cast(len(list_distinct(list_filter({_TOKS},
                        x -> x IN {str(TERMS_SET_TERMS)}))) AS bigint)
                     AS n_matched
            FROM documents
            WHERE len(list_distinct(list_filter({_TOKS},
                  x -> x IN {str(TERMS_SET_TERMS)})))
                  >= (n_chars % 3) + 1
            ORDER BY doc_id""",
        "distance_feature": f"""
            SELECT doc_id,
                   cast(1000000 * {DISTANCE_PIVOT}
                        // ({DISTANCE_PIVOT} + abs(n_chars - {DISTANCE_ORIGIN}))
                        AS bigint) AS score_micro
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            ORDER BY score_micro DESC, doc_id LIMIT 10""",
        "audio_features": f"""
            WITH s AS (
              SELECT doc_id,
                     1000 + (n_chars % 7) * 100 AS n
              FROM documents)
            SELECT doc_id,
                   cast(n AS bigint) AS n_samples,
                   cast(n * 1000000 // {WAV_RATE} AS bigint) AS duration_us,
                   cast(round(16383.0 / 32768.0 * 1000000) AS bigint)
                     AS rms_micro,
                   cast(((n - 1) // {WAV_HALF}) * 1000000 // (n - 1)
                        AS bigint) AS zcr_micro
            FROM s ORDER BY doc_id""",
        "jpeg_features": """
            SELECT doc_id,
                   cast(8 + (doc_id % 3) * 8 AS bigint) AS width,
                   cast(8 + ((doc_id // 3) % 2) * 8 AS bigint) AS height,
                   true AS decoded,
                   cast(40 + (doc_id % 13) * 16 AS bigint) AS gray,
                   cast((40 + (doc_id % 13) * 16) // 32 AS bigint)
                     AS lum_bin
            FROM documents ORDER BY doc_id""",
        "gif_features": """
            WITH s AS (
              SELECT doc_id,
                     8 + (doc_id % 3) * 4 AS w,
                     6 + (doc_id % 2) * 4 AS h,
                     40 + (doc_id % 13) * 16 AS a
              FROM documents),
            t AS (
              SELECT doc_id, w, h, a, 255 - a AS b,
                     1 + (7 * doc_id) % (w * h - 1) AS k,
                     w * h AS n
              FROM s)
            SELECT doc_id,
                   cast(w AS bigint) AS width,
                   cast(h AS bigint) AS height,
                   true AS decoded,
                   cast(least(a // 32, b // 32) AS bigint) AS bin_lo,
                   cast(CASE WHEN a // 32 < b // 32 THEN k ELSE n - k END
                        AS bigint) AS cnt_lo,
                   cast(greatest(a // 32, b // 32) AS bigint) AS bin_hi,
                   cast(CASE WHEN a // 32 < b // 32 THEN n - k ELSE k END
                        AS bigint) AS cnt_hi
            FROM t ORDER BY doc_id""",
        "video_features": """
            SELECT doc_id, f.frame,
                   true AS decoded,
                   cast(40 + ((doc_id + 3 * f.frame) % 13) * 16 AS bigint)
                     AS gray
            FROM documents, (VALUES (CAST(0 AS BIGINT)), (1), (3)) f(frame)
            ORDER BY doc_id, f.frame""",
        "index_stats": f"""
            SELECT
              cast((SELECT count(*) FROM documents) AS bigint) AS n_docs,
              cast((SELECT count(DISTINCT term) FROM
                     (SELECT unnest({_TOKS}) AS term FROM documents))
                   AS bigint) AS n_terms,
              cast((SELECT count(*) FROM
                     (SELECT DISTINCT doc_id, unnest({_TOKS}) AS term
                      FROM documents)) AS bigint) AS n_postings""",
        "percentile_ranks": f"""
            WITH m AS (
              SELECT n_chars AS v FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
            ),
            cnt AS (SELECT count(*) AS n FROM m),
            probes(val) AS (VALUES ({PCT_RANK_VALUES[0]}),
                                   ({PCT_RANK_VALUES[1]}),
                                   ({PCT_RANK_VALUES[2]}))
            SELECT cast(probes.val AS bigint) AS value,
                   cast((SELECT count(*) FROM m WHERE m.v <= probes.val)
                        * 100000000 // cnt.n AS bigint) AS pct_micro
            FROM probes CROSS JOIN cnt ORDER BY value""",
        "top_hits": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
),
j AS (
  SELECT d.lang, s.doc_id, s.score_micro,
         row_number() OVER (PARTITION BY d.lang
                            ORDER BY s.score_micro DESC, s.doc_id) AS rank
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT lang, cast(rank AS bigint) AS rank, doc_id, score_micro
FROM j WHERE rank <= 2 ORDER BY lang, rank
""",
        "collapse": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS score_micro
  FROM per GROUP BY doc_id
),
j AS (
  SELECT d.lang, s.doc_id, s.score_micro,
         row_number() OVER (PARTITION BY d.lang
                            ORDER BY s.score_micro DESC, s.doc_id) AS rn
  FROM scored s JOIN documents d USING (doc_id)
)
SELECT lang, doc_id, score_micro FROM j WHERE rn = 1
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "pii_scrub": f"""
WITH t AS (
  SELECT doc_id,
         text || ' mail u' || cast(doc_id AS varchar)
              || '@ex.com tel 555-123-4567' AS txt
  FROM documents
)
SELECT doc_id,
       regexp_replace(regexp_replace(txt, '{_PII_EMAIL}', '<EMAIL>', 'g'),
                      '{_PII_PHONE}', '<PHONE>', 'g') AS text_scrubbed,
       cast(len(regexp_extract_all(txt, '{_PII_EMAIL}'))
            + len(regexp_extract_all(txt, '{_PII_PHONE}')) AS bigint)
         AS n_redactions
FROM t""",
        "sig_terms": f"""
            WITH m AS (
              SELECT doc_id FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
            ),
            fcnt AS (SELECT count(*) AS f FROM m),
            ncnt AS (SELECT count(*) AS n FROM documents),
            dt AS (
              SELECT DISTINCT doc_id, unnest({_TOKS}) AS term
              FROM documents
            ),
            fg AS (
              SELECT term, count(*) AS fg FROM dt
              WHERE doc_id IN (SELECT doc_id FROM m)
              GROUP BY term HAVING count(*) >= 2
            ),
            df AS (
              SELECT term, count(*) AS df FROM dt
              WHERE term IN (SELECT term FROM fg) GROUP BY term
            )
            SELECT fg.term, cast(fg.fg AS bigint) AS fg,
                   cast(df.df AS bigint) AS df,
                   cast((1000000 * fg.fg * ncnt.n)
                        // (df.df * fcnt.f) AS bigint) AS lift_micro
            FROM fg JOIN df USING (term)
            CROSS JOIN ncnt CROSS JOIN fcnt
            ORDER BY lift_micro DESC, fg.term LIMIT 10""",
        "sort_by_field": f"""
            SELECT doc_id, n_chars FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            ORDER BY n_chars DESC, doc_id LIMIT {BM25_K}""",
        "multi_match_boost": f"""
WITH ttoks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
tdl AS (SELECT doc_id, count(*) AS dl FROM ttoks GROUP BY doc_id),
tstats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM ttoks)
           / (SELECT count(*) FROM documents) AS avgdl
),
ttf AS (
  SELECT doc_id, term, count(*) AS tf FROM ttoks
  WHERE term IN ('{MM_TERMS[0]}', '{MM_TERMS[1]}') GROUP BY doc_id, term
),
tdf AS (SELECT term, count(*) AS df FROM ttf GROUP BY term),
tper AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM ttf tf JOIN tdf df USING (term) JOIN tdl dl USING (doc_id)
  CROSS JOIN tstats stats
),
tscored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM tper GROUP BY doc_id
),
stoks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(source), '[a-z0-9]+'))
           AS term
  FROM documents
),
sdl AS (SELECT doc_id, count(*) AS dl FROM stoks GROUP BY doc_id),
sstats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM stoks)
           / (SELECT count(*) FROM documents) AS avgdl
),
stf AS (
  SELECT doc_id, term, count(*) AS tf FROM stoks
  WHERE term IN ('{MM_TERMS[0]}', '{MM_TERMS[1]}') GROUP BY doc_id, term
),
sdf AS (SELECT term, count(*) AS df FROM stf GROUP BY term),
sper AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM stf tf JOIN sdf df USING (term) JOIN sdl dl USING (doc_id)
  CROSS JOIN sstats stats
),
sscored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM sper GROUP BY doc_id
)
SELECT doc_id,
       coalesce(t.m, 0) * {MM_BOOSTS[0]}
         + coalesce(s.m, 0) * {MM_BOOSTS[1]} AS score_micro
FROM tscored t FULL JOIN sscored s USING (doc_id)
ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "termvectors": f"""
            WITH tv AS (
              SELECT unnest({_TOKS}) AS term FROM documents WHERE doc_id = 0
            ),
            tf AS (SELECT term, count(*) AS tf FROM tv GROUP BY term),
            df AS (
              SELECT term, count(DISTINCT doc_id) AS df
              FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
              WHERE term IN (SELECT term FROM tf) GROUP BY term
            )
            SELECT term, cast(tf.tf AS bigint) AS tf,
                   cast(df.df AS bigint) AS df
            FROM tf JOIN df USING (term) ORDER BY term""",
        "explain_top1": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, tf.term, cast(tf.tf AS bigint) AS tf,
         cast(df.df AS bigint) AS df, cast(dl.dl AS bigint) AS dl,
         {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
top1 AS (
  SELECT doc_id FROM per GROUP BY doc_id
  ORDER BY cast(sum(micro) AS bigint) DESC, doc_id LIMIT 1
)
SELECT term, tf, df, dl, cast(micro AS bigint) AS score_micro
FROM per JOIN top1 USING (doc_id) ORDER BY term
""",
        "agg_range": f"""
            WITH m AS (
              SELECT n_chars FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0
            ),
            b(lo, hi) AS (VALUES
              (NULL, {RANGE_EDGES[0]}),
              {", ".join(f"({RANGE_EDGES[i]}, {RANGE_EDGES[i + 1]})"
                         for i in range(len(RANGE_EDGES) - 1))},
              ({RANGE_EDGES[-1]}, NULL))
            SELECT cast(b.lo AS bigint) AS lo, cast(b.hi AS bigint) AS hi,
                   (SELECT count(*) FROM m
                    WHERE (b.lo IS NULL OR m.n_chars >= b.lo)
                      AND (b.hi IS NULL OR m.n_chars < b.hi)) AS n
            FROM b
            ORDER BY coalesce(b.lo, -9223372036854775808)""",
        "regexp": f"""
            SELECT term, cast(count(DISTINCT doc_id) AS bigint) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            WHERE regexp_full_match(term, '{REGEXP_PATTERN}')
            GROUP BY term ORDER BY df DESC, term LIMIT 10""",
        "ext_stats": f"""
            SELECT cast(count(*) AS bigint) AS n,
                   cast(min(n_chars) AS bigint) AS min,
                   cast(max(n_chars) AS bigint) AS max,
                   cast(sum(n_chars) AS bigint) AS sum,
                   cast(sum(n_chars * n_chars) AS bigint) AS sum_sq,
                   cast((sum(n_chars) * 1000000) // count(*) AS bigint)
                     AS avg_micro,
                   cast(((count(*) * sum(n_chars::HUGEINT * n_chars)
                          - sum(n_chars::HUGEINT) * sum(n_chars::HUGEINT))
                         * 1000000) // (count(*)::HUGEINT * count(*))
                        AS bigint) AS var_micro
            FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0""",
        "composite": f"""
            SELECT lang, source, count(*) AS n FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY lang, source
            HAVING lang > '{COMPOSITE_AFTER[0]}'
                OR (lang = '{COMPOSITE_AFTER[0]}'
                    AND source > '{COMPOSITE_AFTER[1]}')
            ORDER BY lang, source LIMIT {COMPOSITE_SIZE}""",
        "function_score": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM per GROUP BY doc_id
)
SELECT s.doc_id,
       cast((s.m * greatest(0, {FS_SCALE} - abs(d.n_chars - {FS_ORIGIN})))
            // {FS_SCALE} AS bigint) AS score_micro
FROM scored s JOIN documents d ON s.doc_id = d.doc_id
ORDER BY score_micro DESC, s.doc_id LIMIT {BM25_K}
""",
        "function_score_gauss": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {{bool_micro}} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, cast(sum(micro) AS bigint) AS m FROM per GROUP BY doc_id
)
SELECT s.doc_id,
       cast(floor(cast(s.m AS DOUBLE) * exp(
         -((cast(coalesce(d.n_chars,
                          {FS_ORIGIN + 4 * FS_SCALE}) AS DOUBLE)
            - {float(FS_ORIGIN)!r})
           * (cast(coalesce(d.n_chars,
                            {FS_ORIGIN + 4 * FS_SCALE}) AS DOUBLE)
              - {float(FS_ORIGIN)!r}))
         / (2.0 * (({float(FS_SCALE)!r} * {float(FS_SCALE)!r})
                   / (2.0 * ln(2.0)))))) AS BIGINT) AS score_micro
FROM scored s JOIN documents d ON s.doc_id = d.doc_id
ORDER BY score_micro DESC, s.doc_id LIMIT {BM25_K}
""".replace("{bool_micro}", bool_micro),
        "dis_max": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (
  SELECT doc_id, max(micro) AS mx, sum(micro) AS sm
  FROM per GROUP BY doc_id
)
SELECT doc_id,
       cast(mx + ({DIS_MAX_TB[0]} * (sm - mx)) // {DIS_MAX_TB[1]}
            AS bigint) AS score_micro
FROM scored ORDER BY score_micro DESC, doc_id LIMIT {BM25_K}
""",
        "boosting": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (SELECT doc_id, sum(micro) AS m FROM per GROUP BY doc_id),
neg AS (SELECT DISTINCT doc_id FROM toks WHERE term = '{BOOSTING_NEG}')
SELECT s.doc_id,
       cast(CASE WHEN n.doc_id IS NOT NULL
            THEN (s.m * {BOOSTING_NB[0]}) // {BOOSTING_NB[1]}
            ELSE s.m END AS bigint) AS score_micro
FROM scored s LEFT JOIN neg n USING (doc_id)
ORDER BY score_micro DESC, s.doc_id LIMIT {BM25_K}
""",
        "rank_feature": f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS}) AS term FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT cast(count(*) AS double) FROM toks)
           / (SELECT count(*) FROM documents) AS avgdl
),
tf AS (
  SELECT doc_id, term, count(*) AS tf FROM toks
  WHERE term IN ('{t1}', '{t2}') GROUP BY doc_id, term
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
per AS (
  SELECT tf.doc_id, {bool_micro} AS micro
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
),
scored AS (SELECT doc_id, sum(micro) AS m FROM per GROUP BY doc_id)
SELECT s.doc_id,
       cast(s.m + (1000000 * greatest(d.n_chars, 0))
              // (greatest(d.n_chars, 0) + {RANK_FEATURE_PIVOT})
            AS bigint) AS score_micro
FROM scored s JOIN documents d ON s.doc_id = d.doc_id
ORDER BY score_micro DESC, s.doc_id LIMIT {BM25_K}
""",
        "prefix_query": f"""
            SELECT doc_id, cast(count(DISTINCT term) AS bigint) AS n_terms
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            WHERE term LIKE '{PREFIX_QUERY}%'
            GROUP BY doc_id ORDER BY doc_id""",
        "span_first": f"""
            SELECT doc_id,
                   cast(list_position({_TOKS}, '{SPAN_FIRST_TERM}') - 1
                        AS bigint) AS first_pos
            FROM documents
            WHERE list_position({_TOKS}, '{SPAN_FIRST_TERM}')
                  BETWEEN 1 AND {SPAN_FIRST_BOUNDARY}
            ORDER BY doc_id""",
        "span_near": f"""
            WITH tok AS (
              SELECT doc_id, unnest({_TOKS}) AS term,
                     unnest(range(len({_TOKS}))) AS pos
              FROM documents),
            a AS (SELECT doc_id, pos FROM tok WHERE term = '{t1}'),
            b AS (SELECT doc_id, pos FROM tok WHERE term = '{t2}')
            SELECT DISTINCT a.doc_id FROM a JOIN b USING (doc_id)
            WHERE abs(a.pos - b.pos) - 1 <= {SPAN_NEAR_SLOP}
            ORDER BY a.doc_id""",
        "agg_filters": f"""
            WITH m AS (
              SELECT * FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0)
            SELECT 'short' AS bucket, cast(coalesce(sum(
                     CASE WHEN n_chars <= 249 THEN 1 END), 0) AS bigint) AS n
            FROM m
            UNION ALL
            SELECT 'de', cast(coalesce(sum(
                     CASE WHEN lang = 'de' THEN 1 END), 0) AS bigint) FROM m
            UNION ALL
            SELECT 'srcs', cast(coalesce(sum(
                     CASE WHEN source IN ('src3', 'src7') THEN 1 END), 0)
                   AS bigint) FROM m""",
        "adjacency": f"""
            WITH m AS (
              SELECT * FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            b AS (
              SELECT 'en' AS key, cast(coalesce(sum(
                       CASE WHEN lang = 'en' THEN 1 END), 0) AS bigint) AS n
              FROM m
              UNION ALL
              SELECT 'long', cast(coalesce(sum(
                       CASE WHEN n_chars >= 300 THEN 1 END), 0) AS bigint)
              FROM m
              UNION ALL
              SELECT 'en&long', cast(coalesce(sum(
                       CASE WHEN lang = 'en' AND n_chars >= 300 THEN 1 END),
                     0) AS bigint) FROM m)
            SELECT * FROM b WHERE n > 0""",
        "cum_hist": f"""
            WITH m AS (
              SELECT n_chars FROM documents
              WHERE len(list_filter({_TOKS},
                    x -> x IN ('{t1}', '{t2}'))) > 0),
            h AS (
              SELECT (n_chars // {CUMHIST_INTERVAL}) * {CUMHIST_INTERVAL}
                       AS bucket,
                     count(*) AS n
              FROM m GROUP BY 1)
            SELECT bucket, cast(n AS bigint) AS n,
                   cast(sum(n) OVER (ORDER BY bucket) AS bigint) AS cum_n,
                   cast(n - lag(n) OVER (ORDER BY bucket) AS bigint) AS d_n
            FROM h ORDER BY bucket""",
        "rare_terms": f"""
            SELECT term, cast(count(DISTINCT doc_id) AS bigint) AS df
            FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
            GROUP BY term HAVING count(DISTINCT doc_id) <= {RARE_MAX_DF}
            ORDER BY df ASC, term LIMIT 10""",
        "multi_terms": f"""
            SELECT lang, source, count(*) AS n FROM documents
            WHERE len(list_filter({_TOKS},
                  x -> x IN ('{t1}', '{t2}'))) > 0
            GROUP BY lang, source
            ORDER BY n DESC, lang, source LIMIT 10""",
        "repetition": f"""
            WITH tok AS (
              SELECT doc_id, unnest({_TOKS}) AS term,
                     unnest(range(len({_TOKS}))) AS pos
              FROM documents),
            bg AS (
              SELECT doc_id,
                     term || ' ' || lead(term) OVER (PARTITION BY doc_id
                                                     ORDER BY pos) AS b
              FROM tok QUALIFY b IS NOT NULL),
            cnt AS (SELECT doc_id, b, count(*) AS c FROM bg
                    GROUP BY doc_id, b),
            top AS (SELECT doc_id, max(c) AS mc FROM cnt GROUP BY doc_id)
            SELECT d.doc_id,
                   cast(greatest(len({_TOKS}) - 1, 0) AS bigint)
                     AS n_bigrams,
                   cast(coalesce((t.mc * 1000000)
                          // greatest(len({_TOKS}) - 1, 1), 0) AS bigint)
                     AS top_bigram_micro
            FROM documents d LEFT JOIN top t USING (doc_id)
            ORDER BY d.doc_id""",
        "weighted_avg": f"""
            SELECT lang,
                   cast(sum(n_chars::BIGINT * len({_TOKS})) * 1000000
                        // greatest(sum(len({_TOKS})), 1) AS bigint)
                     AS wavg_micro
            FROM documents GROUP BY lang ORDER BY lang""",
        "ids": f"""
            SELECT doc_id, lang, source FROM documents
            WHERE doc_id IN ({', '.join(str(i) for i in IDS_PROBE)})
            ORDER BY doc_id""",
        "decontaminate": f"""
WITH {_sh_cte(3)},
bench AS (SELECT DISTINCT hv FROM sh WHERE doc_id % {DECONTAM_MOD} = 0)
SELECT s.doc_id,
       cast(count(*) AS bigint) AS n_ngrams,
       cast(count(b.hv) AS bigint) AS n_shared,
       cast(CASE WHEN count(b.hv) > 0 THEN 1 ELSE 0 END AS bigint)
         AS contaminated
FROM sh s LEFT JOIN bench b ON s.hv = b.hv
WHERE s.doc_id % {DECONTAM_MOD} <> 0
GROUP BY s.doc_id ORDER BY s.doc_id""",
        "corpus_filter": f"""
WITH {_sh_cte(3, p='d3', out='sh3')},
{_sh_cte(5, p='d5', out='sh5')},
q AS (
  SELECT doc_id, len(toks) AS n_tokens,
         cast(floor(len(list_filter(toks, x -> x IN {STOP_SQL}))::double
              / greatest(len(toks), 1) * 1e6) AS bigint) AS stop_micro
  FROM (SELECT doc_id, {_TOKS} AS toks FROM documents)),
tokp AS (SELECT doc_id, unnest({_TOKS}) AS term,
                unnest(range(len({_TOKS}))) AS pos FROM documents),
bg AS (SELECT doc_id, term || ' ' || lead(term)
                OVER (PARTITION BY doc_id ORDER BY pos) AS b
       FROM tokp QUALIFY b IS NOT NULL),
bgc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
rep AS (SELECT d.doc_id,
               cast(coalesce((t.mc * 1000000)
                      // greatest(len({_TOKS}) - 1, 1), 0) AS bigint)
                 AS rep_micro
        FROM documents d
        LEFT JOIN (SELECT doc_id, max(c) AS mc FROM bgc GROUP BY doc_id) t
          USING (doc_id)),
dt AS (SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents),
prof(lang, w) AS (VALUES {prof_vals}),
sc AS (SELECT dt.doc_id, p.lang, count(*) AS s
       FROM dt JOIN prof p ON dt.term = p.w GROUP BY dt.doc_id, p.lang),
best AS (SELECT doc_id, lang AS lang_pred,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY s DESC, lang) AS rn
         FROM sc WHERE s >= 1),
lid AS (SELECT d.doc_id, coalesce(b.lang_pred, 'und') AS lang_pred
        FROM documents d
        LEFT JOIN best b ON d.doc_id = b.doc_id AND b.rn = 1),
bench AS (SELECT DISTINCT hv FROM sh3 WHERE doc_id % {DECONTAM_MOD} = 0),
dec AS (SELECT s.doc_id,
               max(CASE WHEN b.hv IS NOT NULL THEN 1 ELSE 0 END) AS cont
        FROM sh3 s LEFT JOIN bench b ON s.hv = b.hv
        WHERE s.doc_id % {DECONTAM_MOD} <> 0 GROUP BY s.doc_id),
runs5 AS (SELECT hv, count(*) AS c FROM sh5 GROUP BY hv),
dup AS (SELECT s.doc_id,
               sum(CASE WHEN r.c >= 2 THEN 1 ELSE 0 END) * 1000000
                 // count(*) AS dup_micro
        FROM sh5 s JOIN runs5 r ON s.hv = r.hv GROUP BY s.doc_id),
ded AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text)
SELECT d.doc_id
FROM documents d
JOIN q USING (doc_id) JOIN rep USING (doc_id) JOIN lid USING (doc_id)
JOIN dec USING (doc_id) JOIN dup USING (doc_id)
JOIN ded ON ded.doc_id = d.doc_id
WHERE q.n_tokens >= {FILTER_MIN_TOKENS}
  AND q.stop_micro >= {FILTER_MIN_STOP_MICRO}
  AND rep.rep_micro <= {FILTER_MAX_REP_MICRO}
  AND lid.lang_pred = '{FILTER_LANG}'
  AND dec.cont = 0
  AND dup.dup_micro <= {FILTER_MAX_DUP_MICRO}
ORDER BY d.doc_id""",
        "dup_ngrams": f"""
WITH {_sh_cte(5)},
runs AS (SELECT hv, count(*) AS c FROM sh GROUP BY hv)
SELECT s.doc_id,
       cast(count(*) AS bigint) AS n_distinct,
       cast(sum(CASE WHEN r.c >= 2 THEN 1 ELSE 0 END) AS bigint) AS n_dup,
       cast(sum(CASE WHEN r.c >= 2 THEN 1 ELSE 0 END) * 1000000
            // count(*) AS bigint) AS dup_micro
FROM sh s JOIN runs r ON s.hv = r.hv
GROUP BY s.doc_id ORDER BY s.doc_id""",
        "phrase_prefix": f"""
            SELECT doc_id FROM documents
            WHERE ' ' || lower(text) || ' '
                  LIKE '% {PHRASE_PREFIX_FIRST} {PHRASE_PREFIX}%'
            ORDER BY doc_id""",
        "dedup_exact": """
            SELECT cast(min(doc_id) AS bigint) AS doc_id
            FROM documents GROUP BY text""",
        "percolate": f"""
            WITH dt AS (
              SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest({_TOKS}) AS w FROM documents)),
            q(query_id, w) AS (VALUES
              (1, 'merge'), (1, 'scan'), (1, 'sort'),
              (2, 'window'),
              (3, 'spark'), (3, 'slow'), (3, 'batch'), (3, 'join'),
              (4, 'customer'), (4, 'data')),
            qn(query_id, mm) AS (VALUES (1, 2), (2, 1), (3, 3), (4, 2)),
            hits AS (
              SELECT d.doc_id, q.query_id, count(*) AS n_matched
              FROM dt d JOIN q ON d.w = q.w GROUP BY 1, 2)
            SELECT h.doc_id, CAST(h.query_id AS BIGINT) AS query_id,
                   CAST(h.n_matched AS BIGINT) AS n_matched
            FROM hits h JOIN qn USING (query_id)
            WHERE h.n_matched >= qn.mm""",
        "weighted_sample": """
            SELECT doc_id FROM documents WHERE n_chars > 0
            ORDER BY md5_number_lower('w4' || CAST(doc_id AS VARCHAR))
                     % 9223372036854775808 // n_chars, doc_id
            LIMIT 40""",
        "group_topk": """
            SELECT doc_id, lang, n_chars FROM documents
            QUALIFY row_number() OVER (PARTITION BY lang
                ORDER BY n_chars DESC, doc_id) <= 5""",
        "hll_card": """
            WITH h AS (
              SELECT DISTINCT
                     md5_number_lower('hll' || CAST(doc_id AS VARCHAR))
                       % 9223372036854775808 AS h
              FROM documents),
            r AS (
              SELECT h % 256 AS bucket,
                     CASE WHEN h // 256 = 0 THEN 56
                          ELSE 56 - length(printf('%b',
                                   CAST(h // 256 AS BIGINT)))
                     END AS rho
              FROM h),
            regs AS (SELECT bucket, max(rho) AS mr FROM r GROUP BY bucket),
            allb AS (SELECT gs.range AS bucket FROM range(256) gs),
            mm AS (SELECT coalesce(mr, 0) AS mr
                   FROM allb LEFT JOIN regs USING (bucket)),
            s AS (SELECT sum((CAST(1 AS HUGEINT) << (56 - mr))) AS S,
                         sum(CASE WHEN mr = 0 THEN 1 ELSE 0 END) AS nz
                  FROM mm)
            SELECT CAST((CAST(718273 AS HUGEINT) * 65536
                         * (CAST(1 AS HUGEINT) << 56))
                        // S // 1000000 AS BIGINT) AS est,
                   CAST(nz AS BIGINT) AS n_zero,
                   CAST(256 AS BIGINT) AS m
            FROM s""",
        "shard_plan": """
            WITH h AS (
              SELECT doc_id,
                     md5_number_lower('s4' || CAST(doc_id AS VARCHAR))
                       % 9223372036854775808 AS h
              FROM documents)
            SELECT doc_id, CAST(h % 8 AS BIGINT) AS shard,
                   CAST(row_number() OVER (PARTITION BY h % 8
                        ORDER BY h, doc_id) - 1 AS BIGINT) AS pos
            FROM h""",
        "oov_rate": f"""
            WITH toks AS (
              SELECT doc_id, unnest({_TOKS}) AS w FROM documents),
            top AS (
              SELECT w FROM (SELECT w, count(*) AS cf FROM toks GROUP BY w
                             ORDER BY cf DESC, w LIMIT 20)),
            agg AS (
              SELECT doc_id, count(*) AS n_tokens,
                     sum(CASE WHEN w NOT IN (SELECT w FROM top)
                         THEN 1 ELSE 0 END) AS n_oov
              FROM toks GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(a.n_oov, 0) AS BIGINT) AS n_oov,
                   CAST(CASE WHEN coalesce(a.n_tokens, 0) > 0
                        THEN a.n_oov * 1000000 // a.n_tokens
                        ELSE 0 END AS BIGINT) AS oov_ppm
            FROM documents d LEFT JOIN agg a USING (doc_id)""",
        "unigram_ppl": f"""
            WITH toks AS (
              SELECT doc_id, unnest({_TOKS}) AS w FROM documents),
            vocab AS (
              SELECT w, cf FROM (SELECT w, count(*) AS cf FROM toks GROUP BY w
                                 ORDER BY cf DESC, w LIMIT 20)),
            tot AS (
              SELECT sum(cf)::BIGINT AS total, count(*)::BIGINT AS v
              FROM vocab),
            surp AS (
              SELECT t.doc_id,
                     CAST(floor((ln((tot.total + tot.v + 1)::DOUBLE)
                                 - ln((coalesce(vb.cf, 0) + 1)::DOUBLE))
                                * 1e6) AS BIGINT) AS s
              FROM toks t LEFT JOIN vocab vb USING (w) CROSS JOIN tot),
            agg AS (
              SELECT doc_id, count(*) AS n_tokens, sum(s)::BIGINT AS ssum
              FROM surp GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(CASE WHEN coalesce(a.n_tokens, 0) > 0
                        THEN a.ssum // a.n_tokens ELSE 0 END AS BIGINT)
                     AS ce_micro
            FROM documents d LEFT JOIN agg a USING (doc_id)""",
        "quality_classifier": f"""
            WITH toks AS (
              SELECT doc_id, unnest({_TOKS}) AS w FROM documents),
            scored AS (
              SELECT doc_id,
                     ((md5_number_lower(w)::HUGEINT % 4096) * 2654435761)
                       % 2001 - 1000 AS wt
              FROM toks),
            agg AS (
              SELECT doc_id, count(*) AS n_tokens,
                     CAST(sum(wt) AS BIGINT) AS score_milli
              FROM scored GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(a.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(a.score_milli, 0) AS BIGINT) AS score_milli,
                   coalesce(a.score_milli, 0) > 0 AS keep
            FROM documents d LEFT JOIN agg a USING (doc_id)""",
        "bpe_pairs": f"""
            WITH wc AS (
              SELECT w, count(*) AS c
              FROM (SELECT unnest({_TOKS}) AS w FROM documents)
              GROUP BY w),
            px AS (
              SELECT w, c, unnest(range(length(w) - 1)) AS i
              FROM wc WHERE length(w) >= 2)
            SELECT substr(w, CAST(i + 1 AS INT), 1) AS "left",
                   substr(w, CAST(i + 2 AS INT), 1) AS "right",
                   CAST(sum(c) AS BIGINT) AS n
            FROM px GROUP BY 1, 2
            ORDER BY n DESC, "left", "right" LIMIT 20""",
        "sample_docs": """
            SELECT doc_id, lang FROM documents
            WHERE md5_number_lower('s4' || CAST(doc_id AS VARCHAR))
                  % 1000000 < 250000""",
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE lang IN ('en', 'de', 'zh')
            QUALIFY row_number() OVER (PARTITION BY lang ORDER BY
                md5_number_lower('q4' || CAST(doc_id AS VARCHAR)) % 1000000,
                doc_id)
              <= CASE lang WHEN 'en' THEN 60 WHEN 'de' THEN 25
                           ELSE 100000 END""",
        "mixture_mix": """
            WITH r AS (
              SELECT doc_id,
                     CASE lang WHEN 'en' THEN 1700000
                               WHEN 'de' THEN 2000000
                               WHEN 'fr' THEN 400000 ELSE 0 END AS w,
                     md5_number_lower('m4' || CAST(doc_id AS VARCHAR))
                       % 1000000 AS gate
              FROM documents)
            SELECT doc_id,
                   unnest(range(w // 1000000
                                + CAST(gate < w % 1000000 AS BIGINT)))
              AS copy
            FROM r""",
        "events_fold": """
            SELECT user_id, event_type AS last_type, value AS last_value
            FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                    ORDER BY ts DESC, event_id DESC) AS rn FROM events)
            WHERE rn = 1""",
        "events_fold_tombstone": """
            SELECT user_id, event_type AS last_type
            FROM (SELECT *, row_number() OVER (PARTITION BY user_id
                    ORDER BY ts DESC, event_id DESC) AS rn FROM events)
            WHERE rn = 1 AND event_type != 'error'""",
        "events_fold_partial": """
            WITH delta AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN event_id % 3 != 0 THEN event_type END
                       AS event_type,
                     CASE WHEN event_id % 2 = 0 THEN value END AS value
              FROM events)
            SELECT user_id,
                   (array_agg(event_type ORDER BY ts DESC, event_id DESC)
                      FILTER (WHERE event_type IS NOT NULL))[1] AS last_type,
                   (array_agg(value ORDER BY ts DESC, event_id DESC)
                      FILTER (WHERE value IS NOT NULL))[1] AS last_value
            FROM delta GROUP BY user_id""",
        "asof_orders": """
            WITH m AS (
              SELECT e.event_id, o.o_orderkey, o.o_totalprice,
                     row_number() OVER (PARTITION BY e.event_id
                       ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
              FROM events e JOIN orders o
                ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts)
            SELECT event_id, o_orderkey, o_totalprice FROM m WHERE rn = 1""",
        "range_price": """
            WITH bands(band_id, lo, hi) AS (VALUES
              (0, 0.0, 925.0), (1, 925.0, 950.0), (2, 950.0, 975.0),
              (3, 975.0, 1000.0), (4, 1000.0, 1000000000.0))
            SELECT p.p_partkey, cast(b.band_id AS bigint) AS band_id
            FROM part p JOIN bands b
              ON p.p_retailprice >= b.lo AND p.p_retailprice < b.hi""",
        "interval_orders": """
            WITH iv AS (
              SELECT p_partkey AS iid,
                     CAST((p_partkey * 7919) % 490000 AS DOUBLE) AS lo,
                     CAST((p_partkey * 7919) % 490000
                          + 100 + (p_partkey * 131) % 2000 AS DOUBLE) AS hi
              FROM part WHERE p_partkey % 50 = 0)
            SELECT o.o_orderkey, iv.iid
            FROM orders o JOIN iv
              ON o.o_totalprice >= iv.lo AND o.o_totalprice < iv.hi""",
        "window_events": """
            SELECT (epoch_us(ts) // 86400000000) * 86400000000 AS window_us,
                   event_type,
                   count(*) AS n_events,
                   cast(sum(cast(floor(value * 1e6) AS bigint)) AS bigint)
                     AS sum_value_micro
            FROM events GROUP BY 1, 2""",
        "window_sliding": f"""
            WITH ev AS (
              SELECT epoch_us(ts) AS t, event_type FROM events
            ),
            win AS (
              SELECT unnest(range(
                       (t - {SLIDE_SIZE_US}) // {SLIDE_HOP_US}
                         * {SLIDE_HOP_US} + {SLIDE_HOP_US},
                       t // {SLIDE_HOP_US} * {SLIDE_HOP_US}
                         + {SLIDE_HOP_US},
                       {SLIDE_HOP_US})) AS window_us,
                     event_type
              FROM ev)
            SELECT window_us, event_type, count(*) AS n_events
            FROM win GROUP BY window_us, event_type""",
        "sessions": """
            WITH d AS (
              SELECT user_id, epoch_us(ts) AS tus,
                     lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                             ORDER BY ts) AS prev
              FROM events),
            g AS (
              SELECT user_id, tus,
                     sum(CASE WHEN prev IS NULL OR tus - prev > 1800000000
                         THEN 1 ELSE 0 END)
                       OVER (PARTITION BY user_id ORDER BY tus
                             ROWS UNBOUNDED PRECEDING) AS sid
              FROM d)
            SELECT user_id, min(tus) AS session_start_us,
                   max(tus) AS session_end_us, count(*) AS n_events
            FROM g GROUP BY user_id, sid""",
        "replicate_orders": """
            SELECT o_orderkey, o_custkey,
                   'orders' AS target_index,
                   cast(o_orderkey AS varchar) AS route,
                   'Order' AS doc_type,
                   cast(NULL AS varchar) AS join_name,
                   cast(NULL AS varchar) AS join_parent
            FROM orders
            UNION ALL
            SELECT o_orderkey, o_custkey,
                   'customer', cast(o_custkey AS varchar), 'Order',
                   'Order', cast(o_custkey AS varchar)
            FROM orders""",
        "has_child_orders": """
            SELECT DISTINCT o_custkey FROM orders
            WHERE o_totalprice > 450000""",
        "has_parent_orders": """
            SELECT o.o_orderkey, o.o_custkey
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            WHERE c.c_mktsegment = 'BUILDING'""",
        "knn_filtered": f"""
            WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings
                       WHERE vec_id = 0)
            SELECT e.vec_id,
                   cast(round(list_cosine_similarity(e.embedding::DOUBLE[],
                        q.qe) * 1e4) AS bigint) AS cos_micro
            FROM embeddings e CROSS JOIN q
            WHERE e.label = {KNN_FILTER_LABEL}
            ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.qe) DESC,
                     e.vec_id
            LIMIT 10""",
        "ann_cosine": """
            WITH q AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings
                       WHERE vec_id = 0)
            SELECT e.vec_id,
                   cast(round(list_cosine_similarity(e.embedding::DOUBLE[],
                        q.qe) * 1e4) AS bigint) AS cos_micro
            FROM embeddings e CROSS JOIN q
            ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.qe) DESC,
                     e.vec_id
            LIMIT 10""",
        "rrf_hybrid": f"""
WITH {bm25_ctes},
lex AS (
  SELECT doc_id AS id,
         row_number() OVER (ORDER BY s DESC, doc_id) AS r
  FROM scored QUALIFY r <= {RRF_DEPTH}
),
qv AS (SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0),
vecr AS (
  SELECT vec_id AS id,
         row_number() OVER (
           ORDER BY list_cosine_similarity(embedding::DOUBLE[], qv.qe) DESC,
                    vec_id) AS r
  FROM embeddings CROSS JOIN qv QUALIFY r <= {RRF_DEPTH}
),
fused AS (
  SELECT coalesce(l.id, v.id) AS doc_id,
         cast(coalesce(1000000 // (60 + l.r), 0)
            + coalesce(1000000 // (60 + v.r), 0) AS bigint) AS rrf_micro
  FROM lex l FULL OUTER JOIN vecr v ON l.id = v.id)
SELECT doc_id, rrf_micro FROM fused
ORDER BY rrf_micro DESC, doc_id LIMIT {BM25_K}""",
        "phrase_match": f"""
            SELECT doc_id FROM documents
            WHERE ' ' || lower(text) || ' ' LIKE '% {' '.join(PHRASE_TERMS)} %'""",
        "phrase_common": f"""
            SELECT doc_id FROM documents
            WHERE ' ' || lower(text) || ' ' LIKE '% {' '.join(PHRASE_COMMON)} %'""",
        "phrase_slop": f"""
            SELECT doc_id FROM documents
            WHERE regexp_matches(' ' || lower(text) || ' ',
                ' {PHRASE_TERMS[0]}( [a-z0-9]+){{0,{PHRASE_SLOP}}} {PHRASE_TERMS[1]} ')""",
        "intervals": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            tok AS (SELECT doc_id, unnest(toks) AS term,
                           unnest(range(len(toks))) AS pos FROM base),
            p1 AS (SELECT doc_id, pos FROM tok WHERE term = '{t1}'),
            p2 AS (SELECT doc_id, pos FROM tok WHERE term = '{t2}')
            SELECT DISTINCT p1.doc_id FROM p1 JOIN p2 USING (doc_id)
            WHERE abs(p1.pos - p2.pos) - 1 <= {INTERVALS_GAPS}
            ORDER BY doc_id""",
        "span_not": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            tok AS (SELECT doc_id, unnest(toks) AS term,
                           unnest(range(len(toks))) AS pos FROM base),
            p1 AS (SELECT doc_id, pos FROM tok WHERE term = '{t1}'),
            p2 AS (SELECT doc_id, pos FROM tok WHERE term = '{t2}')
            SELECT DISTINCT p1.doc_id FROM p1
            WHERE NOT EXISTS (
              SELECT 1 FROM p2 WHERE p2.doc_id = p1.doc_id
                AND p2.pos >= p1.pos - {SPAN_NOT_PRE}
                AND p2.pos <= p1.pos + {SPAN_NOT_POST})
            ORDER BY doc_id""",
        "span_within": f"""
            WITH base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
            tok AS (SELECT doc_id, unnest(toks) AS term,
                           unnest(range(len(toks))) AS pos FROM base),
            pc AS (SELECT doc_id, pos FROM tok
                   WHERE term = '{SPAN_WITHIN_LITTLE}'),
            p1 AS (SELECT doc_id, pos FROM tok WHERE term = '{t1}'),
            p2 AS (SELECT doc_id, pos FROM tok WHERE term = '{t2}')
            SELECT DISTINCT pc.doc_id FROM pc
            WHERE EXISTS (
              SELECT 1 FROM p1, p2
              WHERE p1.doc_id = pc.doc_id AND p2.doc_id = pc.doc_id
                AND p1.pos <= pc.pos AND p2.pos >= pc.pos
                AND p2.pos - p1.pos - 1 <= {SPAN_WITHIN_SLOP})
            ORDER BY doc_id""",
        "token_jaccard": f"""
            WITH dt AS (
              SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
            ),
            t0 AS (SELECT term FROM dt WHERE doc_id = 0),
            st AS (
              SELECT d.doc_id,
                     count(*) FILTER (WHERE d.term IN (SELECT term FROM t0))
                       AS inter,
                     count(*) AS sz
              FROM dt d GROUP BY d.doc_id
            )
            -- LEFT JOIN from documents so token-less docs (no dt rows) still
            -- emit a jac_micro=0 row, matching the engine's per-doc output
            SELECT d.doc_id,
                   cast(floor(coalesce(st.inter, 0)::double
                        / greatest((SELECT count(*) FROM t0)
                                   + coalesce(st.sz, 0)
                                   - coalesce(st.inter, 0), 1) * 1e6)
                     AS bigint) AS jac_micro
            FROM documents d LEFT JOIN st ON d.doc_id = st.doc_id""",
        "quality": f"""
            SELECT doc_id,
                   cast(length(text) AS bigint) AS text_len,
                   len(toks) AS n_tokens,
                   cast(floor(len(list_filter(toks, x -> x IN {STOP_SQL}))::double
                        / greatest(len(toks), 1) * 1e6) AS bigint)
                     AS stopword_ratio_micro,
                   cast(floor(coalesce(list_sum(list_transform(toks,
                        x -> length(x))), 0)::double
                        / greatest(len(toks), 1) * 1e6) AS bigint)
                     AS mean_token_len_micro
            FROM (SELECT doc_id, text, {_TOKS} AS toks FROM documents)""",
        "gopher_rules": f"""
            WITH base AS (
              SELECT doc_id, text, {_TOKS} AS toks,
                     string_split(text, chr(10)) AS lines
              FROM documents),
            sig AS (
              SELECT doc_id,
                len(toks) AS n_words,
                cast(floor(coalesce(list_sum(list_transform(toks,
                     x -> length(x))), 0)::double
                     / greatest(len(toks), 1) * 1e6) AS bigint)
                  AS mean_word_len_micro,
                cast(floor(len(list_filter(toks,
                     x -> regexp_matches(x, '[a-z]')))::double
                     / greatest(len(toks), 1) * 1e6) AS bigint)
                  AS alpha_word_micro,
                cast(len(list_filter(['the','be','to','of','and','that',
                                      'have','with'],
                     w -> list_contains(toks, w))) AS bigint)
                  AS n_required_hits,
                cast(floor(((length(text) - length(replace(text, '#', '')))
                     + (length(text) - length(replace(text, '...', ''))) / 3
                     + (length(text) - length(replace(text, '…', ''))))::double
                     / greatest(len(toks), 1) * 1e6) AS bigint)
                  AS symbol_word_micro,
                cast(floor(len(list_filter(lines,
                     l -> l LIKE '-%' OR l LIKE '*%' OR l LIKE '•%'))::double
                     / greatest(len(lines), 1) * 1e6) AS bigint)
                  AS bullet_line_micro,
                cast(floor(len(list_filter(lines,
                     l -> l LIKE '%...' OR l LIKE '%…'))::double
                     / greatest(len(lines), 1) * 1e6) AS bigint)
                  AS ellipsis_line_micro
              FROM base)
            SELECT *,
              cast((n_words BETWEEN {GOPHER_MIN_WORDS} AND 100000)
                AND (mean_word_len_micro BETWEEN 3000000 AND 10000000)
                AND symbol_word_micro < 100000
                AND bullet_line_micro < 900000
                AND ellipsis_line_micro < 300000
                AND alpha_word_micro >= 800000
                AND n_required_hits >= {GOPHER_MIN_REQUIRED} AS bigint)
                AS pass_gopher
            FROM sig""",
        "span_dedup": f"""
            WITH toks AS (
              SELECT doc_id, {_TOKS} AS tk FROM documents),
            spans AS (
              SELECT doc_id, i AS span_no,
                     array_to_string(
                       tk[i*{SPAN_TOKENS}+1 : i*{SPAN_TOKENS}+{SPAN_TOKENS}],
                       ' ') AS span
              FROM toks,
                   UNNEST(range(CAST(ceil(len(tk)/{SPAN_TOKENS}.0) AS BIGINT)))
                     AS t(i)),
            marked AS (
              SELECT doc_id, span_no, span,
                     (row_number() OVER (PARTITION BY span
                        ORDER BY doc_id, span_no) = 1) AS keep
              FROM spans)
            SELECT d.doc_id, coalesce(s.n_spans, 0) AS n_spans,
                   coalesce(s.n_kept, 0) AS n_kept,
                   coalesce(s.text_clean, '') AS text_clean
            FROM documents d LEFT JOIN (
              SELECT doc_id, count(*) AS n_spans,
                     count(*) FILTER (WHERE keep) AS n_kept,
                     coalesce(string_agg(span, ' ' ORDER BY span_no)
                              FILTER (WHERE keep), '') AS text_clean
              FROM marked GROUP BY doc_id) s USING (doc_id)""",
        "line_dedup": f"""
            WITH toks AS (
              SELECT doc_id, {_TOKS} AS tk FROM documents),
            spans AS (
              SELECT doc_id, i AS span_no,
                     array_to_string(
                       tk[i*{SPAN_TOKENS}+1 : i*{SPAN_TOKENS}+{SPAN_TOKENS}],
                       ' ') AS span
              FROM toks,
                   UNNEST(range(CAST(ceil(len(tk)/{SPAN_TOKENS}.0) AS BIGINT)))
                     AS t(i)),
            freq AS (
              SELECT span, count(DISTINCT doc_id) AS df
              FROM spans GROUP BY span),
            marked AS (
              SELECT s.doc_id, s.span_no, s.span,
                     (f.df < {LINE_MIN_DOCS}) AS keep
              FROM spans s JOIN freq f USING (span))
            SELECT d.doc_id, coalesce(s.n_spans, 0) AS n_spans,
                   coalesce(s.n_kept, 0) AS n_kept,
                   coalesce(s.text_clean, '') AS text_clean
            FROM documents d LEFT JOIN (
              SELECT doc_id, count(*) AS n_spans,
                     count(*) FILTER (WHERE keep) AS n_kept,
                     coalesce(string_agg(span, ' ' ORDER BY span_no)
                              FILTER (WHERE keep), '') AS text_clean
              FROM marked GROUP BY doc_id) s USING (doc_id)""",
        "langid": f"""
            WITH dt AS (
              SELECT DISTINCT doc_id, unnest({_TOKS}) AS term FROM documents
            ),
            prof(lang, w) AS (VALUES {prof_vals}),
            sc AS (
              SELECT dt.doc_id, p.lang, count(*) AS s
              FROM dt JOIN prof p ON dt.term = p.w
              GROUP BY dt.doc_id, p.lang
            ),
            best AS (
              SELECT doc_id, lang AS lang_pred,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY s DESC, lang) AS rn
              FROM sc WHERE s >= 1
            )
            SELECT d.doc_id, d.lang,
                   coalesce(b.lang_pred, 'und') AS lang_pred
            FROM documents d LEFT JOIN best b
              ON d.doc_id = b.doc_id AND b.rn = 1""",
        # fingerprint/simhash/minhash oracles reproduce the engine's numpy
        # uint64 arithmetic exactly: md5-low64 token hashes
        # (util.tok_hash_sql == md5_number_lower), recursive-CTE power
        # table, and 32-bit-split modular multiplication (_mulmod64) for
        # every 64x64-bit product (numpy wrap-around semantics)
        "wet_ingest": """
SELECT doc_id,
       (md5_number_lower(text)::HUGEINT
        % 9223372036854775808::HUGEINT)::BIGINT AS text_hash,
       length(text)::BIGINT AS n_chars
FROM documents
""",
        "url_canon": f"""
WITH messy AS (SELECT doc_id, {_MESSY_URL_SQL} AS url FROM documents),
{_CANON_SQL_CTE}
SELECT doc_id, canon_url, host,
       regexp_extract(host, '([^.]+\\.[^.]+)$', 1) AS domain
FROM curl
""",
        "url_dedup": f"""
WITH messy AS (SELECT doc_id, {_CRAWL_URL_SQL} AS url FROM documents),
{_CANON_SQL_CTE}
SELECT canon_url, max(doc_id) AS doc_id,
       max(doc_id) + 1577836800 AS crawl_ts
FROM curl GROUP BY canon_url
""",
        "host_stats": f"""
WITH messy AS (SELECT doc_id, {_MESSY_URL_SQL} AS url FROM documents),
{_CANON_SQL_CTE}
SELECT host, count(*) AS n_pages,
       cast(sum(d.n_chars) AS bigint) AS total_chars
FROM curl JOIN documents d USING (doc_id) GROUP BY host
""",
        "url_blocklist": f"""
WITH messy AS (SELECT doc_id, {_MESSY_URL_SQL} AS url FROM documents),
{_CANON_SQL_CTE}
SELECT doc_id, host FROM curl
WHERE host NOT IN ({", ".join(f"'{h}'" for h in BLOCKED_HOSTS)})
ORDER BY doc_id
""",
        "incremental_dedup": """
            WITH h AS (
              SELECT doc_id,
                     (md5_number_lower(coalesce(text, ''))
                      % 9223372036854775808)::BIGINT AS ch
              FROM documents),
            seen AS (SELECT DISTINCT ch FROM h WHERE doc_id % 3 = 0)
            SELECT doc_id, ch AS content_hash FROM h
            WHERE ch NOT IN (SELECT ch FROM seen)
            ORDER BY doc_id""",
        "doc_keywords": f"""
            WITH toks AS (
              SELECT doc_id, unnest({_TOKS}) AS term FROM documents),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
                   GROUP BY doc_id, term),
            df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
                   GROUP BY term),
            nn AS (SELECT count(*) AS n FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.term,
                     cast(floor(tf * ln(1 + (cast(nn.n AS DOUBLE) - df.df
                                             + 0.5) / (df.df + 0.5))
                                * 1000000.0) AS BIGINT) AS score_micro
              FROM tf JOIN df USING (term) CROSS JOIN nn),
            r AS (
              SELECT doc_id, term, score_micro,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY score_micro DESC, term)
                       AS rank
              FROM scored)
            SELECT doc_id, cast(rank AS BIGINT) AS rank, term, score_micro
            FROM r WHERE rank <= {KEYWORDS_TOP} ORDER BY doc_id, rank""",
        "chunk_plan": f"""
            WITH t AS (
              SELECT doc_id, len({_TOKS}) AS n FROM documents),
            c AS (
              SELECT doc_id, n,
                     unnest(range(0, cast(n AS BIGINT), {CHUNK_STRIDE}))
                       AS start_tok
              FROM t WHERE n > 0)
            SELECT doc_id,
                   cast(start_tok // {CHUNK_STRIDE} AS BIGINT) AS chunk_idx,
                   cast(start_tok AS BIGINT) AS start_tok,
                   cast(least({CHUNK_MAX_TOKENS}, n - start_tok) AS BIGINT)
                     AS n_toks
            FROM c ORDER BY doc_id, chunk_idx""",
        "json_fields": """
SELECT CAST(json_extract_string(props, '$.k') AS BIGINT) % 10 AS k_bucket,
       count(*) AS n,
       cast(sum(cast(floor(value * 1e6) AS bigint)) AS bigint)
         AS value_micro_sum
FROM events GROUP BY 1
""",
        "fingerprint": f"""
WITH RECURSIVE base AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
maxn AS (SELECT greatest(coalesce(max(len(toks)), 1), 1) AS m FROM base),
pows(i, p) AS (
  SELECT 0, 1::HUGEINT
  UNION ALL
  SELECT i + 1, {_mulmod64('p', '1099511628211::HUGEINT')}
  FROM pows WHERE i + 1 < (SELECT m FROM maxn)
),
tok AS (SELECT doc_id, unnest(toks) AS term,
               unnest(range(len(toks))) AS pos FROM base),
contrib AS (
  SELECT tok.doc_id,
         {_mulmod64('md5_number_lower(tok.term)::HUGEINT', 'p.p')} AS c
  FROM tok JOIN pows p ON p.i = tok.pos),
fp AS (SELECT doc_id,
              cast((14695981039346656037::HUGEINT + sum(c))
                   % {_M63}::HUGEINT AS bigint) AS fingerprint
       FROM contrib GROUP BY doc_id)
SELECT d.doc_id, coalesce(fp.fingerprint, {fp_seed63}) AS fingerprint
FROM documents d LEFT JOIN fp ON d.doc_id = fp.doc_id
""",
        "simhash": f"""
WITH tf AS (
  SELECT doc_id, term, count(*) AS tf
  FROM (SELECT doc_id, unnest({_TOKS}) AS term FROM documents)
  GROUP BY doc_id, term),
bits AS (
  SELECT tf.doc_id, b.b,
         sum(tf.tf * (CASE WHEN (md5_number_lower(tf.term) >> b.b) & 1 = 1
                      THEN 1 ELSE -1 END)) AS acc
  FROM tf CROSS JOIN (SELECT unnest(range(64)) AS b) b
  GROUP BY tf.doc_id, b.b),
sh AS (
  SELECT doc_id,
         sum(CASE WHEN acc > 0 THEN (1::HUGEINT << b)
             ELSE 0::HUGEINT END) AS v
  FROM bits GROUP BY doc_id)
SELECT d.doc_id,
       cast(coalesce(sh.v, 0) - CASE WHEN coalesce(sh.v, 0) >= {_M63}::HUGEINT
            THEN {_M64}::HUGEINT ELSE 0::HUGEINT END AS bigint) AS simhash
FROM documents d LEFT JOIN sh ON d.doc_id = sh.doc_id
""",
        "minhash_pairs": f"""
WITH {_MH_BANDS_CTE}
SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
FROM bands x JOIN bands y
  ON x.band = y.band AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
""",
        "incremental_near_dup": f"""
WITH {_MH_BANDS_CTE},
state AS (SELECT DISTINCT band, band_hash FROM bands
          WHERE doc_id % 3 = 0),
hit AS (SELECT DISTINCT b.doc_id FROM bands b
        JOIN state s ON s.band = b.band AND s.band_hash = b.band_hash)
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM hit)
ORDER BY d.doc_id
""",
        "dedup_clusters": f"""
WITH RECURSIVE {_MH_BANDS_CTE},
cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bands x JOIN bands y
    ON x.band = y.band AND x.band_hash = y.band_hash
   AND x.doc_id < y.doc_id),
tsets AS (SELECT doc_id, list_distinct({_TOKS}) AS ts FROM documents),
ver AS (
  SELECT a, b FROM cand
  JOIN tsets ta ON ta.doc_id = cand.a
  JOIN tsets tb ON tb.doc_id = cand.b
  WHERE len(list_distinct(list_concat(ta.ts, tb.ts))) = 0
     OR 1000000 * len(list_intersect(ta.ts, tb.ts))
        >= {DEDUP_CLUSTER_THR} * len(list_distinct(list_concat(ta.ts,
                                                               tb.ts)))),
edges AS (SELECT a AS s, b AS d FROM ver
          UNION SELECT b AS s, a AS d FROM ver),
reach AS (
  SELECT doc_id AS s, doc_id AS d FROM documents
  UNION
  SELECT r.s, e.d FROM reach r JOIN edges e ON r.d = e.s)
SELECT s AS doc_id, cast(min(d) AS bigint) AS cluster
FROM reach GROUP BY s
""",
    }
    # the compacted chain serves the SAME logical corpus as the live
    # chain — one oracle proves both (chain = suppression path,
    # compacted = force-merged single-epoch path)
    sql["bm25_compacted"] = sql["bm25_chain"]
    return sql
