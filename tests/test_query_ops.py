"""Bool / fuzzy / wildcard / facet query operators vs brute-force oracles.

The engine side of the round-3 ES-parity queries: ``search_bool`` (must /
should / must_not with order-insensitive integer micro scores),
``fuzzy_terms`` / ``wildcard_terms`` (dictionary expansion), and
``facet_counts`` (terms aggregation in filter context).  Each is compared
against an independent in-memory reference over the sf0.001 documents
table; the DuckDB oracles in ``__ray_entry__`` re-prove the same results
SQL-side at the driver gate.
"""

import os
from collections import Counter

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_ingest_ray.analyzer import tokenize_simple
from search_ingest_ray.query.bm25 import term_scores
from search_ingest_ray.query.searcher import Searcher, _levenshtein_leq
from search_ingest_ray.util import tok_hash_sql


def _lev_ref(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    dp = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, lb + 1):
            cur = min(dp[j] + 1, dp[j - 1] + 1,
                      prev + (a[i - 1] != b[j - 1]))
            prev, dp[j] = dp[j], cur
    return dp[lb]


def test_levenshtein_leq_matches_reference():
    rng = np.random.default_rng(11)
    al = "abcde"
    words = ["".join(rng.choice(list(al), size=int(rng.integers(0, 7))))
             for _ in range(120)]
    for k in (0, 1, 2):
        for a in words[:30]:
            for b in words[30:60]:
                assert _levenshtein_leq(a, b, k) == (_lev_ref(a, b) <= k), \
                    (a, b, k)


def test_tok_hash_sql_matches_duckdb():
    import duckdb
    con = duckdb.connect()
    toks = ["", "merge", "x9", "straße", "ユニコード", "a" * 100]
    for t in toks:
        got = con.execute("select md5_number_lower(?)", [t]).fetchone()[0]
        assert tok_hash_sql(t) == got, t


@pytest.fixture(scope="module")
def docs_and_searcher(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import documents_index
    root = documents_index(sf_dir, analyzer="simple",
                           store_fields=("lang", "text"),
                           with_positions=True)
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    return t, Searcher(root)


def _vocab_df(t):
    df: Counter = Counter()
    for txt in t["text"].to_pylist():
        df.update(set(tokenize_simple(txt or "")))
    return df


def test_fuzzy_terms_vs_vocab(docs_and_searcher):
    t, s = docs_and_searcher
    df = _vocab_df(t)
    for probe, k in (("merg", 1), ("scan", 1), ("windo", 2)):
        exp = sorted(((term, n) for term, n in df.items()
                      if _lev_ref(probe, term) <= k),
                     key=lambda kv: (-kv[1], kv[0]))[:10]
        assert s.fuzzy_terms(probe, max_dist=k, k=10) == exp, probe


def test_wildcard_terms_vs_vocab(docs_and_searcher):
    t, s = docs_and_searcher
    df = _vocab_df(t)
    import fnmatch
    for pat in ("m*e", "s?an*", "*dow"):
        exp = sorted(((term, n) for term, n in df.items()
                      if fnmatch.fnmatch(term, pat)),
                     key=lambda kv: (-kv[1], kv[0]))[:10]
        assert s.wildcard_terms(pat, k=10) == exp, pat


def _bool_reference(t, p, must, should, must_not, k=10):
    ids = t["doc_id"].to_numpy()
    toks = [tokenize_simple(x or "") for x in t["text"].to_pylist()]
    df = _vocab_df(t)
    out = []
    for i, tl in enumerate(toks):
        c = Counter(tl)
        if any(m not in c for m in must):
            continue
        if any(m in c for m in must_not):
            continue
        if not must and not any(x in c for x in should):
            continue
        micro = 0
        for term in (*must, *should):
            if term in c:
                sc = term_scores(np.array([c[term]]), np.array([len(tl)]),
                                 df[term], p)[0]
                micro += int(np.floor(sc * 1e6))
        out.append((int(ids[i]), micro))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


def test_search_bool_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    cases = [
        (["merge", "scan"], ["window"], ["spark"]),
        (["merge"], [], []),
        (["merge", "scan", "window"], [], []),
        ([], ["merge", "scan"], ["window"]),  # should-only disjunction
        (["nosuchterm"], [], []),
    ]
    for must, should, must_not in cases:
        d, m = s.search_bool(must, should=should, must_not=must_not, k=10)
        exp = _bool_reference(t, s.params, must, should, must_not, k=10)
        assert list(zip(d.tolist(), m.tolist())) == exp, (must, should,
                                                          must_not)


def test_search_bool_disjunction_equals_or_scoring(docs_and_searcher):
    """should-only bool == the OR scorer's ranking (micro-floored)."""
    t, s = docs_and_searcher
    d_or, sc_or = s.search_terms(["merge", "scan"], k=200)
    # recompute per-term micros (floor before sum differs from floored sum)
    exp = _bool_reference(t, s.params, [], ["merge", "scan"], [], k=200)
    d_b, m_b = s.search_bool([], should=["merge", "scan"], k=200)
    assert list(zip(d_b.tolist(), m_b.tolist())) == exp
    assert set(d_b.tolist()) == set(int(i) for i in d_or)


def test_search_after_pages_cover_full_ranking(docs_and_searcher):
    """Cursor pagination: page 1 == ref[:10], page 2 == ref[10:20], and
    paging to exhaustion reproduces the entire ranking exactly once."""
    t, s = docs_and_searcher
    ref = _bool_reference(t, s.params, [], ["merge", "scan"], [], k=10**9)
    d, m = s.search_after(["merge", "scan"], k=10)
    assert list(zip(d.tolist(), m.tolist())) == ref[:10]
    collected = list(zip(d.tolist(), m.tolist()))
    while d.size:
        cursor = (int(m[-1]), int(d[-1]))
        d, m = s.search_after(["merge", "scan"], k=10, after=cursor)
        collected.extend(zip(d.tolist(), m.tolist()))
    assert collected == ref


def test_more_like_this_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    df = _vocab_df(t)
    p = s.params
    for seed_pos in (0, 3):
        seed_id = int(ids[seed_pos])
        tf = Counter(tokenize_simple(texts[seed_pos] or ""))
        ranked = sorted(
            (-int(np.floor(f * np.log(1 + (p.n_docs - df[term] + 0.5)
                                      / (df[term] + 0.5)) * 1e6)), term)
            for term, f in tf.items())
        sel_exp = [term for _, term in ranked[:3]]
        exp = [(i, mi) for i, mi in
               _bool_reference(t, p, [], sel_exp, [], k=10**9)
               if i != seed_id][:10]
        sel, d, m = s.more_like_this(seed_id, max_terms=3, k=10)
        assert sel == sel_exp, seed_id
        assert list(zip(d.tolist(), m.tolist())) == exp, seed_id


def test_highlight_first_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    terms = ["merge", "scan"]
    top = [i for i, _ in
           _bool_reference(t, s.params, [], terms, [], k=10)]
    exp = []
    for doc in sorted(top):
        toks = tokenize_simple(texts[int(np.flatnonzero(ids == doc)[0])] or "")
        for term in sorted(terms):
            if term in toks:
                exp.append((doc, term, toks.index(term)))
    out = s.highlight_first(terms, k=10)
    got = list(zip(out["doc_id"].to_pylist(), out["term"].to_pylist(),
                   out["first_pos"].to_pylist()))
    assert got == exp


def test_facet_counts_vs_pandas(docs_and_searcher):
    t, s = docs_and_searcher
    want: Counter = Counter()
    for txt, lang in zip(t["text"].to_pylist(), t["lang"].to_pylist()):
        tl = set(tokenize_simple(txt or ""))
        if "merge" in tl or "scan" in tl:
            want[lang] += 1
    out = s.facet_counts(["merge", "scan"], "lang")
    got = dict(zip(out["lang"].to_pylist(), out["n"].to_pylist()))
    assert got == dict(want)
    # sorted by value ascending
    assert out["lang"].to_pylist() == sorted(got)


@pytest.fixture(scope="module")
def stats_searcher(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import documents_index
    root = documents_index(sf_dir, analyzer="simple",
                           store_fields=("lang", "n_chars"))
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "n_chars", "lang"])
    return t, Searcher(root)


def _match_vals(t, terms):
    out = []
    for txt, v in zip(t["text"].to_pylist(), t["n_chars"].to_pylist()):
        tl = set(tokenize_simple(txt or ""))
        if any(x in tl for x in terms):
            out.append(v)
    return out


def test_agg_stats_vs_bruteforce(stats_searcher):
    t, s = stats_searcher
    vals = _match_vals(t, ["merge", "scan"])
    out = s.agg_stats(["merge", "scan"], "n_chars").to_pylist()[0]
    assert out == {"n": len(vals), "min": min(vals), "max": max(vals),
                   "sum": sum(vals),
                   "avg_micro": (sum(vals) * 1_000_000) // len(vals)}
    empty = s.agg_stats(["zzzznosuchterm"], "n_chars").to_pylist()[0]
    assert empty == {"n": 0, "min": None, "max": None, "sum": 0,
                     "avg_micro": None}


def test_agg_histogram_vs_bruteforce(stats_searcher):
    t, s = stats_searcher
    vals = _match_vals(t, ["merge", "scan"])
    want: Counter = Counter((v // 50) * 50 for v in vals)
    out = s.agg_histogram(["merge", "scan"], "n_chars", 50)
    got = dict(zip(out["bucket"].to_pylist(), out["n"].to_pylist()))
    assert got == dict(want)
    assert out["bucket"].to_pylist() == sorted(want)


def test_facet_stats_vs_bruteforce(sf_dir, stats_searcher):
    _, s = stats_searcher
    full = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "n_chars"])
    per: dict = {}
    for txt, lang, v in zip(full["text"].to_pylist(),
                            full["lang"].to_pylist(),
                            full["n_chars"].to_pylist()):
        toks = set(tokenize_simple(txt or ""))
        if "merge" in toks or "scan" in toks:
            per.setdefault(lang, []).append(v)
    out = s.facet_stats(["merge", "scan"], "lang", "n_chars")
    got = {r["lang"]: r for r in out.to_pylist()}
    assert sorted(got) == sorted(per)
    for lang, vals in per.items():
        r = got[lang]
        assert (r["n"], r["min"], r["max"], r["sum"]) == \
            (len(vals), min(vals), max(vals), sum(vals))
        assert r["avg_micro"] == (sum(vals) * 1_000_000) // len(vals)


def test_agg_cardinality_and_range(stats_searcher):
    t, s = stats_searcher
    vals = _match_vals(t, ["merge", "scan"])
    edges = [150, 250, 350]
    out = s.agg_range(["merge", "scan"], "n_chars", edges).to_pylist()
    assert [(r["lo"], r["hi"]) for r in out] == \
        [(None, 150), (150, 250), (250, 350), (350, None)]
    assert out[0]["n"] == sum(v < 150 for v in vals)
    assert out[1]["n"] == sum(150 <= v < 250 for v in vals)
    assert out[2]["n"] == sum(250 <= v < 350 for v in vals)
    assert out[3]["n"] == sum(v >= 350 for v in vals)
    assert sum(r["n"] for r in out) == len(vals)
    card = s.agg_cardinality(["merge", "scan"], "n_chars").to_pylist()[0]
    assert card["cardinality"] == len(set(vals))


def test_minimum_should_match_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    terms = ["merge", "scan", "window"]
    ids = t["doc_id"].to_numpy()
    toks = [tokenize_simple(x or "") for x in t["text"].to_pylist()]
    df = _vocab_df(t)
    full = _bool_reference(t, s.params, [], terms, [], k=10**9)
    nmatch = {int(ids[i]): sum(x in c for x in terms)
              for i, c in ((j, set(tl)) for j, tl in enumerate(toks))}
    for m in (1, 2, 3):
        exp = [(i, mi) for i, mi in full if nmatch[i] >= m][:10]
        d, mm = s.search_minimum_should(terms, min_match=m, k=10)
        assert list(zip(d.tolist(), mm.tolist())) == exp, m
    # min_match == len(terms) is the conjunction
    d_and, m_and = s.search_bool(terms, k=10)
    d3, m3 = s.search_minimum_should(terms, min_match=3, k=10)
    assert d3.tolist() == d_and.tolist() and m3.tolist() == m_and.tolist()


def test_search_sort_by_field(stats_searcher):
    t, s = stats_searcher
    ids = t["doc_id"].to_numpy()
    rows = [(int(ids[i]), v) for i, v in enumerate(t["n_chars"].to_pylist())
            if {"merge", "scan"} & set(
                tokenize_simple(t["text"].to_pylist()[i] or ""))]
    for desc in (True, False):
        exp = sorted(rows, key=lambda r: (-r[1] if desc else r[1], r[0]))[:10]
        out = s.search_sort_by(["merge", "scan"], "n_chars", k=10,
                               descending=desc)
        got = list(zip(out["doc_id"].to_pylist(),
                       out["n_chars"].to_pylist()))
        assert got == exp, desc


def test_rescore_phrase_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    terms = ["scan", "merge"]
    ids = t["doc_id"].to_numpy()
    toks = [tokenize_simple(x or "") for x in t["text"].to_pylist()]

    def has_phrase(tl):
        return any(tl[i:i + 2] == terms for i in range(len(tl) - 1))

    phrase_ids = {int(ids[i]) for i, tl in enumerate(toks) if has_phrase(tl)}
    base = _bool_reference(t, s.params, [], terms, [], k=10**9)
    window = base[:20]
    bonus = 7_000_000
    resc = sorted(((i, m + (bonus if i in phrase_ids else 0))
                   for i, m in window), key=lambda x: (-x[1], x[0]))[:5]
    d, m = s.rescore_phrase(terms, window=20, bonus_micro=bonus, k=5)
    assert list(zip(d.tolist(), m.tolist())) == resc
    # a doc outside the window must never enter, even with the bonus
    outside = {i for i, _ in base[20:]}
    assert not outside & set(d.tolist())


def test_agg_percentiles_nearest_rank(stats_searcher):
    t, s = stats_searcher
    vals = sorted(_match_vals(t, ["merge", "scan"]))
    n = len(vals)
    out = s.agg_percentiles(["merge", "scan"], "n_chars", [50, 90, 99, 100])
    got = dict(zip(out["pct"].to_pylist(), out["value"].to_pylist()))
    for p in (50, 90, 99, 100):
        exp = vals[max(int(np.ceil(p / 100 * n)), 1) - 1]
        assert got[p] == exp, p


def test_agg_boxplot_nearest_rank(stats_searcher):
    t, s = stats_searcher
    vals = sorted(_match_vals(t, ["merge", "scan"]))
    n = len(vals)
    out = s.agg_boxplot(["merge", "scan"], "n_chars").to_pylist()[0]
    exp = {p: vals[max(int(np.ceil(p / 100 * n)), 1) - 1]
           for p in (25, 50, 75)}
    assert out == {"n": n, "min": vals[0], "q1": exp[25], "q2": exp[50],
                   "q3": exp[75], "max": vals[-1]}
    empty = s.agg_boxplot(["zzzznosuchterm"], "n_chars").to_pylist()[0]
    assert empty["n"] == 0 and empty["q2"] is None


def test_string_stats_entropy_vs_bruteforce(sf_dir, stats_searcher):
    import math
    t, s = stats_searcher
    langs = [lg for txt, lg in zip(t["text"].to_pylist(),
                                   t["lang"].to_pylist())
             if any(x in set(tokenize_simple(txt or ""))
                    for x in ("merge", "scan")) and lg is not None]
    out = s.string_stats(["merge", "scan"], "lang").to_pylist()[0]
    assert out["n"] == len(langs)
    assert out["min_len"] == min(len(x) for x in langs)
    assert out["max_len"] == max(len(x) for x in langs)
    assert out["avg_len_micro"] == (
        1_000_000 * sum(len(x) for x in langs) // len(langs))
    cnt = Counter("".join(langs))
    total = sum(cnt.values())
    ent = 0.0
    for ch in sorted(cnt):
        p = cnt[ch] / total
        ent += -(p * math.log2(p))
    assert out["entropy_micro"] == math.floor(ent * 1_000_000)
    # single distinct char ⇒ entropy exactly 0
    one = s.string_stats(["zzzznosuchterm"], "lang").to_pylist()[0]
    assert one["n"] == 0 and one["entropy_micro"] is None


def test_t_test_paired_vs_bruteforce(wide_searcher):
    import math
    t, s = wide_searcher
    ds = [v - d for txt, v, d in zip(t["text"].to_pylist(),
                                     t["n_chars"].to_pylist(),
                                     t["doc_id"].to_pylist())
          if any(x in set(tokenize_simple(txt or ""))
                 for x in ("merge", "scan"))]
    out = s.t_test(["merge", "scan"], "n_chars", "doc_id").to_pylist()[0]
    n, sum_d, sum_d2 = len(ds), sum(ds), sum(x * x for x in ds)
    assert (out["n"], out["sum_d"], out["sum_d2"]) == (n, sum_d, sum_d2)
    sd, sd2 = float(sum_d), float(sum_d2)
    mean = sd / n
    var = (sd2 - (sd * sd) / n) / (n - 1)
    assert out["t_micro"] == math.floor(mean / math.sqrt(var / n) * 1e6)
    assert s.t_test(["zzzznosuchterm"], "n_chars",
                    "doc_id").to_pylist()[0]["t_micro"] is None


def test_diversified_sampler_cap_semantics(stats_searcher):
    t, s = stats_searcher
    matched = sorted(
        (d, lg) for txt, d, lg in zip(t["text"].to_pylist(),
                                      t["doc_id"].to_pylist(),
                                      t["lang"].to_pylist())
        if any(x in set(tokenize_simple(txt or ""))
               for x in ("merge", "scan")) and lg is not None)
    seen: Counter = Counter()
    want = []
    for d, lg in matched:
        if seen[lg] < 2:
            seen[lg] += 1
            want.append((d, lg))
    want = want[:7]
    out = s.diversified_sampler(["merge", "scan"], "lang",
                                max_per=2, shard_size=7)
    got = list(zip(out["doc_id"].to_pylist(), out["value"].to_pylist()))
    assert got == want
    # per-value cap holds
    assert max(Counter(v for _, v in got).values()) <= 2


def test_agg_top_hits_vs_bruteforce(sf_dir, stats_searcher):
    _, s = stats_searcher
    full = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text", "lang"])
    ref = _bool_reference(full, s.params, [], ["merge", "scan"], [], k=10**9)
    lang_of = dict(zip(full["doc_id"].to_pylist(),
                       full["lang"].to_pylist()))
    per: dict = {}
    for i, m in ref:  # ref already sorted by (-micro, doc)
        per.setdefault(lang_of[i], []).append((i, m))
    exp = []
    for lang in sorted(per):
        for rank, (i, m) in enumerate(per[lang][:2], 1):
            exp.append((lang, rank, i, m))
    out = s.agg_top_hits(["merge", "scan"], "lang", per_group=2)
    got = list(zip(out["lang"].to_pylist(), out["rank"].to_pylist(),
                   out["doc_id"].to_pylist(),
                   out["score_micro"].to_pylist()))
    assert got == exp


def test_significant_terms_vs_bruteforce(sf_dir, docs_and_searcher):
    _, s = docs_and_searcher
    full = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    toks = [set(tokenize_simple(x or "")) for x in full["text"].to_pylist()]
    match = [i for i, tl in enumerate(toks) if {"merge", "scan"} & tl]
    F, N = len(match), len(toks)
    fg: Counter = Counter()
    for i in match:
        fg.update(toks[i])
    df = _vocab_df(pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id", "text"]))
    scored = sorted(
        (-((1_000_000 * c * N) // (df[term] * F)), term, c, df[term])
        for term, c in fg.items() if c >= 2)
    exp = [(term, c, d, -lift) for lift, term, c, d in scored[:10]]
    out = s.significant_terms(["merge", "scan"], k=10, min_fg=2)
    got = list(zip(out["term"].to_pylist(), out["fg"].to_pylist(),
                   out["df"].to_pylist(), out["lift_micro"].to_pylist()))
    assert got == exp


def test_multi_match_vs_bruteforce(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import documents_index
    from search_ingest_ray.query.searcher import multi_match
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "source"])
    s_text = Searcher(documents_index(sf_dir, analyzer="simple"))
    s_src = Searcher(documents_index(sf_dir, analyzer="simple",
                                     text_col="source"))
    terms = ["merge", "src3"]

    def field_micro(col, params):
        """per-doc micro sums for one field (own stats)."""
        texts = t[col].to_pylist()
        toks = [tokenize_simple(x or "") for x in texts]
        df: Counter = Counter()
        for tl in toks:
            df.update(set(tl))
        out = {}
        ids = t["doc_id"].to_numpy()
        for i, tl in enumerate(toks):
            c = Counter(tl)
            micro = 0
            hit = False
            for term in terms:
                if term in c:
                    hit = True
                    sc = term_scores(np.array([c[term]]),
                                     np.array([len(tl)]), df[term], params)[0]
                    micro += int(np.floor(sc * 1e6))
            if hit:
                out[int(ids[i])] = micro
        return out

    m_text = field_micro("text", s_text.params)
    m_src = field_micro("source", s_src.params)
    all_ids = sorted(set(m_text) | set(m_src))
    for mode, comb in (("best_fields", max), ("most_fields",
                                              lambda *a: sum(a))):
        exp = sorted(((i, comb(m_text.get(i, 0), m_src.get(i, 0)))
                      for i in all_ids), key=lambda x: (-x[1], x[0]))[:10]
        d, m = multi_match([s_text, s_src], terms, k=10, mode=mode)
        assert list(zip(d.tolist(), m.tolist())) == exp, mode
    # per-field integer boosts (text^1, source^3), most_fields
    exp_b = sorted(((i, m_text.get(i, 0) + 3 * m_src.get(i, 0))
                    for i in all_ids), key=lambda x: (-x[1], x[0]))[:10]
    d, m = multi_match([s_text, s_src], terms, k=10, mode="most_fields",
                       boosts=[1, 3])
    assert list(zip(d.tolist(), m.tolist())) == exp_b


def test_agg_date_histogram_vs_bruteforce(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import events_index
    s = Searcher(events_index(sf_dir))
    ev = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                       columns=["event_id", "ts", "event_type"])
    hour = 3_600_000_000
    want: Counter = Counter()
    for ts, et in zip(ev["ts"].cast("int64").to_pylist(),
                      ev["event_type"].to_pylist()):
        if et == "purchase":
            want[(ts // hour) * hour] += 1
    out = s.agg_date_histogram(["purchase"], "ts", hour)
    got = dict(zip(out["bucket"].cast("int64").to_pylist(),
                   out["n"].to_pylist()))
    assert got == dict(want)
    assert out["bucket"].cast("int64").to_pylist() == sorted(want)


def test_auto_date_histogram_ladder(ray_session, tmp_path):
    """The smallest ladder interval whose potential span fits the target
    is chosen; extremes fall back to the ladder ends."""
    import pyarrow as pa

    from search_ingest_ray.index.build import build_index
    # 90 events over ~45 minutes: 1s → 2700 potential buckets, 1m → 46,
    # 5m → 10 — with target=10 the pick must be 5 minutes
    vals = [i * 30_000_000 for i in range(90)]
    t = pa.table({
        "url": [f"u{i}" for i in range(len(vals))],
        "text": ["alpha beta"] * len(vals),
        "ts_us": pa.array(vals, pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "docs.parquet"))
    root = str(tmp_path / "idx")
    build_index([str(tmp_path / "docs.parquet")], root, analyzer="simple",
                num_term_partitions=2, store_fields=["ts_us"])
    s = Searcher(root)
    out = s.agg_auto_date_histogram(["alpha"], "ts_us", target=10)
    assert set(out["interval_us"].to_pylist()) == {300_000_000}
    want = Counter((v // 300_000_000) * 300_000_000 for v in vals)
    assert dict(zip(out["bucket"].cast("int64").to_pylist(),
                    out["n"].to_pylist())) == dict(want)
    assert sum(out["n"].to_pylist()) == len(vals)
    # a huge target fits the smallest rung; a target of 1 forces year
    fine = s.agg_auto_date_histogram(["alpha"], "ts_us", target=10**9)
    assert set(fine["interval_us"].to_pylist()) == {1_000_000}
    # target=1: the 45-min span first fits one bucket at the 1-hour rung
    coarse = s.agg_auto_date_histogram(["alpha"], "ts_us", target=1)
    assert set(coarse["interval_us"].to_pylist()) == {3_600_000_000}
    assert coarse.num_rows == 1 and coarse["n"][0].as_py() == len(vals)
    # empty match set → empty table, not an error
    assert s.agg_auto_date_histogram(["zzz"], "ts_us").num_rows == 0


def test_pinned_query_semantics(wide_searcher):
    """Present pinned ids lead in the given order, absent ids drop, and
    the organic tail is the BM25 top-k minus the pinned set."""
    t, s = wide_searcher
    organic, _ = s.search_terms(["merge", "scan"], k=10)
    organic = [int(x) for x in organic]
    pin = [organic[3], 10**12, organic[0]]  # absent id in the middle
    out = s.pinned(["merge", "scan"], pin, k=10)
    got = list(zip(out["rank"].to_pylist(), out["doc_id"].to_pylist(),
                   out["pinned"].to_pylist()))
    assert got[0] == (1, organic[3], True)
    assert got[1] == (2, organic[0], True)
    # ES size semantics: pinned hits count against k — total == k, the
    # organic tail is the top-k minus the pinned set, truncated to fit
    assert len(got) == 10
    want_org = [d for d in organic
                if d not in (organic[0], organic[3])][:10 - 2]
    assert [d for _, d, p in got if not p] == want_org
    assert all(r == i + 1 for i, (r, _, _) in enumerate(got))
    # no pinned ids → pure organic
    pure = s.pinned(["merge", "scan"], [], k=10)
    assert pure["doc_id"].to_pylist() == organic


def test_aggs_null_and_bigint_docvalues(ray_session, tmp_path):
    """Null docvalues must not break the aggs: top_hits skips docs whose
    group field is null (ES bucket semantics — and np.lexsort cannot
    compare None with str), and agg_stats/date_histogram stay
    integer-exact on an int64 column with a null (a float64 SUM rounds
    above 2^53)."""
    import pyarrow as pa

    from search_ingest_ray.index.build import build_index
    n = 2000
    big = 5_000_000_000_000  # × 2000 docs: sum 1e16 > 2^53, avg fits int64
    vals = [None if i == 7 else big + i for i in range(n)]
    langs = [None if i == 3 else ("en" if i % 2 else "de") for i in range(n)]
    t = pa.table({
        "url": [f"u{i}" for i in range(n)],
        "text": ["alpha beta"] * n,
        "lang": pa.array(langs, pa.string()),
        "ts_us": pa.array(vals, pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "docs.parquet"))
    root = str(tmp_path / "idx")
    build_index([str(tmp_path / "docs.parquet")], root, analyzer="simple",
                num_term_partitions=2, store_fields=["lang", "ts_us"])
    s = Searcher(root)

    th = s.agg_top_hits(["alpha"], "lang", per_group=2)
    assert set(th["lang"].to_pylist()) == {"en", "de"}  # null bucket gone
    assert len(th) == 4  # per_group=2 × {en, de}; null-lang doc skipped

    got = s.agg_stats(["alpha"], "ts_us").to_pylist()[0]
    live = [v for v in vals if v is not None]
    exact = sum(live)
    assert got["n"] == len(live)
    assert got["sum"] == exact  # float64 accumulation would round (±2)
    assert float(np.float64(exact)) != exact  # the test really covers 2^53
    assert got["avg_micro"] == (exact * 1_000_000) // len(live)

    dh = s.agg_date_histogram(["alpha"], "ts_us", 1000)
    want: Counter = Counter((v // 1000) * 1000 for v in live)
    assert dict(zip(dh["bucket"].cast("int64").to_pylist(),
                    dh["n"].to_pylist())) == dict(want)

    # ES `exists` query: non-null docvalue, for a string and an int column
    assert s.filter_docs({}).size == n
    assert s.filter_docs({"ts_us": ("exists",)}).size == n - 1
    assert s.filter_docs({"lang": ("exists",)}).size == n - 1

    # ES collapse: one hit per lang, the null-lang doc never representable
    col = s.collapse_top(["alpha"], "lang", k=10)
    assert len(col) == 2
    assert set(col["lang"].to_pylist()) == {"en", "de"}
    m = col["score_micro"].to_pylist()
    assert m == sorted(m, reverse=True)


# -- round-3 batch 2: dis_max / boosting / rank_feature / prefix / span /
#    filters-family aggregations ------------------------------------------


def _micro_map(t, p, terms):
    """Brute-force doc -> {term: micro} over the fixture table."""
    ids = t["doc_id"].to_numpy()
    toks = [tokenize_simple(x or "") for x in t["text"].to_pylist()]
    df = _vocab_df(t)
    out = {}
    for i, tl in enumerate(toks):
        c = Counter(tl)
        per = {}
        for term in terms:
            if term in c:
                sc = term_scores(np.array([c[term]]), np.array([len(tl)]),
                                 df[term], p)[0]
                per[term] = int(np.floor(sc * 1e6))
        if per:
            out[int(ids[i])] = per
    return out


def test_dis_max_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    mm = _micro_map(t, s.params, ["merge", "scan"])
    exp = []
    for d, per in mm.items():
        mx, sm = max(per.values()), sum(per.values())
        exp.append((d, mx + (3 * (sm - mx)) // 10))
    exp.sort(key=lambda x: (-x[1], x[0]))
    out = s.dis_max(["merge", "scan"], k=10, tie_breaker=(3, 10))
    assert list(zip(out["doc_id"].to_pylist(),
                    out["score_micro"].to_pylist())) == exp[:10]
    # tie_breaker=1 ≡ plain disjunction sum
    out1 = s.dis_max(["merge", "scan"], k=10, tie_breaker=(1, 1))
    ref = _bool_reference(t, s.params, [], ["merge", "scan"], [], k=10)
    assert list(zip(out1["doc_id"].to_pylist(),
                    out1["score_micro"].to_pylist())) == ref


def test_boosting_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    mm = _micro_map(t, s.params, ["merge", "scan"])
    toks = {int(i): set(tokenize_simple(x or ""))
            for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    exp = []
    for d, per in mm.items():
        m = sum(per.values())
        exp.append((d, m // 2 if "window" in toks[d] else m))
    exp.sort(key=lambda x: (-x[1], x[0]))
    out = s.boosting(["merge", "scan"], ["window"],
                     negative_boost=(1, 2), k=10)
    assert list(zip(out["doc_id"].to_pylist(),
                    out["score_micro"].to_pylist())) == exp[:10]
    # a demoted doc is NOT excluded (contrast with bool must_not)
    demoted = {d for d in mm if "window" in toks[d]}
    if demoted:
        full = s.boosting(["merge", "scan"], ["window"], k=10**9)
        assert demoted <= set(full["doc_id"].to_pylist())


def test_rank_feature_vs_bruteforce(sf_dir, stats_searcher):
    t, s = stats_searcher
    mm = _micro_map(t, s.params, ["merge", "scan"])
    nch = dict(zip(t["doc_id"].to_pylist(), t["n_chars"].to_pylist()))
    pivot = 250
    exp = sorted(((d, sum(per.values())
                   + (1_000_000 * nch[d]) // (nch[d] + pivot))
                  for d, per in mm.items()),
                 key=lambda x: (-x[1], x[0]))[:10]
    out = s.rank_feature_saturation(["merge", "scan"], "n_chars",
                                    pivot=pivot, k=10)
    assert list(zip(out["doc_id"].to_pylist(),
                    out["score_micro"].to_pylist())) == exp


def test_prefix_match_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    exp = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        n = len({tok for tok in tokenize_simple(x or "")
                 if tok.startswith("me")})
        if n:
            exp[int(i)] = n
    out = s.prefix_match("me")
    assert dict(zip(out["doc_id"].to_pylist(),
                    out["n_terms"].to_pylist())) == exp
    assert out["doc_id"].to_pylist() == sorted(exp)


def test_span_first_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    exp = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        tl = tokenize_simple(x or "")
        if "merge" in tl and tl.index("merge") < 5:
            exp[int(i)] = tl.index("merge")
    out = s.span_first("merge", 5)
    assert dict(zip(out["doc_id"].to_pylist(),
                    out["first_pos"].to_pylist())) == exp


def test_span_near_unordered_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    for slop in (0, 2, 5):
        exp = []
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            tl = tokenize_simple(x or "")
            pa_ = [j for j, tok in enumerate(tl) if tok == "merge"]
            pb_ = [j for j, tok in enumerate(tl) if tok == "scan"]
            if pa_ and pb_ and min(abs(a - b)
                                   for a in pa_ for b in pb_) - 1 <= slop:
                exp.append(int(i))
        got = s.span_near_unordered("merge", "scan", slop=slop)
        assert sorted(got.tolist()) == sorted(exp), slop


def test_agg_filters_and_adjacency(stats_searcher):
    t, s = stats_searcher
    vals = {}
    for i, x, v in zip(t["doc_id"].to_pylist(), t["text"].to_pylist(),
                       t["n_chars"].to_pylist()):
        tl = set(tokenize_simple(x or ""))
        if "merge" in tl or "scan" in tl:
            vals[int(i)] = v
    named = [("short", {"n_chars": ("range", None, 249)}),
             ("long", {"n_chars": ("range", 300, None)})]
    out = s.agg_filters(["merge", "scan"], named)
    assert out["bucket"].to_pylist() == ["short", "long"]
    assert out["n"].to_pylist() == [
        sum(v <= 249 for v in vals.values()),
        sum(v >= 300 for v in vals.values())]
    adj = s.agg_adjacency_matrix(["merge", "scan"], named)
    got = dict(zip(adj["key"].to_pylist(), adj["n"].to_pylist()))
    exp = {"short": sum(v <= 249 for v in vals.values()),
           "long": sum(v >= 300 for v in vals.values()),
           "short&long": 0}
    exp = {k: v for k, v in exp.items() if v > 0}
    assert got == exp


def test_agg_cumulative_histogram(stats_searcher):
    t, s = stats_searcher
    vals = _match_vals(t, ["merge", "scan"])
    want = Counter((v // 100) * 100 for v in vals)
    buckets = sorted(want)
    out = s.agg_cumulative_histogram(["merge", "scan"], "n_chars", 100)
    assert out["bucket"].to_pylist() == buckets
    ns = [want[b] for b in buckets]
    assert out["n"].to_pylist() == ns
    assert out["cum_n"].to_pylist() == list(np.cumsum(ns))
    assert out["d_n"].to_pylist() == [None] + [ns[i] - ns[i - 1]
                                               for i in range(1, len(ns))]


def test_rare_terms_vs_vocab(docs_and_searcher):
    t, s = docs_and_searcher
    df = _vocab_df(t)
    for max_df in (min(df.values()), 60, max(df.values())):
        exp = sorted(((term, n) for term, n in df.items() if n <= max_df),
                     key=lambda kv: (kv[1], kv[0]))[:10]
        assert s.rare_terms(max_df, k=10) == exp, max_df


def test_agg_multi_terms_vs_bruteforce(stats_searcher):
    t, s = stats_searcher
    # lang is the only keyword field this fixture stores; single-source
    # multi_terms == terms agg ordered (-n, key)
    langs = {}
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        tl = set(tokenize_simple(x or ""))
        if "merge" in tl or "scan" in tl:
            langs[int(i)] = None
    got = s.agg_multi_terms(["merge", "scan"], ["lang"], k=10)
    facet = s.facet_counts(["merge", "scan"], "lang")
    exp = sorted(zip(facet["lang"].to_pylist(), facet["n"].to_pylist()),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["lang"].to_pylist(), got["n"].to_pylist())) == exp


def test_ids_query_drops_absent(stats_searcher):
    t, s = stats_searcher
    ids = t["doc_id"].to_pylist()
    probe = [ids[0], ids[-1], 10**12]
    out = s.ids_query(probe, ["lang"])
    assert out["doc_id"].to_pylist() == sorted([ids[0], ids[-1]])
    # stored lang values round-trip exactly
    want = dict(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()))
    got = dict(zip(out["doc_id"].to_pylist(), out["lang"].to_pylist()))
    assert got == {i: want[i] for i in got}


def test_match_phrase_prefix_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    exp = []
    for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        tl = tokenize_simple(x or "")
        if any(a == "merge" and b.startswith("sc")
               for a, b in zip(tl, tl[1:])):
            exp.append(int(i))
    got = s.match_phrase_prefix(["merge"], "sc")
    assert got.tolist() == sorted(exp)
    # expansion cap: max_expansions=0 matches nothing
    assert s.match_phrase_prefix(["merge"], "sc",
                                 max_expansions=0).size == 0


@pytest.fixture(scope="module")
def wide_searcher(ray_session, sf_dir):
    """Searcher over the same store_fields config __ray_entry__ uses
    (cache-shared), so doc_id is available as a docvalue."""
    from search_ingest_ray.pipelines.flagship import documents_index
    root = documents_index(sf_dir, analyzer="simple",
                           store_fields=("lang", "n_chars", "source",
                                         "text", "doc_id"))
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "n_chars"])
    return t, Searcher(root)


def _match_rows(t, terms):
    rows = []
    for did, txt, nc in zip(t["doc_id"].to_pylist(), t["text"].to_pylist(),
                            t["n_chars"].to_pylist()):
        toks = set(tokenize_simple(txt or ""))
        if any(q in toks for q in terms):
            rows.append((did, nc))
    return rows


def test_matrix_stats_vs_bruteforce(wide_searcher):
    t, s = wide_searcher
    terms = ["merge", "scan"]
    rows = _match_rows(t, terms)
    n = len(rows)
    sx = sum(nc for _, nc in rows)
    sy = sum(did for did, _ in rows)
    sxx = sum(nc * nc for _, nc in rows)
    syy = sum(did * did for did, _ in rows)
    sxy = sum(did * nc for did, nc in rows)
    vxn, vyn = n * sxx - sx * sx, n * syy - sy * sy
    cn = n * sxy - sx * sy
    out = s.matrix_stats(terms, "n_chars", "doc_id")
    row = {k: out[k][0].as_py() for k in out.column_names}
    assert row["n"] == n
    assert row["mean_x_micro"] == (sx * 10**6) // n
    assert row["var_x_micro"] == (vxn * 10**6) // (n * n)
    assert row["var_y_micro"] == (vyn * 10**6) // (n * n)
    q = (abs(cn) * 10**6) // (n * n)
    assert row["cov_micro"] == (-q if cn < 0 else q)
    assert row["corr_sign"] == (cn > 0) - (cn < 0)
    assert row["corr_sq_micro"] == (cn * cn * 10**6) // (vxn * vyn)


def test_top_metrics_and_mad_vs_bruteforce(wide_searcher):
    t, s = wide_searcher
    terms = ["merge", "scan"]
    rows = _match_rows(t, terms)
    # top_metrics: top-5 by (n_chars desc, doc_id asc)
    top = sorted(rows, key=lambda r: (-r[1], r[0]))[:5]
    out = s.top_metrics(terms, "n_chars", "doc_id", k=5)
    assert out["sort_val"].to_pylist() == [nc for _, nc in top]
    assert out["metric"].to_pylist() == [did for did, _ in top]
    # mad: lower-median of |x - lower-median|
    xs = sorted(nc for _, nc in rows)
    med = xs[(len(xs) - 1) // 2]
    dev = sorted(abs(x - med) for x in xs)
    mad = dev[(len(dev) - 1) // 2]
    got = s.agg_mad(terms, "n_chars")
    assert (got["n"][0].as_py(), got["median"][0].as_py(),
            got["mad"][0].as_py()) == (len(xs), med, mad)


def test_random_score_vs_bruteforce(wide_searcher):
    t, s = wide_searcher
    terms = ["merge", "scan"]
    ids = [did for did, _ in _match_rows(t, terms)]
    scores = {d: tok_hash_sql(f"7:{d}") % 1_000_000 for d in ids}
    top = sorted(ids, key=lambda d: (-scores[d], d))[:10]
    out = s.random_score(terms, seed=7, k=10)
    assert out["doc_id"].to_pylist() == top
    assert out["score_micro"].to_pylist() == [scores[d] for d in top]


def test_geotile_known_points(ray_session, sf_dir):
    """Tile math sanity on the real geo fixture: every tile count sums to
    the match-set size, and each matched doc's tile recomputed from the
    oracle lat/lon formula lands in the emitted tile set."""
    import math

    from search_ingest_ray.pipelines.flagship import documents_geo_index
    s = Searcher(documents_geo_index(sf_dir))
    terms = ["merge", "scan"]
    out = s.agg_geotile(terms, "geo", zoom=4)
    tiles = {(x, y): n for x, y, n in zip(out["tile_x"].to_pylist(),
                                          out["tile_y"].to_pylist(),
                                          out["n"].to_pylist())}
    docids = s._match_docids(terms)
    assert sum(tiles.values()) == docids.size
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    matched = {d for d, _ in _match_rows(
        pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "n_chars"]), terms)}
    from collections import Counter as _C
    want: _C = _C()
    for did in matched:
        lat = -60.0 + ((did % 120001) * 7919 % 120001) / 1000.0
        lon = -170.0 + ((did % 340001) * 104729 % 340001) / 1000.0
        x = math.floor((lon + 180.0) / 360.0 * 16.0)
        y = math.floor((1.0 - math.log(math.tan(lat * (math.pi / 180.0))
                        + 1.0 / math.cos(lat * (math.pi / 180.0)))
                        / math.pi) / 2.0 * 16.0)
        want[(x, y)] += 1
    assert dict(want) == tiles


# -- similarity modules (ES per-field `similarity` setting) ------------------

def _similarity_reference(t, similarity, terms, k=10, mu=2000.0, lam=0.1):
    """Brute-force per-doc scoring with the exact formulas of
    Searcher.search_similarity (independent implementation: Counter +
    per-doc loops, no shared vectorized code path)."""
    import math
    ids = t["doc_id"].to_numpy()
    toks = [tokenize_simple(x or "") for x in t["text"].to_pylist()]
    total_tokens = sum(len(tk) for tk in toks)
    n_docs = len(toks)
    counters = [Counter(tk) for tk in toks]
    ttf = {q: sum(c.get(q, 0) for c in counters) for q in set(terms)}
    df = {q: sum(1 for c in counters if q in c) for q in set(terms)}
    scores = {}
    for i, c in enumerate(counters):
        dl = len(toks[i])
        s = 0.0
        matched = False
        for q in terms:
            tf = c.get(q, 0)
            if tf == 0:
                continue
            matched = True
            if similarity == "lmd":
                p_c = (ttf[q] + 1.0) / (total_tokens + 1.0)
                s += max(0.0, math.log(1.0 + tf / (mu * p_c))
                         + math.log(mu / (dl + mu)))
            elif similarity == "lmjm":
                p_c = (ttf[q] + 1.0) / (total_tokens + 1.0)
                s += math.log(1.0 + ((1.0 - lam) * tf / dl) / (lam * p_c))
            elif similarity == "classic":
                idf = 1.0 + math.log((n_docs + 1.0) / (df[q] + 1.0))
                s += math.sqrt(tf) * (idf * idf) / math.sqrt(dl)
            elif similarity == "boolean":
                s += 1.0
        if matched:
            scores[int(ids[i])] = s
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return [d for d, _ in ranked], [sc for _, sc in ranked]


@pytest.mark.parametrize("similarity", ["lmd", "lmjm", "classic", "boolean"])
def test_search_similarity_vs_bruteforce(docs_and_searcher, similarity):
    t, s = docs_and_searcher
    terms = ["merge", "scan"]
    exp_d, exp_sc = _similarity_reference(t, similarity, terms, k=10)
    got_d, got_sc = s.search_similarity(terms, k=10, similarity=similarity)
    assert list(got_d) == exp_d, similarity
    np.testing.assert_allclose(got_sc, exp_sc, rtol=1e-12, atol=1e-12)


def test_search_similarity_duplicate_terms_multiply(docs_and_searcher):
    _, s = docs_and_searcher
    d1, sc1 = s.search_similarity(["merge"], k=200, similarity="lmjm")
    d2, sc2 = s.search_similarity(["merge", "merge"], k=200,
                                  similarity="lmjm")
    assert list(d1) == list(d2)
    np.testing.assert_allclose(sc2, 2.0 * sc1, rtol=1e-12)


def test_search_similarity_unknown_raises(docs_and_searcher):
    _, s = docs_and_searcher
    with pytest.raises(ValueError):
        s.search_similarity(["merge"], similarity="nope")


# -- intervals query (positions, unordered max_gaps) --------------------------

def _intervals_reference(t, t1, t2, max_gaps, ordered):
    out = []
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = tokenize_simple(txt or "")
        p1 = [i for i, x in enumerate(toks) if x == t1]
        p2 = [i for i, x in enumerate(toks) if x == t2]
        hit = False
        for a in p1:
            for b in p2:
                gap = (b - a - 1) if ordered else (abs(b - a) - 1)
                if (not ordered or b > a) and gap <= max_gaps:
                    hit = True
        if hit:
            out.append(did)
    return sorted(out)


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("gaps", [0, 1, 3])
def test_intervals_match_vs_bruteforce(docs_and_searcher, ordered, gaps):
    t, s = docs_and_searcher
    got = s.intervals_match("merge", "scan", max_gaps=gaps, ordered=ordered)
    exp = _intervals_reference(t, "merge", "scan", gaps, ordered)
    assert list(got) == exp, (ordered, gaps)


def test_intervals_match_absent_term(docs_and_searcher):
    _, s = docs_and_searcher
    assert s.intervals_match("merge", "zzzznotaterm").size == 0


# -- match_bool_prefix --------------------------------------------------------

def test_match_bool_prefix_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    terms, prefix = ["merge"], "sca"
    bool_ref = dict(_bool_reference(t, s.params, [], terms, [], k=10**9))
    ids = t["doc_id"].to_pylist()
    prefix_docs = {did for did, txt in zip(ids, t["text"].to_pylist())
                   if any(tok.startswith(prefix)
                          for tok in tokenize_simple(txt or ""))}
    exp = sorted(((did, bool_ref.get(did, 0)
                   + (1_000_000 if did in prefix_docs else 0))
                  for did in set(bool_ref) | prefix_docs),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    d, m = s.match_bool_prefix(terms, prefix, k=10)
    assert list(zip(d.tolist(), m.tolist())) == exp


def test_match_bool_prefix_prefix_only(docs_and_searcher):
    """No full terms: pure constant-score prefix query — every match at
    exactly 1e6 micro, tie-broken by docid."""
    t, s = docs_and_searcher
    d, m = s.match_bool_prefix([], "sca", k=5)
    assert set(m.tolist()) <= {1_000_000}
    assert list(d) == sorted(d)


# -- round-5 edge guards ------------------------------------------------------

@pytest.fixture(scope="module")
def edge_searcher(ray_session, tmp_path_factory):
    """Tiny index exercising the degenerate-input guards: a constant
    paired difference (t_test var=0), an all-null timestamp field, and a
    high-cardinality de-dup field."""
    import pyarrow as pa

    from search_ingest_ray.index.build import build_index
    tmp_path = tmp_path_factory.mktemp("edge")
    n = 40
    t = pa.table({
        "url": [f"u{i}" for i in range(n)],
        "text": ["alpha beta"] * n,
        "a": pa.array([i + 7 for i in range(n)], pa.int64()),
        "b": pa.array(list(range(n)), pa.int64()),
        "ts_null": pa.array([None] * n, pa.int64()),
        "uniq": pa.array([f"v{i:03d}" for i in range(n)], pa.string()),
    })
    pq.write_table(t, str(tmp_path / "docs.parquet"))
    root = str(tmp_path / "idx")
    build_index([str(tmp_path / "docs.parquet")], root, analyzer="simple",
                num_term_partitions=2,
                store_fields=["a", "b", "ts_null", "uniq"])
    return t, Searcher(root)


def test_t_test_zero_variance_yields_null(edge_searcher):
    """All paired differences equal → var=0 → the oracle's double
    division by zero NULL-propagates; the engine must return None, not
    raise ZeroDivisionError."""
    _, s = edge_searcher
    out = s.t_test(["alpha"], "a", "b").to_pylist()[0]
    assert out["n"] == 40 and out["sum_d"] == 40 * 7
    assert out["t_micro"] is None


def test_auto_date_histogram_all_null_field(edge_searcher):
    """Non-empty match set whose field values are ALL null: null-drop
    leaves zero samples — return the empty table like the empty-match
    branch, not min() of an empty array."""
    _, s = edge_searcher
    out = s.agg_auto_date_histogram(["alpha"], "ts_null", target=10)
    assert out.num_rows == 0
    assert out.column_names == ["interval_us", "bucket", "n"]


def test_pinned_counts_against_size(edge_searcher):
    """ES pinned semantics: pinned hits count against k — total <= k
    even when the pin list alone exceeds k."""
    t, s = edge_searcher
    ids = t["doc_id"].to_pylist() if "doc_id" in t.column_names else None
    organic, _ = s.search_terms(["alpha"], k=5)
    organic = [int(x) for x in organic]
    pins = organic[:3][::-1]
    out = s.pinned(["alpha"], pins, k=5)
    assert out.num_rows == 5
    assert out["doc_id"].to_pylist()[:3] == pins
    assert out["pinned"].to_pylist() == [True] * 3 + [False] * 2
    # pin list longer than k → truncated to k, all pinned
    big = s.pinned(["alpha"], organic[:5][::-1] + [10 ** 12], k=3)
    assert big.num_rows == 3
    assert big["pinned"].to_pylist() == [True] * 3
    assert big["doc_id"].to_pylist() == organic[:5][::-1][:3]


def test_diversified_sampler_high_cardinality(edge_searcher):
    """Every doc has a distinct de-dup value: the vectorized cumcount
    must keep all of them (each value's first occurrence), in docid
    order, capped by shard_size."""
    t, s = edge_searcher
    out = s.diversified_sampler(["alpha"], "uniq", max_per=1,
                                shard_size=25)
    assert out.num_rows == 25
    ids = out["doc_id"].to_pylist()
    assert ids == sorted(ids)
    assert len(set(out["value"].to_pylist())) == 25


# -- round-5 pipeline/metric aggs --------------------------------------------

def test_weighted_avg_filter_vs_bruteforce(wide_searcher):
    t, s = wide_searcher
    pairs = [(v, d) for txt, v, d in zip(t["text"].to_pylist(),
                                         t["n_chars"].to_pylist(),
                                         t["doc_id"].to_pylist())
             if any(x in set(tokenize_simple(txt or ""))
                    for x in ("merge", "scan"))
             and v is not None and d is not None]
    out = s.agg_weighted_avg(["merge", "scan"],
                             "n_chars", "doc_id").to_pylist()[0]
    sum_w = sum(w for _, w in pairs)
    assert out["n"] == len(pairs) and out["sum_w"] == sum_w
    assert out["wavg_micro"] == \
        sum(v * w for v, w in pairs) * 1_000_000 // sum_w
    empty = s.agg_weighted_avg(["zzznosuch"], "n_chars",
                               "doc_id").to_pylist()[0]
    assert empty["n"] == 0 and empty["wavg_micro"] is None


def test_geo_bounds_and_centroid_vs_bruteforce(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import (documents_geo_index,
                                                      geo_coords)
    s = Searcher(documents_geo_index(sf_dir))
    terms = ["merge", "scan"]
    docids = s._match_docids(terms)
    lat, lon = geo_coords(docids)
    b = s.agg_geo_bounds(terms, "geo").to_pylist()[0]
    assert b["n"] == docids.size
    assert (b["top_left_lat"], b["top_left_lon"]) == (lat.max(), lon.min())
    assert (b["bottom_right_lat"], b["bottom_right_lon"]) == \
        (lat.min(), lon.max())
    c = s.agg_geo_centroid(terms, "geo").to_pylist()[0]
    lat_mil = np.floor(lat * 1000.0 + 0.5).astype(np.int64)
    lon_mil = np.floor(lon * 1000.0 + 0.5).astype(np.int64)

    def tdiv(a, b_):
        q = abs(a) // abs(b_)
        return -q if (a < 0) != (b_ < 0) else q

    assert c["n"] == docids.size
    assert c["lat_micro"] == tdiv(int(lat_mil.sum()) * 1000, docids.size)
    assert c["lon_micro"] == tdiv(int(lon_mil.sum()) * 1000, docids.size)
    # empty match set → NULL corners / centroid
    eb = s.agg_geo_bounds(["zzznosuch"], "geo").to_pylist()[0]
    ec = s.agg_geo_centroid(["zzznosuch"], "geo").to_pylist()[0]
    assert eb["n"] == 0 and eb["top_left_lat"] is None
    assert ec["n"] == 0 and ec["lat_micro"] is None


@pytest.fixture(scope="module")
def pipeline_searcher(ray_session, tmp_path_factory):
    """Tiny two-event-stream index for the pipeline aggs: hour buckets
    with known purchase/click counts and repeating user ids."""
    import pyarrow as pa

    from search_ingest_ray.index.build import build_index
    tmp_path = tmp_path_factory.mktemp("pipeagg")
    HOUR = 3_600_000_000
    rows = []   # (event_type, hour_idx, user)
    #   hour0: 3 purchases (users 1,1,2), 1 click
    #   hour1: 1 purchase (user 2), 0 clicks
    #   hour2: 0 purchases, 4 clicks
    #   hour3: 2 purchases (users 3,1), 2 clicks
    rows += [("purchase", 0, 1), ("purchase", 0, 1), ("purchase", 0, 2),
             ("click", 0, 9), ("purchase", 1, 2), ("click", 2, 9),
             ("click", 2, 9), ("click", 2, 9), ("click", 2, 9),
             ("purchase", 3, 3), ("purchase", 3, 1), ("click", 3, 9),
             ("click", 3, 9)]
    t = pa.table({
        "url": [f"e{i}" for i in range(len(rows))],
        "text": [r[0] for r in rows],
        "ts_us": pa.array([r[1] * HOUR + 17 for r in rows], pa.int64()),
        "user": pa.array([r[2] for r in rows], pa.int64()),
    })
    pq.write_table(t, str(tmp_path / "ev.parquet"))
    root = str(tmp_path / "idx")
    build_index([str(tmp_path / "ev.parquet")], root, analyzer="simple",
                num_term_partitions=2, store_fields=["ts_us", "user"])
    return Searcher(root), HOUR


def test_stats_bucket_and_normalize(pipeline_searcher):
    s, HOUR = pipeline_searcher
    # purchase histogram: h0=3, h1=1, h3=2
    sb = s.agg_stats_bucket(["purchase"], "ts_us", HOUR).to_pylist()[0]
    assert sb == {"n_buckets": 3, "min_n": 1, "max_n": 3, "sum_n": 6,
                  "avg_micro": 2_000_000}
    nm = s.agg_normalize(["purchase"], "ts_us", HOUR)
    assert nm["n"].to_pylist() == [3, 1, 2]
    assert nm["norm_micro"].to_pylist() == [1_000_000, 0, 500_000]
    # single-bucket histogram → NULL rescale
    one = s.agg_normalize(["zzznosuch"], "ts_us", HOUR)
    assert one.num_rows == 0
    sb0 = s.agg_stats_bucket(["zzznosuch"], "ts_us", HOUR).to_pylist()[0]
    assert sb0["n_buckets"] == 0 and sb0["avg_micro"] is None


def test_bucket_script_ratio(pipeline_searcher):
    s, HOUR = pipeline_searcher
    out = s.agg_bucket_script(["purchase"], ["click"], "ts_us", HOUR)
    got = list(zip(out["n_a"].to_pylist(), out["n_b"].to_pylist(),
                   out["ratio_micro"].to_pylist()))
    # h0: 3/1, h1: 1/0 → NULL, h2: 0/4, h3: 2/2
    assert got == [(3, 1, 3_000_000), (1, 0, None), (0, 4, 0),
                   (2, 2, 1_000_000)]
    buckets = out["bucket"].cast("int64").to_pylist()
    assert buckets == [i * HOUR for i in range(4)]


def test_cumulative_cardinality(pipeline_searcher):
    s, HOUR = pipeline_searcher
    out = s.agg_cumulative_cardinality(["purchase"], "ts_us", "user", HOUR)
    # purchase users: h0 {1,2} → 2, h1 {2} → 2, h3 {3,1} → 3
    assert out["n"].to_pylist() == [3, 1, 2]
    assert out["cum_card"].to_pylist() == [2, 2, 3]
    assert out["bucket"].cast("int64").to_pylist() == \
        [0, HOUR, 3 * HOUR]
    empty = s.agg_cumulative_cardinality(["zzz"], "ts_us", "user", HOUR)
    assert empty.num_rows == 0


def test_cumcount_property_vs_counter():
    from collections import Counter as _Counter

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from search_ingest_ray.query.searcher import _cumcount

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-2, max_value=8), max_size=200))
    def check(vals):
        arr = np.asarray(vals, dtype=np.int64)
        got = _cumcount(arr)
        seen: _Counter = _Counter()
        want = []
        for v in vals:
            want.append(seen[v])
            seen[v] += 1
        assert got.tolist() == want

    check()


# -- span_not -----------------------------------------------------------------

def _span_not_ref(t, include, exclude, pre, post):
    out = []
    for did, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = tokenize_simple(txt or "")
        p1 = [i for i, x in enumerate(toks) if x == include]
        p2 = [i for i, x in enumerate(toks) if x == exclude]
        if any(all(not (p - pre <= q <= p + post) for q in p2) for p in p1):
            out.append(did)
    return sorted(out)


def test_span_not_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher
    for pre, post in ((0, 0), (2, 2), (0, 3), (5, 1)):
        got = s.span_not("merge", "scan", pre=pre, post=post)
        assert got.tolist() == _span_not_ref(t, "merge", "scan", pre, post), \
            (pre, post)
    # exclude term absent → all docs containing include
    all_inc = sorted({d for d, txt in zip(t["doc_id"].to_pylist(),
                                          t["text"].to_pylist())
                      if "merge" in tokenize_simple(txt or "")})
    assert s.span_not("merge", "zzznosuch").tolist() == all_inc
    # include absent → empty
    assert s.span_not("zzznosuch", "merge").size == 0


def test_geo_sort_vs_bruteforce(ray_session, sf_dir):
    import math

    from search_ingest_ray.pipelines.flagship import (documents_geo_index,
                                                      geo_coords)
    s = Searcher(documents_geo_index(sf_dir))
    terms = ["merge", "scan"]
    docids = s._match_docids(terms)
    lat, lon = geo_coords(docids)
    lat0, lon0 = 37.7749, -122.4194
    RAD = 0.017453292519943295

    def hav(la, lo):
        sdlat = math.sin((la - lat0) * RAD / 2.0)
        sdlon = math.sin((lo - lon0) * RAD / 2.0)
        cc = math.cos(lat0 * RAD) * math.cos(la * RAD)
        return 2.0 * 6371000.0 * math.asin(
            math.sqrt(min(sdlat * sdlat + cc * sdlon * sdlon, 1.0)))

    ref = sorted((hav(la, lo), int(d))
                 for d, la, lo in zip(docids, lat, lon))[:10]
    out = s.sort_by_geo_distance(terms, "geo", lat0, lon0, k=10)
    assert out["doc_id"].to_pylist() == [d for _, d in ref]
    assert out["dist_m"].to_pylist() == [math.floor(x) for x, _ in ref]
    assert out["rank"].to_pylist() == list(range(1, 11))
    assert s.sort_by_geo_distance(["zzznosuch"], "geo", lat0, lon0,
                                  k=10).num_rows == 0


def test_function_score_gauss_vs_bruteforce(wide_searcher):
    import math
    t, s = wide_searcher
    # independent micro-disjunction reference (shared helper) × gauss decay
    base = dict(_bool_reference(t, s.params, [], ["merge", "scan"], [],
                                k=10**9))
    chars = dict(zip(t["doc_id"].to_pylist(), t["n_chars"].to_pylist()))
    origin, scale = 300, 250
    sigma2 = (float(scale) * float(scale)) / (2.0 * math.log(2.0))
    exp = []
    for did, m in base.items():
        v = float(chars[did] if chars[did] is not None
                  else origin + 4 * scale)
        dv = v - float(origin)
        exp.append((did, math.floor(m * math.exp(-(dv * dv)
                                                 / (2.0 * sigma2)))))
    exp.sort(key=lambda kv: (-kv[1], kv[0]))
    out = s.function_score_gauss(["merge", "scan"], "n_chars",
                                 origin=origin, scale=scale, k=10)
    got = list(zip(out["doc_id"].to_pylist(),
                   out["score_micro"].to_pylist()))
    assert got == exp[:10]
    # decay=0.5 at |v-origin|==scale (within 1 micro of floor boundary)
    full = dict(exp)
    at_scale = [d for d in full if chars.get(d) is not None
                and abs(chars[d] - origin) == scale]
    for d in at_scale:
        assert abs(full[d] - base[d] // 2) <= 1


def test_percentiles_bucket_and_bucket_sort(pipeline_searcher):
    import math
    s, HOUR = pipeline_searcher
    # purchase histogram counts: [3, 1, 2] (h0, h1, h3)
    counts = sorted([3, 1, 2])
    out = s.agg_percentiles_bucket(["purchase"], "ts_us", HOUR,
                                   [50, 90, 99]).to_pylist()
    for row, p in zip(out, (50, 90, 99)):
        rank = max(math.ceil(p / 100 * len(counts)), 1)
        assert (row["pct"], row["value"]) == (p, counts[rank - 1])
    # empty histogram → NULLs
    e = s.agg_percentiles_bucket(["zzz"], "ts_us", HOUR, [50]).to_pylist()
    assert e[0]["value"] is None
    bs = s.agg_bucket_sort(["purchase"], "ts_us", HOUR, size=2)
    assert bs["n"].to_pylist() == [3, 2]
    assert bs["bucket"].cast("int64").to_pylist() == [0, 3 * HOUR]
    assert bs["rank"].to_pylist() == [1, 2]
    # ascending flavor with tie: click counts h0=1,h2=4,h3=2
    asc = s.agg_bucket_sort(["click"], "ts_us", HOUR, size=3,
                            ascending=True)
    assert asc["n"].to_pylist() == [1, 2, 4]


def test_date_range_agg(pipeline_searcher):
    s, HOUR = pipeline_searcher
    # purchase ts: h0×3, h1×1, h3×2 (each at +17us past the hour)
    out = s.agg_date_range(["purchase"], "ts_us",
                           [HOUR, 3 * HOUR]).to_pylist()
    assert [(r["range_idx"], r["from_us"], r["to_us"], r["n"])
            for r in out] == [
        (0, None, HOUR, 3),            # (-inf, h1): the 3 h0 events
        (1, HOUR, 3 * HOUR, 1),        # [h1, h3): the h1 event
        (2, 3 * HOUR, None, 2),        # [h3, inf): the 2 h3 events
    ]
    # boundary: an event exactly AT an edge falls in the from-inclusive
    # range — h1's event is at HOUR+17, so probe the exact edge value
    exact = s.agg_date_range(["purchase"], "ts_us",
                             [17, 3 * HOUR + 17]).to_pylist()
    assert [r["n"] for r in exact] == [0, 4, 2]
    # empty match set → all ranges kept with n=0
    empty = s.agg_date_range(["zzz"], "ts_us", [HOUR]).to_pylist()
    assert [r["n"] for r in empty] == [0, 0]


def test_geohash_grid_vs_bruteforce(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import (documents_geo_index,
                                                      geo_coords)
    s = Searcher(documents_geo_index(sf_dir))
    terms = ["merge", "scan"]
    docids = s._match_docids(terms)
    lat, lon = geo_coords(docids)
    out = s.agg_geohash_grid(terms, "geo", precision=3)
    from collections import Counter as _C
    want: _C = _C()
    for la, lo in zip(lat, lon):
        lon_q = min(int(np.floor((lo + 180.0) / 360.0 * 256.0)), 255)
        lat_q = min(int(np.floor((la + 90.0) / 180.0 * 128.0)), 127)
        cell = 0
        for i in range(15):
            if i % 2 == 0:
                bit = (lon_q >> (7 - i // 2)) & 1
            else:
                bit = (lat_q >> (6 - i // 2)) & 1
            cell = (cell << 1) | bit
        want[cell] += 1
    got = dict(zip(out["cell"].to_pylist(), out["n"].to_pylist()))
    assert got == dict(want)
    assert sum(got.values()) == docids.size
    # the standard geohash STRING for a known point decodes to our cell:
    # geohash of (37.7749, -122.4194) at precision 3 is "9q8" =
    # [9, 22, 8] in base-32 (0-9, b-z skipping a,i,l,o)
    b32 = "0123456789bcdefghjkmnpqrstuvwxyz"
    ref_cell = 0
    for ch in "9q8":
        ref_cell = (ref_cell << 5) | b32.index(ch)
    lon_q = min(int(np.floor((-122.4194 + 180.0) / 360.0 * 256.0)), 255)
    lat_q = min(int(np.floor((37.7749 + 90.0) / 180.0 * 128.0)), 127)
    cell = 0
    for i in range(15):
        bit = ((lon_q >> (7 - i // 2)) if i % 2 == 0
               else (lat_q >> (6 - i // 2))) & 1
        cell = (cell << 1) | bit
    assert cell == ref_cell


def test_moving_percentile(pipeline_searcher):
    s, HOUR = pipeline_searcher
    # purchase counts by bucket: [3, 1, 2] (h0, h1, h3)
    out = s.agg_moving_percentile(["purchase"], "ts_us", HOUR,
                                  window=3, pct=50).to_pylist()
    # frames: h0 → [] → NULL; h1 → [3] → 3; h3 → [3,1] → p50 of
    # sorted [1,3] at rank ceil(0.5*2)=1 → 1
    assert [r["pctl"] for r in out] == [None, 3, 1]
    assert [r["n"] for r in out] == [3, 1, 2]


def test_ip_prefix_vs_bruteforce(ray_session, sf_dir):
    from search_ingest_ray.pipelines.flagship import documents_geo_index
    s = Searcher(documents_geo_index(sf_dir))
    terms = ["merge", "scan"]
    docids = s._match_docids(terms)
    from collections import Counter as _C
    want: _C = _C()
    for i in docids.tolist():
        want[(10 << 24) | (((i * 7) % 256) << 16)] += 1
    out = s.agg_ip_prefix(terms, "ip", prefix_len=16)
    got = dict(zip(out["prefix"].to_pylist(), out["n"].to_pylist()))
    assert got == dict(want)
    # /8: every synthetic ip collapses into 10.0.0.0/8
    one = s.agg_ip_prefix(terms, "ip", prefix_len=8)
    assert one["prefix"].to_pylist() == [10 << 24]
    assert one["n"].to_pylist() == [docids.size]


def test_span_within_vs_bruteforce(docs_and_searcher):
    t, s = docs_and_searcher

    def ref(little, a, b, slop):
        out = []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            toks = tokenize_simple(txt or "")
            pc_ = [i for i, x in enumerate(toks) if x == little]
            pa_ = [i for i, x in enumerate(toks) if x == a]
            pb_ = [i for i, x in enumerate(toks) if x == b]
            if any(ap <= c <= bp and bp - ap - 1 <= slop
                   for c in pc_ for ap in pa_ for bp in pb_):
                out.append(did)
        return sorted(out)

    for slop in (0, 2, 4, 10):
        got = s.span_within("window", "merge", "scan", slop=slop)
        assert got.tolist() == ref("window", "merge", "scan", slop), slop
    # absent term → empty
    assert s.span_within("zzznosuch", "merge", "scan").size == 0
    assert s.span_within("window", "zzznosuch", "scan").size == 0


def test_rate_agg(pipeline_searcher):
    s, HOUR = pipeline_searcher
    out = s.agg_rate(["purchase"], "ts_us", HOUR, 60_000_000).to_pylist()
    # counts [3,1,2] → per-minute micro = n * 1e6 // 60
    assert [r["rate_micro"] for r in out] == [
        3 * 60_000_000 * 1_000_000 // HOUR,
        1 * 60_000_000 * 1_000_000 // HOUR,
        2 * 60_000_000 * 1_000_000 // HOUR]
