"""Analyzer parity with the reference's analysis spec
(/root/reference/src/search-ingest/schemas.cr:61-77): standard tokenize →
lowercase → asciifolding with preserve_original."""

from search_ingest_ray.analyzer import (
    analyze_docs, ascii_fold, token_counts, tokenize_simple,
    tokenize_simple_batch, tokenize_standard,
)


def test_standard_lowercases():
    assert tokenize_standard("Foo BAR Baz") == ["foo", "bar", "baz"]


def test_standard_splits_on_punct_keeps_underscore_digits():
    assert tokenize_standard("foo-bar foo_bar 42!x") == ["foo", "bar", "foo_bar", "42", "x"]


def test_preserve_original_emits_both_forms():
    # asciifolding with preserve_original: folded AND original token emitted
    assert tokenize_standard("café") == ["cafe", "café"]
    assert tokenize_standard("straße") == ["strasse", "straße"]
    # pure-ASCII tokens emitted once
    assert tokenize_standard("cafe") == ["cafe"]


def test_ascii_fold_special_chars():
    assert ascii_fold("œuvre") == "oeuvre"
    assert ascii_fold("Ølsen") == "Olsen"
    assert ascii_fold("naïve") == "naive"
    assert ascii_fold("日本") == "日本"  # non-Latin passes through


def test_simple_is_sql_parity():
    # must equal duckdb regexp_extract_all(lower(x), '[a-z0-9]+')
    import duckdb
    s = "The Quick-Brown FOX_42 jumps; straße café"
    sql = duckdb.sql(
        "select regexp_extract_all(lower($$%s$$), '[a-z0-9]+')" % s
    ).fetchone()[0]
    assert tokenize_simple(s) == sql


def test_simple_tokenizers_agree_with_sql_on_every_code_point():
    """For every Unicode scalar value c, the scalar tokenizer, the batch
    kernel and DuckDB's regexp_extract_all(lower(x), '[a-z0-9]+') give the
    same tokens for 'a' + c + 'b' — one SQL query over 1,112,064 rows."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    cps = np.array([c for c in range(0x110000)
                    if not 0xD800 <= c <= 0xDFFF])
    texts = pa.array([f"a{chr(c)}b" for c in cps.tolist()], pa.string())
    con = duckdb.connect()
    con.register("docs", pa.table({"i": pa.array(np.arange(len(cps))),
                                   "text": texts}))
    sql = con.execute("SELECT regexp_extract_all(lower(text), '[a-z0-9]+')"
                      " AS toks FROM docs ORDER BY i").arrow()["toks"]
    sql = sql.combine_chunks()
    sql_counts = pc.list_value_length(sql).to_numpy()
    scalar = [tokenize_simple(t) for t in texts.to_pylist()]
    scalar_counts = np.array([len(x) for x in scalar])
    toks, counts = tokenize_simple_batch(texts)
    for name, got in (("scalar", scalar_counts), ("batch", counts)):
        bad = cps[got != sql_counts]
        assert bad.size == 0, (name, [hex(c) for c in bad[:10]])
    want = sql.flatten()
    assert toks.equals(want)
    assert pa.array([t for x in scalar for t in x], pa.string()).equals(want)


def test_token_counts():
    c = token_counts("a b a c a b")
    assert c == {"a": 3, "b": 2, "c": 1}


def test_analyze_docs_flat_arrays():
    terms, tfs, lens, idx = analyze_docs(["a b a", "café"])
    assert lens == [3, 2]  # café → 2 tokens (folded + original)
    by_doc = {}
    for t, f, i in zip(terms, tfs, idx):
        by_doc.setdefault(i, {})[t] = f
    assert by_doc[0] == {"a": 2, "b": 1}
    assert by_doc[1] == {"cafe": 1, "café": 1}


def test_analyze_docs_handles_none():
    terms, tfs, lens, idx = analyze_docs([None, "x"])
    assert lens == [0, 1]


# -- property tests: fast path vs a slow reference implementation -----------

from hypothesis import given, settings
from hypothesis import strategies as st

import re as _re
import unicodedata as _ud


def _slow_reference_tokenize(text):
    """Direct transcription of the analyzer spec (schemas.cr:61-77):
    per-token lowercase then asciifold with preserve_original."""
    out = []
    for m in _re.finditer(r"\w+", text, _re.UNICODE):
        tok = m.group().lower()
        folded = ascii_fold(tok)
        if folded != tok:
            out.append(folded)
        out.append(tok)
    return out


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_tokenize_standard_matches_slow_reference(text):
    assert tokenize_standard(text) == _slow_reference_tokenize(text)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="aåbçdéfüßñ 12._-!", max_size=100))
def test_fold_idempotent_and_ascii_closed(text):
    for tok in tokenize_standard(text):
        f = ascii_fold(tok)
        assert ascii_fold(f) == f  # folding is idempotent


def test_lowercase_after_tokenize_spec_order():
    # 'İ'.lower() introduces a combining mark; lowering the whole doc first
    # would re-split the token — the spec order is tokenize THEN lowercase
    assert tokenize_standard("İstanbul") == _slow_reference_tokenize("İstanbul")
    assert len(tokenize_standard("İstanbul")) == 2  # folded + original


def test_vectorized_emit_parity_with_per_doc_loop():
    """The Arrow-kernel emit path (utf8_lower + split_pattern_regex +
    hash group_by) must produce the exact multiset of (term, docid, tf,
    dl) rows as the per-document findall+Counter loop — including the
    full-vs-simple case-mapping divergence rows ('İ' → 'i̇' under python
    lower), which must route to the loop path."""
    import random
    import string
    from collections import Counter

    import pyarrow as pa

    from search_ingest_ray.analyzer import get_analyzer
    from search_ingest_ray.stages.analyze import PostingEmitter
    from search_ingest_ray.util import hash_ids

    rng = random.Random(11)
    texts = ["", None, "Hello WORLD_x9  foo", "ümlaut Straße İstanbul",
             "a_b c-d e.f", "ALL CAPS 123", "中文 mixed ascii",
             "x" * 5000, "  leading and trailing  ", "tab\tsep\nnewline"]
    for _ in range(400):
        n = rng.randint(0, 60)
        texts.append("".join(
            rng.choice(string.printable + "äöüßÉİλ中ΣK")
            for _ in range(n)))
    urls = [f"u{i}" for i in range(len(texts))]
    batch = pa.table({"url": pa.array(urls),
                      "text": pa.array(texts, pa.string())})
    dids = hash_ids(urls)
    for an in ("standard", "simple"):
        out = PostingEmitter("text", "url", False, an)(batch)
        analyze = get_analyzer(an)
        expect = []
        for i, t in enumerate(texts):
            toks = analyze(t) if t else []
            if not toks:
                continue
            for term, tf in Counter(toks).items():
                expect.append((term, dids[i], tf, len(toks)))
        got = sorted(zip(out["term"].to_pylist(), out["docid"].to_pylist(),
                         out["tf"].to_pylist(), out["dl"].to_pylist()))
        assert got == sorted(expect), an
