"""Text analysis chain — the native implementation of the analyzer the
reference *specifies* but delegates to Elasticsearch.

Reference spec (/root/reference/src/search-ingest/schemas.cr:61-77): every
``text`` field is analyzed with the ``standard`` tokenizer followed by the
``lowercase`` filter and ``preserved_ascii_folding`` — ``asciifolding`` with
``preserve_original: true`` (each token whose folded form differs from the
original is emitted BOTH folded and original, at the same position).

Analyzers here are pure functions over strings.  Two registered analyzers:

- ``standard``: ES-parity chain.  Tokenization approximates Lucene's
  StandardTokenizer (UAX#29 word break) with a Unicode ``\\w+`` regex —
  letters/digits/underscore sequences form tokens, everything else splits.
  Then lowercase, then ASCII folding with preserve_original.
- ``simple``: lowercase + ASCII ``[a-z0-9]+`` tokenization.  Exactly
  expressible in DuckDB SQL (``regexp_extract_all(lower(x), '[a-z0-9]+')``),
  used for driver-verifiable oracle queries.

The ``simple`` analyzer has two forms that produce the same tokens:
:func:`tokenize_simple` is the per-string scalar reference (tests compare
against it, and per-doc consumers such as shingle hashing call it), and
:func:`tokenize_simple_batch` is the batch kernel every text signal reads —
one flat token array plus per-doc counts for a whole Arrow column, built
from Arrow C kernels.

Stateful wrappers for Ray map stages live in ``stages/analyze.py``; this
module is deliberately Ray-free so it can serve as the brute-force oracle.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Tokens: runs of Unicode word characters (letters, digits, underscore —
# underscore joins tokens under UAX#29 ExtendNumLet, matching Lucene).
_WORD_RE = re.compile(r"\w+", re.UNICODE)
_ASCII_WORD_RE = re.compile(r"[a-z0-9]+")

# Non-decomposable characters Lucene's ASCIIFoldingFilter maps explicitly
# (subset covering common Latin-script text; NFKD handles the rest).
_FOLD_MAP = {
    "ß": "ss", "ẞ": "SS",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    "ø": "o", "Ø": "O",
    "đ": "d", "Đ": "D",
    "ð": "d", "Ð": "D",
    "þ": "th", "Þ": "TH",
    "ł": "l", "Ł": "L",
    "ı": "i", "İ": "I",
    "ƒ": "f",
}
_FOLD_TRANS = str.maketrans(_FOLD_MAP)


def ascii_fold(token: str) -> str:
    """Fold a token to its ASCII form (Lucene asciifolding approximation).

    NFKD-decompose and drop combining marks, after applying the explicit map
    for characters with no decomposition (ß, ø, đ, þ, ...).  Characters that
    still aren't ASCII after folding are kept as-is (CJK etc. — Lucene also
    passes those through unchanged).
    """
    if token.isascii():
        return token
    t = token.translate(_FOLD_TRANS)
    decomposed = unicodedata.normalize("NFKD", t)
    folded = "".join(c for c in decomposed if not unicodedata.combining(c))
    return folded


_FOLD_CACHE: dict[str, str] = {}


def tokenize_standard(text: str) -> list[str]:
    """standard tokenizer + lowercase + asciifolding(preserve_original).

    Per the reference's analyzer spec: each token is lowercased; if ASCII
    folding changes it, BOTH the folded and the original (lowercased) form
    are emitted.  Order: folded form first (Lucene emits the folded token at
    the original position and the preserved original as a stacked token).

    Hot path: ASCII documents lowercase+tokenize in two C calls; non-ASCII
    documents tokenize FIRST and lowercase per token (lowercasing the whole
    document first would change tokenization for characters like 'İ', whose
    lowercase form introduces a combining mark that splits the token —
    Lucene's LowerCaseFilter runs after the tokenizer).  Folding runs only
    for non-ASCII tokens through a process-level memo.
    """
    if text.isascii():
        return _WORD_RE.findall(text.lower())
    toks = list(map(str.lower, _WORD_RE.findall(text)))
    if all(map(str.isascii, toks)):
        return toks
    out: list[str] = []
    cache = _FOLD_CACHE
    for tok in toks:
        if tok.isascii():
            out.append(tok)
            continue
        folded = cache.get(tok)
        if folded is None:
            if len(cache) > 1_000_000:
                cache.clear()
            folded = cache[tok] = ascii_fold(tok)
        if folded != tok:
            out.append(folded)
        out.append(tok)
    return out


def tokenize_simple(text: str) -> list[str]:
    """ASCII lowercase tokenizer; SQL-parity mode.

    Equivalent DuckDB SQL: ``regexp_extract_all(lower(text), '[a-z0-9]+')``.
    SQL ``lower`` is the simple one-to-one case mapping, while ``str.lower``
    is the full one: the two differ only on U+0130 'İ', which the full
    mapping turns into 'i' + U+0307 (a combining dot that splits the token),
    so 'İ' is mapped to 'i' first.
    """
    return _ASCII_WORD_RE.findall(text.replace("\u0130", "i").lower())


def tokenize_simple_batch(texts: pa.Array | pa.ChunkedArray
                          ) -> tuple[pa.Array, np.ndarray]:
    """Batch form of :func:`tokenize_simple` over a string column (nulls
    read as ''): every doc's tokens in doc order as ONE flat string array,
    plus the int64 token count of each doc.  ``utf8_lower`` is the same
    simple case mapping as SQL ``lower``, and splitting on the class
    complement (dropping the empty pieces) yields exactly the
    ``[a-z0-9]+`` runs."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    # a null row splits into a null list, which flatten skips
    lists = pc.split_pattern_regex(pc.utf8_lower(texts), "[^a-z0-9]+")
    pieces = lists.flatten()
    keep = pc.not_equal(pieces, "")
    doc = pc.list_parent_indices(lists).filter(keep).to_numpy()
    return pieces.filter(keep), np.bincount(doc, minlength=len(texts))


def tokenize_standard_positions(text: str) -> tuple[list[str], list[int]]:
    """``standard`` chain emitting TOKEN positions: a preserved original is
    stacked AT THE SAME POSITION as its folded form (Lucene posInc=0), so
    phrase matching over these positions has exact ES semantics — a folded
    query term is adjacent to the next source token even when an original
    was stacked between them in the emitted stream."""
    if text.isascii():
        toks = _WORD_RE.findall(text.lower())
        return toks, list(range(len(toks)))
    toks = list(map(str.lower, _WORD_RE.findall(text)))
    if all(map(str.isascii, toks)):
        return toks, list(range(len(toks)))
    out: list[str] = []
    pos: list[int] = []
    cache = _FOLD_CACHE
    for p, tok in enumerate(toks):
        if tok.isascii():
            out.append(tok)
            pos.append(p)
            continue
        folded = cache.get(tok)
        if folded is None:
            if len(cache) > 1_000_000:
                cache.clear()
            folded = cache[tok] = ascii_fold(tok)
        if folded != tok:
            out.append(folded)
            pos.append(p)
        out.append(tok)
        pos.append(p)
    return out, pos


def tokenize_simple_positions(text: str) -> tuple[list[str], list[int]]:
    toks = tokenize_simple(text)
    return toks, list(range(len(toks)))


ANALYZERS = {
    "standard": tokenize_standard,
    "simple": tokenize_simple,
}

POSITION_ANALYZERS = {
    "standard": tokenize_standard_positions,
    "simple": tokenize_simple_positions,
}


def get_analyzer(name: str):
    try:
        return ANALYZERS[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; known: {sorted(ANALYZERS)}") from None


def get_position_analyzer(name: str):
    """Variant returning ``(tokens, token_positions)`` with stacked
    originals at posInc=0 — used by positional index builds."""
    try:
        return POSITION_ANALYZERS[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; known: {sorted(POSITION_ANALYZERS)}") from None


def token_counts(text: str, analyzer: str = "standard") -> Counter:
    """Term-frequency map for one document."""
    return Counter(get_analyzer(analyzer)(text))


def analyze_docs(texts, analyzer: str = "standard"):
    """Analyze a batch of documents into flat posting arrays.

    Returns ``(terms, tfs, doc_lens, doc_index)`` where ``terms``/``tfs``/
    ``doc_index`` are parallel flat lists (one entry per distinct term per
    doc) and ``doc_lens[i]`` is the token count (with preserved originals
    counted, matching what the index's length norm sees) of ``texts[i]``.
    """
    fn = get_analyzer(analyzer)
    terms: list[str] = []
    tfs: list[int] = []
    doc_lens: list[int] = []
    doc_index: list[int] = []
    for i, text in enumerate(texts):
        toks = fn(text if text is not None else "")
        doc_lens.append(len(toks))
        c = Counter(toks)
        terms.extend(c.keys())
        tfs.extend(c.values())
        doc_index.extend([i] * len(c))
    return terms, tfs, doc_lens, doc_index
