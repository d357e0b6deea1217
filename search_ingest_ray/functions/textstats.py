"""Text-signal operators of a training-data pipeline over the ``simple``
analyzer: token counts, quality ratios, Gopher rules, bigram repetition,
language ID, fingerprints, vocabulary / unigram-LM / hashed-linear scores,
percolation and TF-IDF keywords.

Every signal reads ONE token stream per batch — the flat token array and
per-doc counts of :func:`~..analyzer.tokenize_simple_batch` — and reduces
it with Arrow/numpy kernels: ``is_in``/``index_in`` lookups,
``dictionary_encode`` codes and per-doc sums over the counts, so no
per-document Python runs.  Outputs are exact integers or floor-micro
ratios, bit-identical to the DuckDB oracles in ``__ray_entry__.oracle_sql``
(which tokenize with the same ``regexp_extract_all(lower(text),
'[a-z0-9]+')``).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analyzer import tokenize_simple_batch

STOPWORDS = ("the", "and", "of", "a", "to", "in", "is", "it", "for", "on")

# Per-language function-word profiles for the language-ID heuristic
# (deterministic, no external models).  These are the standard most-frequent
# closed-class words of each language — NOT drawn from any test corpus.
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with", "was",
           "are", "this", "but", "not", "have"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "von", "zu",
           "den", "dem", "ein", "eine", "auf", "für"},
    "fr": {"le", "les", "et", "est", "pas", "pour", "dans", "que", "qui",
           "des", "une", "du", "au", "sur", "avec"},
    "es": {"el", "los", "las", "y", "es", "no", "por", "para", "con", "una",
           "del", "se", "lo", "como", "más"},
}
_LANGS = sorted(_LANG_PROFILES)                # tie-break order
_LANG_WORDS = sorted(set().union(*_LANG_PROFILES.values()))
_LANG_MEMBER = np.array([[w in _LANG_PROFILES[lang] for lang in _LANGS]
                         for w in _LANG_WORDS], dtype=np.int64)


# -- reductions over the token stream -----------------------------------------

def _np(arr) -> np.ndarray:
    return arr.to_numpy(zero_copy_only=False)


def _doc_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-doc sums of a per-token array: differences of one running sum at
    the doc boundaries (exact for int64; uint64 wraps mod 2^64)."""
    run = np.cumsum(values)
    run = np.concatenate([np.zeros(1, run.dtype), run])
    ends = np.cumsum(counts)
    return run[ends] - run[ends - counts]


def _micro(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``floor(num / max(denom, 1) · 1e6)`` in IEEE float64 — the same
    operations, in the same order, as the SQL oracles."""
    return np.floor(num / np.maximum(denom, 1) * 1e6).astype(np.int64)


def _doc_of(counts: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(counts.size), counts)


def _distinct_hits(codes: pa.Array, counts: np.ndarray):
    """(doc, code) of every distinct non-null lookup code per doc, e.g.
    the distinct stopwords each doc contains."""
    codes = _np(pc.fill_null(codes, -1)).astype(np.int64)
    hit = codes >= 0
    width = int(codes.max(initial=0)) + 1
    key = np.unique(_doc_of(counts)[hit] * width + codes[hit])
    return key // width, key % width


def _token_hashes(toks: pa.Array) -> np.ndarray:
    """uint64 md5-low64 (SQL ``md5_number_lower``) of every token, hashed
    once per DISTINCT token of the batch."""
    from .dedup import md5_low64  # not imported by the hash-free signals
    enc = pc.dictionary_encode(toks)
    return md5_low64(enc.dictionary)[_np(enc.indices)]


def stopword_micro(toks: pa.Array, counts: np.ndarray) -> np.ndarray:
    """Per-doc share of :data:`STOPWORDS` tokens, floor-micro."""
    stop = _np(pc.is_in(toks, value_set=pa.array(STOPWORDS)))
    return _micro(_doc_sums(stop, counts), counts)


def lang_pred(toks: pa.Array, counts: np.ndarray) -> pa.Array:
    """Per-doc language: the profile sharing the most DISTINCT words with
    the doc (ties → language code order), 'und' when none is shared."""
    doc, word = _distinct_hits(
        pc.index_in(toks, value_set=pa.array(_LANG_WORDS)), counts)
    scores = np.zeros((counts.size, len(_LANGS)), dtype=np.int64)
    np.add.at(scores, doc, _LANG_MEMBER[word])
    pick = np.where(scores.max(axis=1) > 0,
                    scores.argmax(axis=1) + 1, 0)
    return pa.array(["und", *_LANGS]).take(pa.array(pick))


def token_count_batch(batch: pa.Table, *, text_col: str = "text",
                      out_col: str = "n_tokens") -> pa.Table:
    """Token count per doc with the ``simple`` analyzer (SQL-parity:
    ``len(regexp_extract_all(lower(text), '[a-z0-9]+'))``)."""
    _, counts = tokenize_simple_batch(batch[text_col])
    return batch.append_column(out_col, pa.array(counts))


def quality_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Quality signals: text length, token count, stopword ratio, mean
    token length.  Ratios are emitted as integer micro-units
    (``floor(ratio * 1e6)``): float division + multiply + floor is
    bit-deterministic IEEE, so the DuckDB oracle reproduces the values
    exactly (decimal ROUND would diverge on half-way cases — Python/numpy
    round half-even, SQL rounds half away from zero)."""
    text = batch[text_col]
    toks, counts = tokenize_simple_batch(text)
    tok_len = _doc_sums(_np(pc.binary_length(toks)), counts)
    return (batch.append_column("text_len", pc.fill_null(
                pc.utf8_length(text), 0).cast(pa.int64()))
                 .append_column("n_tokens", pa.array(counts))
                 .append_column("stopword_ratio_micro",
                                pa.array(stopword_micro(toks, counts)))
                 .append_column("mean_token_len_micro",
                                pa.array(_micro(tok_len, counts))))


def langid_batch(batch: pa.Table, *, text_col: str = "text",
                 out_col: str = "lang_pred") -> pa.Table:
    """Language-ID stage: scores each doc against per-language
    frequent-word profiles (:func:`lang_pred`).  Heuristic (not a model) —
    suitable as a filter signal; the ``langid`` SQL oracle reads the same
    ``_LANG_PROFILES``."""
    return batch.append_column(
        out_col, lang_pred(*tokenize_simple_batch(batch[text_col])))


# Gopher rule 7's required words (Rae et al. 2021, table A1): a doc must
# contain at least 2 of these to pass.
GOPHER_REQUIRED = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_rules_batch(batch: pa.Table, *, text_col: str = "text",
                       min_words: int = 50, max_words: int = 100_000,
                       min_required: int = 2) -> pa.Table:
    """Full Gopher quality-rule signals (Rae et al. 2021 §A1.1) per doc,
    in exact integers / floor-micro ratios so the DuckDB oracle reproduces
    values bit-exactly:

    - ``n_words`` in [min_words, max_words]   (rule: word count 50..100k)
    - ``mean_word_len_micro`` in [3e6, 10e6]  (mean word length 3..10)
    - ``symbol_word_micro`` < 1e5             (#/ellipsis-to-word < 0.1)
    - ``bullet_line_micro`` < 9e5             (<90% lines bullet-started)
    - ``ellipsis_line_micro`` < 3e5           (<30% lines ellipsis-ended)
    - ``alpha_word_micro`` >= 8e5             (>=80% words have a letter)
    - ``n_required_hits`` >= 2                (>=2 of GOPHER_REQUIRED)

    ``pass_gopher`` is the conjunction (int64 0/1).  Words are the simple
    analyzer's tokens (SQL parity: ``regexp_extract_all(lower(text),
    '[a-z0-9]+')``); symbol/line stats come from the RAW text."""
    text = pc.fill_null(batch[text_col], "")
    toks, n_words = tokenize_simple_batch(text)
    mean_micro = _micro(_doc_sums(_np(pc.binary_length(toks)), n_words),
                        n_words)
    alpha_micro = _micro(_doc_sums(~_np(pc.ascii_is_decimal(toks)), n_words),
                         n_words)
    req_doc, _ = _distinct_hits(
        pc.index_in(toks, value_set=pa.array(GOPHER_REQUIRED)), n_words)
    req_hits = np.bincount(req_doc, minlength=n_words.size)
    syms = sum(_np(pc.count_substring(text, p)) for p in ("#", "...", "…"))
    sym_micro = _micro(syms, n_words)
    # lines are text.split("\n"): the first starts the text, every other
    # one follows a newline; the last ends the text, every other one
    # precedes a newline
    n_lines = _np(pc.count_substring(text, "\n")) + 1
    bullets = (_np(pc.match_substring_regex(text, r"^[-*•]"))
               + _np(pc.count_substring_regex(text, r"\n[-*•]")))
    ellipses = (_np(pc.match_substring_regex(text, r"(\.\.\.|…)$"))
                + _np(pc.count_substring_regex(text, r"(\.\.\.|…)\n")))
    bullet_micro = _micro(bullets, n_lines)
    ellipsis_micro = _micro(ellipses, n_lines)
    ok = ((n_words >= min_words) & (n_words <= max_words)
          & (mean_micro >= 3_000_000) & (mean_micro <= 10_000_000)
          & (sym_micro < 100_000) & (bullet_micro < 900_000)
          & (ellipsis_micro < 300_000) & (alpha_micro >= 800_000)
          & (req_hits >= min_required))
    return (batch.append_column("n_words", pa.array(n_words))
                 .append_column("mean_word_len_micro", pa.array(mean_micro))
                 .append_column("alpha_word_micro", pa.array(alpha_micro))
                 .append_column("n_required_hits", pa.array(req_hits))
                 .append_column("symbol_word_micro", pa.array(sym_micro))
                 .append_column("bullet_line_micro", pa.array(bullet_micro))
                 .append_column("ellipsis_line_micro", pa.array(ellipsis_micro))
                 .append_column("pass_gopher",
                                pa.array(ok.astype(np.int64))))


_FP_BASE = np.uint64(1099511628211)   # odd → invertible mod 2^64
_FP_SEED = np.uint64(14695981039346656037)


def fingerprint_batch(batch: pa.Table, *, text_col: str = "text",
                      out_col: str = "fingerprint") -> pa.Table:
    """Document fingerprint: 63-bit order-sensitive polynomial hash of the
    simple-analyzed token sequence — a whitespace/punct-insensitive
    exact-duplicate key.

    fp(doc) = seed + Σ_i h(tok_i) · B^i  (mod 2^64), masked to 63 bits,
    with h the md5-low64 token hash (SQL parity: ``md5_number_lower``) —
    reproducible by a pure-SQL DuckDB oracle via a recursive-CTE power
    table."""
    toks, counts = tokenize_simple_batch(batch[text_col])
    pows = np.full(max(int(counts.max(initial=0)), 1), _FP_BASE,
                   dtype=np.uint64)
    pows[0] = 1
    np.cumprod(pows, out=pows)  # wraps mod 2^64 by uint64 overflow
    pos = np.arange(len(toks)) - np.repeat(np.cumsum(counts) - counts, counts)
    fps = _FP_SEED + _doc_sums(_token_hashes(toks) * pows[pos], counts)
    return batch.append_column(
        out_col,
        pa.array((fps & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)))


def top_bigram_stats(toks: pa.Array,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n_bigrams, top_bigram_micro) over a token stream — the Gopher
    repetitiveness core, shared by :func:`repetition_batch` and the fused
    corpus-filter signal stage.  Bigrams are dense integer codes (token
    codes → pair codes, pairs straddling a doc boundary masked), so the
    per-(doc, bigram) count is one integer unique, never a string sort."""
    nbg = np.maximum(counts - 1, 0)
    top = np.zeros(counts.size, dtype=np.int64)
    doc = _doc_of(counts)
    same = doc[1:] == doc[:-1]
    if same.any():
        enc = pc.dictionary_encode(toks)
        tok = _np(enc.indices).astype(np.int64)
        pair = tok[:-1][same] * len(enc.dictionary) + tok[1:][same]
        # re-code the pairs densely so doc · n_pairs + pair fits in int64
        pair = _np(pc.dictionary_encode(pa.array(pair)).indices)
        width = int(pair.max()) + 1
        key, n = np.unique(doc[:-1][same] * width + pair, return_counts=True)
        np.maximum.at(top, key // width, n)
    return nbg, (top * 1_000_000) // np.maximum(nbg, 1)


def repetition_batch(batch: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Gopher-style repetitiveness signal: the fraction of a doc's token
    bigrams taken by its single most frequent bigram, as exact integer
    micro-units — ``top_bigram_micro = (max_count · 10⁶) // n_bigrams``
    (0 when the doc has < 2 tokens).  High values flag boilerplate /
    degenerate pages a training-data pipeline drops.  Appends
    (n_bigrams, top_bigram_micro); core in :func:`top_bigram_stats`."""
    nbg, micro = top_bigram_stats(*tokenize_simple_batch(batch[text_col]))
    return (batch.append_column("n_bigrams", pa.array(nbg))
                 .append_column("top_bigram_micro", pa.array(micro)))


def weighted_partial_batch(batch: pa.Table, *, group_col: str,
                           val_col: str, weight_col: str) -> pa.Table:
    """In-batch partial aggregation for a weighted average: collapse a
    batch to one row per group carrying (Σ weight, Σ value·weight) as
    exact int64 — the combiner half of the pre-aggregate-then-tiny-groupby
    pattern (the downstream ``groupby(group).sum`` shuffles one row per
    (block, group), never per doc)."""
    v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
    w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
    t = pa.table({group_col: batch[group_col],
                  "w_sum": pa.array(w, pa.int64()),
                  "wv_sum": pa.array(v * w, pa.int64())})
    return (t.group_by(group_col)
             .aggregate([("w_sum", "sum"), ("wv_sum", "sum")])
             .rename_columns([group_col, "w_sum", "wv_sum"]))


# -- out-of-vocabulary rate ----------------------------------------------------

def _vocab(ds, text_col: str, vocab_k: int) -> list[dict]:
    """The corpus's top-``vocab_k`` words by count (ties → word
    ascending): one per-batch partial word count, a groupby-sum over
    DISTINCT words only, then sort+limit."""
    from .bpe import word_counts
    return (word_counts(ds, text_col=text_col)
            .sort(["c", "word"], descending=[True, False])
            .limit(vocab_k).take_all())


def _oov_batch(batch: pa.Table, *, vocab: pa.Array, text_col: str,
               id_col: str) -> pa.Table:
    toks, nt = tokenize_simple_batch(batch[text_col])
    oov = ~_np(pc.is_in(toks, value_set=vocab))
    no = _doc_sums(oov, nt)
    ppm = np.where(nt > 0, no * 1_000_000 // np.maximum(nt, 1), 0)
    return pa.table({id_col: batch[id_col],
                     "n_tokens": pa.array(nt),
                     "n_oov": pa.array(no),
                     "oov_ppm": pa.array(ppm.astype(np.int64))})


def oov_rate(ds, *, text_col: str = "text", id_col: str = "doc_id",
             vocab_k: int = 10_000):
    """Rare-word-ratio quality signal (CCNet-style vocabulary coverage):
    per doc, the fraction of tokens OUTSIDE the corpus's top-``vocab_k``
    vocabulary by collection frequency (ties → term ascending), in exact
    integer ppm — ``n_oov · 1e6 // n_tokens``.

    Scale shape: one word-count pass (:func:`_vocab`), then a task-based
    map stage that carries the K-term vocabulary as an Arrow array in its
    ``fn_kwargs`` — no shuffle of the corpus itself, same pattern as
    decontaminate's eval-set probe.  Exactly SQL-oracled (integer
    arithmetic end to end)."""
    vocab = pa.array([r["word"] for r in _vocab(ds, text_col, vocab_k)],
                     pa.string())
    return ds.map_batches(_oov_batch, batch_format="pyarrow", batch_size=512,
                          fn_kwargs=dict(vocab=vocab, text_col=text_col,
                                         id_col=id_col))


# -- unigram-LM perplexity (CCNet-style quality filter) -------------------------

def _ppl_batch(batch: pa.Table, *, words: pa.Array, surp: np.ndarray,
               text_col: str, id_col: str) -> pa.Table:
    toks, nt = tokenize_simple_batch(batch[text_col])
    code = _np(pc.fill_null(pc.index_in(toks, value_set=words), -1))
    ssum = _doc_sums(surp[code], nt)
    ce = np.where(nt > 0, ssum // np.maximum(nt, 1), 0)
    return pa.table({id_col: batch[id_col],
                     "n_tokens": pa.array(nt),
                     "ce_micro": pa.array(ce.astype(np.int64))})


def unigram_ppl(ds, *, text_col: str = "text", id_col: str = "doc_id",
                vocab_k: int = 10_000):
    """CCNet-style language-model quality score (Wenzek et al. 2020 §3.3
    score documents by the perplexity of an LM trained on the target
    domain): per doc, the cross-entropy of its tokens under an
    add-one-smoothed UNIGRAM model of the corpus's top-``vocab_k``
    vocabulary (ties → term ascending), in exact integer micro-nats per
    token.

    Model: ``surprisal(tok) = ln(total + V + 1) − ln(c_tok + 1)`` with
    ``c_tok = 0`` for OOV tokens (``V`` = vocabulary size, ``total`` = Σ
    vocab counts).  Each token's surprisal is floored to integer
    micro-nats BEFORE the per-doc sum, so the arithmetic is
    association-order-free and a DuckDB oracle reproduces it bit-for-bit
    (a float sum over thousands of tokens would not); ``ce_micro`` is the
    integer mean ``Σ surprisal_micro // n_tokens`` (ppl = exp(ce)).

    Scale shape: identical to :func:`oov_rate` — one word-count pass,
    then the (term → surprisal_micro) arrays ride the scoring task's
    ``fn_kwargs``: a pure map stage with ZERO corpus shuffle."""
    top = _vocab(ds, text_col, vocab_k)
    words = pa.array([r["word"] for r in top], pa.string())
    c = np.array([r["c"] for r in top], dtype=np.int64)
    ln_norm = np.log(float(c.sum() + len(words) + 1))
    surp = np.floor((ln_norm - np.log(c + 1.0)) * 1e6).astype(np.int64)
    s_oov = int(np.floor(ln_norm * 1e6))  # ln(0 + 1) = 0
    # an OOV token's lookup code -1 reads the last entry, s_oov
    return ds.map_batches(_ppl_batch, batch_format="pyarrow", batch_size=512,
                          fn_kwargs=dict(words=words,
                                         surp=np.append(surp, s_oov),
                                         text_col=text_col, id_col=id_col))


# -- hashed linear quality classifier (fastText-style filter) ------------------

CLS_DIM = 4096          # hashed bag-of-words feature buckets
CLS_MIX = 2654435761    # Knuth multiplicative constant for the weight table


def _linear_batch(batch: pa.Table, *, weights: np.ndarray, text_col: str,
                  id_col: str) -> pa.Table:
    toks, nt = tokenize_simple_batch(batch[text_col])
    bucket = _token_hashes(toks) % np.uint64(CLS_DIM)
    ssum = _doc_sums(weights[bucket], nt)
    return pa.table({id_col: batch[id_col],
                     "n_tokens": pa.array(nt),
                     "score_milli": pa.array(ssum),
                     "keep": pa.array(ssum > 0)})


def hashed_linear_score(ds, *, text_col: str = "text",
                        id_col: str = "doc_id"):
    """fastText-style hashed bag-of-words linear classifier scoring — the
    quality-filter shape of GPT-3/LLaMA-class data pipelines (train a
    small linear model on curated-vs-crawl text, score every crawl doc,
    keep the positives).  Per doc:

        bucket(tok)  = md5_low64(tok) % CLS_DIM       (util.tok_hash_sql)
        w(bucket)    = (bucket * CLS_MIX) % 2001 − 1000   (milli-units)
        score_milli  = Σ_tokens w(bucket(tok))        (exact int64)
        keep         = score_milli > 0

    The weight table here is a deterministic function of the bucket index
    (no image/text models ship in this container), which keeps the DuckDB
    oracle pure-SQL and bit-exact; a TRAINED weight vector would flow
    through the identical plumbing — a numpy array built once on the
    driver and carried in the scoring task's ``fn_kwargs``.

    Scale shape: model + pure map stage, ZERO corpus shuffle at any size;
    each batch hashes its DISTINCT tokens in one vectorized md5 call, and
    scoring is a weight lookup + per-doc sums.  Emits one row per input
    doc (token-less docs score 0 / keep=False)."""
    weights = ((np.arange(CLS_DIM, dtype=np.int64) * CLS_MIX) % 2001
               - 1000).astype(np.int64)
    return ds.map_batches(_linear_batch, batch_format="pyarrow",
                          batch_size=512,
                          fn_kwargs=dict(weights=weights, text_col=text_col,
                                         id_col=id_col))


# -- percolation (reverse search) ----------------------------------------------

class PercolateStage:
    """ES ``percolate`` analog: a REGISTERED QUERY SET is matched against
    a document stream (reverse search — the alerting/routing primitive;
    ref: ES percolator field type).  Each registered query is
    ``(query_id, terms, min_match)``: a doc matches when at least
    ``min_match`` of the query's distinct terms occur in it.

    Scale shape: the query set is small; its vocabulary and membership
    matrix are built once on the driver and travel with this callable
    instance, which Ray Data runs as a task (like DecontamScorer's eval
    hashes) — matching is a pure map stage, ZERO shuffle at any corpus
    size.  Per batch, one ``index_in``
    maps tokens to the union vocabulary of all query terms, and the
    distinct (doc, term) hits times a (term × query) membership matrix
    give every doc's matched-term count per query — O(tokens + hits ·
    n_queries), independent of per-query term counts.  Emits one row per
    (doc, matching query)."""

    def __init__(self, queries: list[tuple], text_col: str = "text",
                 id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        vocab = list(dict.fromkeys(t for _, terms, _ in queries
                                   for t in terms))
        if len(vocab) > 512:
            raise ValueError("percolator vocabulary > 512 distinct terms; "
                             "shard the query set across stages")
        code = {t: i for i, t in enumerate(vocab)}
        self.vocab = pa.array(vocab, pa.string())
        self.member = np.zeros((len(vocab), len(queries)), dtype=np.int64)
        for qi, (_, terms, _) in enumerate(queries):
            self.member[[code[t] for t in terms], qi] = 1
        self.qids = np.array([q[0] for q in queries], dtype=np.int64)
        self.qmin = np.array([q[2] for q in queries], dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_simple_batch(batch[self.text_col])
        doc, term = _distinct_hits(pc.index_in(toks, value_set=self.vocab),
                                   counts)
        hits = np.zeros((counts.size, self.qids.size), dtype=np.int64)
        np.add.at(hits, doc, self.member[term])
        di, qi = np.nonzero(hits >= self.qmin)
        return pa.table({
            self.id_col: batch[self.id_col].take(pa.array(di))
                                           .cast(pa.int64()),
            "query_id": pa.array(self.qids[qi]),
            "n_matched": pa.array(hits[di, qi]),
        })


def percolate(ds, queries: list[tuple], *, text_col: str = "text",
              id_col: str = "doc_id"):
    """Match every doc against the registered query set — one row per
    (doc, query) hit with the matched-term count.  Pure map task."""
    return ds.map_batches(PercolateStage(queries, text_col, id_col),
                          batch_format="pyarrow", batch_size=512)


def compression_ratio_batch(batch: pa.Table, *, text_col: str = "text",
                            level: int = 6) -> pa.Table:
    """Per-doc zlib compression ratio in integer micro-units —
    ``len(compress(utf8)) · 1e6 // max(len(utf8), 1)`` — the
    compressibility quality signal from web-corpus filtering (highly
    repetitive/boilerplate pages compress far below prose; random noise
    compresses above it).  Deterministic for a fixed zlib level; the
    compressor is C-speed so the Python loop is I/O shaping only, not
    the bottleneck.  No SQL analog (zlib), so the driver entry is
    rows-only; the pytest asserts the discriminative ordering
    repetitive < prose < noise."""
    import zlib
    text = pc.fill_null(batch[text_col], "")
    n_bytes = _np(pc.binary_length(text)).astype(np.int64)
    packed = np.fromiter(
        (len(zlib.compress(raw, level))
         for raw in text.cast(pa.binary()).to_pylist()),
        dtype=np.int64, count=len(n_bytes))
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_bytes": pa.array(n_bytes),
        "compression_micro": pa.array(
            packed * 1_000_000 // np.maximum(n_bytes, 1)),
    })


class KeywordExtractor:
    """Per-doc top-k TF-IDF keyword extraction with a BROADCAST global-df
    side table — the canonical broadcast-join shape: the (term → df) map
    becomes an Arrow term array plus a numpy df array once, on the
    driver; the callable instance runs as a Ray Data task, so Ray ships
    it to the object store once per operator and documents stream
    through embarrassingly parallel.  Vocabulary is Heaps-sublinear in corpus size, and a 100-TB
    deployment would cap the broadcast at the top-M terms by df (rare
    terms are always keywords; treat df_min as 1) — the synthetic vocab
    fits whole.

    Scoring mirrors :meth:`Searcher.more_like_this`'s tf·idf micro units
    op-for-op — ``floor(tf · ln(1 + (N − df + 0.5)/(df + 0.5)) · 1e6)``
    — so the DuckDB oracle is bit-identical.  Emits
    (doc_id, rank, term, score_micro), rank 1..top by (−score, term)."""

    def __init__(self, df: dict, n_docs: int, top: int = 3,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.df_terms = pa.array(list(df), pa.string())
        # an unknown term's lookup code -1 reads the last entry, df 1
        self.df = np.append(np.fromiter(df.values(), np.int64, len(df)), 1)
        self.n = int(n_docs)
        self.top = top
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks, counts = tokenize_simple_batch(batch[self.text_col])
        enc = pc.dictionary_encode(toks)
        terms = enc.dictionary
        width = max(len(terms), 1)
        key, tf = np.unique(_doc_of(counts) * width + _np(enc.indices),
                            return_counts=True)
        doc, term = key // width, key % width
        df = self.df[_np(pc.fill_null(
            pc.index_in(terms, value_set=self.df_terms), -1))]
        # idf through libm math.log, once per distinct df value, so the
        # scores stay bit-identical to SQL ln
        dfs, inv = np.unique(df, return_inverse=True)
        idf = np.array([math.log(1 + (self.n - x + 0.5) / (x + 0.5))
                        for x in dfs.tolist()])[inv]
        score = np.floor(tf * idf[term] * 1_000_000).astype(np.int64)
        # rank within doc by (-score, term)
        term_rank = np.argsort(_np(pc.array_sort_indices(terms)))
        order = np.lexsort((term_rank[term], -score, doc))
        doc, term, score = doc[order], term[order], score[order]
        rank = np.arange(doc.size) - np.searchsorted(doc, doc)
        keep = rank < self.top
        return pa.table({
            "doc_id": batch[self.id_col].take(pa.array(doc[keep]))
                                        .cast(pa.int64()),
            "rank": pa.array(rank[keep] + 1),
            "term": terms.take(pa.array(term[keep])),
            "score_micro": pa.array(score[keep]),
        })
