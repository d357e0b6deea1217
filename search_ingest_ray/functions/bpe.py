"""Distributed BPE (byte-pair-encoding) vocabulary training + encoding.

The subword-vocab half of a training-data pipeline (Sennrich et al. 2016,
"Neural Machine Translation of Rare Words with Subword Units"): learn a
merge table from corpus statistics, then encode every document with it.

Scale shape — the only full-corpus passes are embarrassingly parallel:

1. ``word_counts``: tokenize + count per batch (partial combine), ONE
   small groupby-sum over distinct words — the classic trick that makes
   BPE tractable is that training operates on the WORD VOCABULARY
   (Heaps'-law sublinear in corpus size), never the corpus itself.
2. ``pair_counts``: fully vectorized over the Arrow string buffer — all
   words' bytes as one uint8 array, pair codes ``left·256+right`` via a
   shifted add, per-batch ``np.bincount`` partials (≤ 65 536 bins), one
   tiny groupby-sum.  This is the SQL-oracle-able anchor of the family.
3. ``train_bpe``: caps the vocabulary to the top-K words by count
   (distributed sort+limit; the tail it drops is mass-negligible by
   construction and the cap is the documented contract, like
   similarity.ivf_fit's training sample) and runs the EXACT classic
   merge loop driver-side with incremental pair bookkeeping —
   O(merges × affected words), not O(merges × vocab).
4. ``BPEEncodeStage``: task-based apply; per-process word→encoding
   cache (Zipf makes the hit rate extreme), merges applied in rank order.

Determinism: ties in the merge argmax break on (−count, pair) — the
lexicographically smallest pair wins — so the merge table is a pure
function of the corpus, stable across runs/shards/resumes.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analyzer import tokenize_simple, tokenize_simple_batch


def _word_count_batch(batch: pa.Table, *, text_col: str) -> pa.Table:
    """Per-batch partial word counts (the pre-aggregate combiner)."""
    toks, _ = tokenize_simple_batch(batch[text_col])
    vc = pc.value_counts(toks)
    return pa.table({"word": vc.field("values"), "c": vc.field("counts")})


def word_counts(ds, *, text_col: str = "text"):
    """Corpus word-frequency table: (word, c).  Partial counts inside
    ``map_batches`` shrink the exchange to distinct-words-per-batch; the
    groupby-sum shuffles only that."""
    parts = ds.map_batches(_word_count_batch, batch_format="pyarrow",
                           fn_kwargs={"text_col": text_col})
    out = parts.groupby("word").sum("c")
    return out.map_batches(
        lambda t: pa.table({"word": t["word"],
                            "c": t["sum(c)"]}), batch_format="pyarrow")


def _pair_count_batch(batch: pa.Table, *, word_col: str,
                      count_col: str) -> pa.Table:
    """Adjacent-character pair counts for a batch of (word, count) rows,
    weighted by count — zero-copy over the Arrow string buffer, one
    bincount, no per-word Python."""
    w = batch[word_col].combine_chunks()
    if isinstance(w, pa.ChunkedArray):
        w = w.combine_chunks()
    c = batch[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(w) == 0:
        return pa.table({"pair_code": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    off = np.frombuffer(w.buffers()[1], dtype=np.int32,
                        count=len(w) + 1,
                        offset=w.offset * 4)
    lens = np.diff(off)
    npairs = np.maximum(lens - 1, 0)
    total = int(npairs.sum())
    if total == 0:
        return pa.table({"pair_code": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    data = np.frombuffer(w.buffers()[2], dtype=np.uint8)
    # absolute byte index of each pair's LEFT char: per-word arange
    starts = np.repeat(off[:-1], npairs)
    within = (np.arange(total, dtype=np.int64)
              - np.repeat(np.cumsum(npairs) - npairs, npairs))
    li = starts + within
    codes = data[li].astype(np.int64) * 256 + data[li + 1]
    weights = np.repeat(c, npairs)
    agg = np.bincount(codes, weights=weights, minlength=1 << 16)
    nz = np.flatnonzero(agg)
    return pa.table({"pair_code": pa.array(nz, pa.int64()),
                     "n": pa.array(agg[nz].astype(np.int64), pa.int64())})


def pair_counts(ds, *, text_col: str = "text"):
    """Corpus-wide adjacent-character pair frequencies (the statistics
    the FIRST BPE merge maximizes): (left, right, n) — exactly what SQL
    derives with substr over the word-count table, hence the oracle
    anchor for the whole family."""
    wc = word_counts(ds, text_col=text_col)
    parts = wc.map_batches(_pair_count_batch, batch_format="pyarrow",
                           fn_kwargs={"word_col": "word",
                                      "count_col": "c"})
    agg = parts.groupby("pair_code").sum("n")

    def _split(t: pa.Table) -> pa.Table:
        code = t["pair_code"].to_numpy(zero_copy_only=False)
        left = (code // 256).astype(np.uint8).tobytes()
        right = (code % 256).astype(np.uint8).tobytes()
        return pa.table({
            "left": pa.array([left[i:i + 1].decode("latin1")
                              for i in range(len(code))], pa.string()),
            "right": pa.array([right[i:i + 1].decode("latin1")
                               for i in range(len(code))], pa.string()),
            "n": t["sum(n)"],
        })

    return agg.map_batches(_split, batch_format="pyarrow")


def _merge_word(seq: tuple, a: str, b: str) -> tuple:
    """Left-to-right non-overlapping merge of (a, b) → a+b (the Sennrich
    convention: 'aaa' with merge (a,a) → ('aa', 'a'))."""
    out, i, n = [], 0, len(seq)
    ab = a + b
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(ab)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def bpe_merge_loop(words: list[str], counts, n_merges: int
                   ) -> list[tuple[str, str]]:
    """Exact classic BPE on a (word, count) vocabulary: repeatedly merge
    the most frequent adjacent symbol pair (ties → lexicographically
    smallest pair).  Incremental bookkeeping: each merge touches only the
    words that contain the merged pair (pair → word-id index), so the
    loop is O(n_merges × affected), not O(n_merges × vocab)."""
    from collections import Counter, defaultdict
    counts = [int(c) for c in counts]
    seqs: list[tuple] = [tuple(w) for w in words]
    pair_n: Counter = Counter()
    pair_words: dict = defaultdict(set)
    for wi, (seq, c) in enumerate(zip(seqs, counts)):
        for p in zip(seq, seq[1:]):
            pair_n[p] += c
            pair_words[p].add(wi)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        best = None
        for p, n in pair_n.items():
            if n <= 0:
                continue
            if best is None or (-n, p) < (-pair_n[best], best):
                best = p
        if best is None:
            break
        merges.append(best)
        a, b = best
        for wi in sorted(pair_words[best]):
            old = seqs[wi]
            c = counts[wi]
            new = _merge_word(old, a, b)
            if new == old:
                continue
            for p in zip(old, old[1:]):
                pair_n[p] -= c
                # stale word-index entries are pruned lazily below
            for p in zip(new, new[1:]):
                pair_n[p] += c
                pair_words[p].add(wi)
            seqs[wi] = new
        del pair_n[best]
        del pair_words[best]
    return merges


def train_bpe(ds, *, text_col: str = "text", n_merges: int = 100,
              top_words: int = 200_000) -> list[tuple[str, str]]:
    """Learn a BPE merge table from the corpus: distributed word counts,
    cap to the ``top_words`` most frequent words (deterministic order:
    count desc, word asc — a documented mass-coverage contract, the tail
    of a Zipf vocabulary contributes negligible pair mass), exact merge
    loop on the cap.  Returns merges in rank order."""
    wc = word_counts(ds, text_col=text_col)
    top = wc.sort(["c", "word"], descending=[True, False]) \
            .limit(top_words).take_all()
    return bpe_merge_loop([r["word"] for r in top],
                          [r["c"] for r in top], n_merges)


# word → encoding caches, one per merge table, kept per process: a Ray
# task worker is reused across tasks, so the Zipf head stays dict hits
_ENCODE_CACHES: dict[tuple, dict[str, tuple]] = {}
_ENCODE_CACHE_CAP = 1 << 20


class BPEEncodeStage:
    """map_batches stage: encode ``text_col`` with a trained merge table,
    emitting per-doc BPE token counts ``n_bpe``.

    Build it once on the driver (``BPEEncodeStage(merges)``) and pass the
    instance: Ray Data runs it as a task.  Encoding applies the
    LOWEST-RANK applicable merge repeatedly (the standard inference rule,
    equivalent to replaying training order); the per-process
    word→tokens cache of this merge table turns the Zipf head into dict
    hits."""

    def __init__(self, merges: list[tuple[str, str]],
                 text_col: str = "text", id_col: str = "doc_id"):
        self.merges = tuple(tuple(m) for m in merges)
        self.rank = {m: i for i, m in enumerate(self.merges)}
        self.text_col = text_col
        self.id_col = id_col

    def _encode(self, word: str) -> tuple:
        seq = tuple(word)
        rank = self.rank
        while len(seq) > 1:
            best = None
            for p in zip(seq, seq[1:]):
                r = rank.get(p, -1)
                if r >= 0 and (best is None or r < best):
                    best = r
            if best is None:
                break
            a, b = self.merges[best]
            seq = _merge_word(seq, a, b)
        return seq

    def __call__(self, batch: pa.Table) -> pa.Table:
        cache = _ENCODE_CACHES.setdefault(self.merges, {})
        n_out = []
        for txt in batch[self.text_col].to_pylist():
            n = 0
            for w in tokenize_simple(txt or ""):
                seq = cache.get(w)
                if seq is None:
                    if len(cache) >= _ENCODE_CACHE_CAP:
                        cache.clear()
                    seq = cache[w] = self._encode(w)
                n += len(seq)
            n_out.append(n)
        return pa.table({self.id_col: batch[self.id_col],
                         "n_bpe": pa.array(n_out, pa.int64())})
