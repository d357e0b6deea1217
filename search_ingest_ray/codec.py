"""Posting-list codec: LEB128 varints, vectorized in numpy.

This is the native replacement for the index encoding the reference delegates
to Elasticsearch/Lucene (the reference only *specifies* mappings —
/root/reference/src/search-ingest/schemas.cr:50-83 — and ships documents;
posting-list construction happens inside ES).  Per the north rule we build it
from scratch.  The one encoder is the segment builder
(``index.build.build_segment_group``): it delta-encodes each posting list's
docids in blocks of ``BLOCK`` postings through
:func:`encode_varint_with_lengths` and records per-block skip metadata (last
docid, byte offsets, block-max BM25 score) for Block-Max WAND.  The searcher
decodes through :func:`decode_varint` and :func:`decode_positions`;
:func:`encode_varint` and :func:`encode_positions` are the reference encoders
those decoders are tested against.

All encode/decode paths are numpy-vectorized — no Python loop per posting.
"""

from __future__ import annotations

import numpy as np

BLOCK = 128  # postings per block (block-max granularity)

_SHIFTS = (np.arange(10, dtype=np.uint64) * np.uint64(7))
_THRESHOLDS = np.array([1 << (7 * k) for k in range(1, 10)], dtype=np.uint64)


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Exact encoded byte count per value: 1 + #thresholds passed.
    One searchsorted pass (binary search over the 9 thresholds) instead of
    nine full compare passes — ~9× less memory traffic."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    return 1 + np.searchsorted(_THRESHOLDS, v, side="right")


_ENC_CHUNK = 1 << 20  # values per encode slice (intermediates stay ~L2/L3)


def encode_varint_with_lengths(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-varint encode a uint64 array (vectorized); also returns the
    per-value byte lengths so callers can slice the stream at value
    boundaries (used by the batched segment builder).

    The scatter runs in ``_ENC_CHUNK``-value slices so the (value×bytelen)
    position/group intermediates never leave cache — whole-partition
    encodes used to stream several N-sized int64 temporaries through DRAM,
    which made concurrent segment builders memory-bandwidth-bound."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.empty(0, dtype=np.int64)
    nbytes = varint_lengths(v)
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    wpos = 0
    for lo in range(0, v.size, _ENC_CHUNK):
        hi = min(lo + _ENC_CHUNK, v.size)
        nb = nbytes[lo:hi]
        vv = v[lo:hi]
        kmax = int(nb.max())
        if kmax == 1:
            # single-byte fast path (tf streams are ~100% 1-byte): one cast
            n1 = hi - lo
            out[wpos:wpos + n1] = vv.astype(np.uint8)
            wpos += n1
            continue
        # dense (n, kmax) byte matrix + one boolean-mask compaction pass —
        # no per-length group selection, no int64 position scatter
        g = ((vv[:, None] >> _SHIFTS[None, :kmax])
             & np.uint64(0x7F)).astype(np.uint8)
        cols = np.arange(kmax, dtype=np.int64)[None, :]
        g |= (cols < (nb - 1)[:, None]).astype(np.uint8) << 7
        chunk = g[cols < nb[:, None]]
        out[wpos:wpos + chunk.size] = chunk
        wpos += chunk.size
    return out.tobytes(), nbytes


def encode_varint(values: np.ndarray) -> bytes:
    """LEB128-varint encode a uint64 array (vectorized)."""
    return encode_varint_with_lengths(values)[0]


def decode_varint(buf, count: int | None = None) -> np.ndarray:
    """Decode a LEB128-varint stream to uint64 (vectorized)."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    offsets = np.arange(b.size, dtype=np.int64) - np.repeat(starts, lengths)
    vals7 = (b & np.uint8(0x7F)).astype(np.uint64) << (offsets.astype(np.uint64) * np.uint64(7))
    out = np.add.reduceat(vals7, starts)
    if count is not None and out.size != count:
        raise ValueError(f"decoded {out.size} values, expected {count}")
    return out


def encode_positions(plists: list[np.ndarray]) -> bytes:
    """Encode per-posting position lists as one varint stream of
    within-posting deltas (first position absolute per posting) — the same
    layout the segment builder writes (build.py stage 2)."""
    if not plists:
        return b""
    counts = np.array([len(p) for p in plists], dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return b""
    flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in plists])
    firsts = np.concatenate([[0], np.cumsum(counts[:-1])])
    deltas = flat.copy()
    deltas[1:] -= flat[:-1]
    deltas[firsts] = flat[firsts]
    return encode_varint(deltas.astype(np.uint64))


def decode_positions(blob, tfs: np.ndarray) -> list[np.ndarray]:
    """Decode a position stream into one array per posting (counts are the
    term frequencies)."""
    counts = np.asarray(tfs, dtype=np.int64)
    total = int(counts.sum())
    deltas = decode_varint(blob, count=total)
    firsts = np.concatenate([[0], np.cumsum(counts[:-1])])
    c = np.cumsum(deltas.astype(np.int64))
    base = np.where(firsts > 0, c[firsts - 1], 0)
    flat = c - np.repeat(base, counts)
    bounds = np.concatenate([firsts, [total]])
    return [flat[bounds[i]:bounds[i + 1]] for i in range(len(counts))]
