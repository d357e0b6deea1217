"""Baseline-sequential JPEG codec in pure numpy (ITU-T T.81).

No libjpeg/PIL exists in this container, but baseline JPEG needs nothing
beyond bit twiddling + an 8x8 DCT, so the decode path here is REAL:

- ``decode_jpeg``: SOF0/SOF1 (baseline + extended-sequential Huffman),
  8-bit samples, grayscale or JFIF YCbCr with arbitrary h/v sampling
  factors (4:4:4 / 4:2:2 / 4:2:0 / ...), restart intervals, multi-table
  DQT/DHT segments.  Huffman tables are read from the file's own DHT
  markers (canonical reconstruction into a 16-bit peek LUT — the decoder
  never assumes the Annex K tables).  Entropy decode is a per-symbol
  Python loop (inherently sequential); everything after it — dequant,
  de-zigzag, IDCT, upsample, color convert — is batched numpy over all
  blocks at once.  Progressive (SOF2) decodes too: spectral selection,
  successive approximation (DC + AC first/refinement scans, EOB runs),
  interleaved DC and non-interleaved AC block rasters.  Arithmetic
  coding, 12-bit precision and CMYK raise ``NotImplementedError``
  (honest boundary).
- ``encode_jpeg``: baseline JFIF writer for fixtures/synthetic corpora —
  T.81 Annex K example quant (libjpeg quality scaling) + Huffman tables,
  4:4:4 or 4:2:0, optional restart intervals; ``progressive=True`` emits
  a 5-phase SOF2 scan script (DC Al=1 → per-component AC 1-63 Al=2 →
  AC refinements Al=1, Al=0 → DC refinement), which round-trips
  pixel-identically with the baseline path (same quantized
  coefficients, two entropy codings).

At 100-TB scale a real deployment would swap a native libjpeg decoder
in; the Ray-side plumbing (``multimodal.image_feature_batch``) is
identical either way — only this kernel changes.

Exactness anchor used by the SQL oracle (``q_jpeg_features``): at
quality=75 the scaled Annex-K luma q[0][0] is exactly 8, so a solid
grayscale value v quantizes to the exact integer v-128 and decodes back
to exactly v — every stage (DCT, quant, Huffman, stuffing, IDCT) must be
bit-correct for that identity to hold.
"""

from __future__ import annotations

import struct

import numpy as np

# -- shared tables -------------------------------------------------------------


def _make_zigzag() -> np.ndarray:
    """ZZ[k] = raster (row*8+col) position of the k-th zigzag coefficient."""
    idx = []
    for d in range(15):
        rng = (range(min(d, 7), max(0, d - 7) - 1, -1) if d % 2 == 0
               else range(max(0, d - 7), min(d, 7) + 1))
        for r in rng:
            idx.append(r * 8 + (d - r))
    return np.array(idx, dtype=np.int64)


ZZ = _make_zigzag()

_C = np.zeros((8, 8))
for _u in range(8):
    for _x in range(8):
        _C[_u, _x] = (np.sqrt(0.125) if _u == 0 else 0.5) * \
            np.cos((2 * _x + 1) * _u * np.pi / 16.0)

# T.81 Annex K example quantization tables (raster order).
_QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)
_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# T.81 Annex K example Huffman tables: (bits[1..16], values).
_DC_LUMA = ([0, 0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            list(range(12)))
_DC_CHROMA = ([0, 0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_AC_LUMA = ([0, 0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_CHROMA = ([0, 0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])


# -- Huffman machinery ---------------------------------------------------------


def _decode_lut(bits: list[int], values: list[int]):
    """Canonical Huffman → 16-bit peek LUT: sym[p], length[p] for every
    possible next-16-bit window p (length 0 = invalid code)."""
    sym = np.zeros(65536, dtype=np.uint8)
    ln = np.zeros(65536, dtype=np.uint8)
    code, k = 0, 0
    for l in range(1, 17):
        for _ in range(bits[l]):
            lo = code << (16 - l)
            sym[lo:lo + (1 << (16 - l))] = values[k]
            ln[lo:lo + (1 << (16 - l))] = l
            k += 1
            code += 1
        code <<= 1
    return sym, ln


def _encode_table(bits: list[int], values: list[int]) -> dict:
    codes, code, k = {}, 0, 0
    for l in range(1, 17):
        for _ in range(bits[l]):
            codes[values[k]] = (code, l)
            k += 1
            code += 1
        code <<= 1
    return codes


class _BitReader:
    """MSB-first bit reader with O(1) 16-bit peek via a precomputed
    4-byte-window array (entropy data is already unstuffed)."""

    __slots__ = ("win", "pos", "nbits")

    def __init__(self, data: bytes):
        arr = np.frombuffer(data + b"\x00\x00\x00\x00",
                            dtype=np.uint8).astype(np.uint32)
        self.win = ((arr[:-3] << 24) | (arr[1:-2] << 16)
                    | (arr[2:-1] << 8) | arr[3:])
        self.pos = 0
        self.nbits = 8 * len(data)

    def read_sym(self, sym: np.ndarray, ln: np.ndarray) -> int:
        byte, bit = divmod(self.pos, 8)
        p = (int(self.win[byte]) >> (16 - bit)) & 0xFFFF
        l = int(ln[p])
        if l == 0:
            raise ValueError("invalid JPEG huffman code")
        self.pos += l
        return int(sym[p])

    def receive(self, n: int) -> int:
        if n == 0:
            return 0
        byte, bit = divmod(self.pos, 8)
        v = (int(self.win[byte]) >> (32 - bit - n)) & ((1 << n) - 1)
        self.pos += n
        return v


def _extend(v: int, s: int) -> int:
    return v - (1 << s) + 1 if v < (1 << (s - 1)) else v


class _BitWriter:
    __slots__ = ("buf", "acc", "n")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.n += length
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.n -= 8
            self.buf.append(b)
            if b == 0xFF:          # byte stuffing
                self.buf.append(0)
        self.acc &= (1 << self.n) - 1

    def pad_to_byte(self) -> None:
        r = (8 - self.n % 8) % 8
        if r:
            self.write((1 << r) - 1, r)     # pad with 1-bits per spec


# -- decoder -------------------------------------------------------------------

_SOF_UNSUPPORTED = {
    0xC3: "lossless", 0xC5: "differential seq.",
    0xC6: "differential progressive", 0xC7: "differential lossless",
    0xC9: "arithmetic sequential", 0xCA: "arithmetic progressive",
    0xCB: "arithmetic lossless", 0xCD: "diff. arith. seq.",
    0xCE: "diff. arith. progressive", 0xCF: "diff. arith. lossless",
}


def _split_entropy(data: bytes, pos: int) -> tuple[list[bytes], int]:
    """Split entropy-coded bytes starting at ``pos`` into restart
    segments (unstuffing 0xFF00); returns (segments, position of the
    0xFF of the first non-RST marker — or len(data))."""
    segs: list[bytes] = []
    cur = bytearray()
    i = pos
    while i < len(data):
        j = data.find(b"\xff", i)
        if j < 0 or j + 1 >= len(data):
            cur += data[i:]
            i = len(data)
            break
        cur += data[i:j]
        nxt = data[j + 1]
        if nxt == 0x00:
            cur += b"\xff"
            i = j + 2
        elif 0xD0 <= nxt <= 0xD7:
            segs.append(bytes(cur))
            cur = bytearray()
            i = j + 2
        else:
            i = j
            break                               # EOI or next marker
    segs.append(bytes(cur))
    return segs, i


def decode_jpeg(data: bytes) -> np.ndarray:
    """Baseline (SOF0/1) or progressive (SOF2) JPEG → (h, w, 1|3) uint8."""
    if not data.startswith(b"\xff\xd8"):
        raise ValueError("not a JPEG")
    pos = 2
    qt: dict[int, np.ndarray] = {}
    huff_dc: dict[int, tuple] = {}
    huff_ac: dict[int, tuple] = {}
    restart_interval = 0
    progressive = False
    frame = None          # (h, w, comps) ; comps = [(cid, hi, vi, tq)]
    # scans: (scan_comps=[(ci, dc_lut|None, ac_lut|None)], Ss, Se, Ah, Al,
    #         segs, restart_interval_at_scan)
    scans: list[tuple] = []
    while pos + 2 <= len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"bad marker byte at {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        if pos + 2 > len(data):
            raise ValueError("truncated JPEG segment")
        seglen, = struct.unpack(">H", data[pos:pos + 2])
        body = data[pos + 2:pos + seglen]
        pos += seglen
        if marker == 0xDB:                     # DQT (possibly several)
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 15
                i += 1
                if pq == 0:
                    tbl = np.frombuffer(body, np.uint8, 64, i)
                    i += 64
                else:
                    tbl = np.frombuffer(body, ">u2", 64, i)
                    i += 128
                qt[tq] = tbl.astype(np.int64)          # zigzag order
        elif marker == 0xC4:                   # DHT (possibly several)
            i = 0
            while i < len(body):
                tc, th = body[i] >> 4, body[i] & 15
                i += 1
                bits = [0] + list(body[i:i + 16])
                i += 16
                nv = sum(bits)
                values = list(body[i:i + nv])
                i += nv
                (huff_dc if tc == 0 else huff_ac)[th] = \
                    _decode_lut(bits, values)
        elif marker in (0xC0, 0xC1, 0xC2):     # SOF0/SOF1/SOF2
            progressive = marker == 0xC2
            prec, h, w, nc = struct.unpack(">BHHB", body[:6])
            if prec != 8:
                raise NotImplementedError(f"JPEG precision {prec}")
            if nc not in (1, 3):
                raise NotImplementedError(f"JPEG with {nc} components")
            comps = []
            for c in range(nc):
                cid, hv, tq = body[6 + 3 * c:9 + 3 * c]
                comps.append((cid, hv >> 4, hv & 15, tq))
            frame = (h, w, comps)
        elif marker in _SOF_UNSUPPORTED:
            raise NotImplementedError(
                f"JPEG {_SOF_UNSUPPORTED[marker]} not supported")
        elif marker == 0xDD:                   # DRI
            restart_interval, = struct.unpack(">H", body[:2])
        elif marker == 0xDA:                   # SOS → entropy data follows
            if frame is None:
                raise ValueError("SOS before SOF")
            ns = body[0]
            cid_to_idx = {c[0]: i for i, c in enumerate(frame[2])}
            sc = []
            Ss, Se = body[1 + 2 * ns], body[2 + 2 * ns]
            ahal = body[3 + 2 * ns]
            Ah, Al = ahal >> 4, ahal & 15
            for si in range(ns):
                cs, tbl = body[1 + 2 * si], body[2 + 2 * si]
                dc_id, ac_id = tbl >> 4, tbl & 15
                # resolve LUTs NOW — DHT may redefine tables between scans.
                # DC-refinement scans read raw bits (no Huffman); AC scans
                # never use the DC table and vice versa.
                need_dc = Ss == 0 and Ah == 0
                need_ac = Se > 0 if progressive else True
                dlut = huff_dc.get(dc_id) if need_dc else None
                alut = huff_ac.get(ac_id) if need_ac else None
                if need_dc and dlut is None:
                    raise ValueError("missing DC huffman table")
                if need_ac and alut is None:
                    raise ValueError("missing AC huffman table")
                sc.append((cid_to_idx[cs], dlut, alut))
            segs, pos = _split_entropy(data, pos)
            scans.append((sc, Ss, Se, Ah, Al, segs, restart_interval))
            if not progressive:
                break
        # APPn / COM / others: skipped
    if frame is None or not scans:
        raise ValueError("no scan in JPEG")

    h, w, comps = frame
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    qtbl = []
    for (_, _, _, tq) in comps:
        if tq not in qt:
            raise ValueError(f"missing quant table {tq}")
        qtbl.append(qt[tq])

    if progressive:
        coef = _decode_progressive(scans, comps, h, w, hmax, vmax,
                                   mcus_x, mcus_y)
        for ci in range(len(comps)):
            coef[ci] *= qtbl[ci]
    else:
        coef = _decode_baseline(scans[0], comps, qtbl, mcus_x, mcus_y)
    return _reconstruct(coef, comps, h, w, hmax, vmax)


def _decode_baseline(scan_rec, comps, qtbl, mcus_x, mcus_y):
    scan, _, _, _, _, segs, restart_interval = scan_rec
    coef = [np.zeros((mcus_y * c[2], mcus_x * c[1], 64), dtype=np.int64)
            for c in comps]
    pred = [0] * len(comps)
    seg_i, mcu_in_seg = 0, 0
    br = _BitReader(segs[0])
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_in_seg == restart_interval:
                seg_i += 1
                if seg_i >= len(segs):
                    raise ValueError("missing restart segment")
                br = _BitReader(segs[seg_i])
                pred = [0] * len(comps)
                mcu_in_seg = 0
            for (ci, dlut, alut) in scan:
                _, hi, vi, _ = comps[ci]
                dsym, dln = dlut
                asym, aln = alut
                q = qtbl[ci]
                for by in range(vi):
                    for bx in range(hi):
                        s = br.read_sym(dsym, dln)
                        if s:
                            pred[ci] += _extend(br.receive(s), s)
                        blk = coef[ci][my * vi + by, mx * hi + bx]
                        blk[0] = pred[ci] * q[0]
                        k = 1
                        while k < 64:
                            rs = br.read_sym(asym, aln)
                            r, s = rs >> 4, rs & 15
                            if s == 0:
                                if r == 15:     # ZRL
                                    k += 16
                                    continue
                                break           # EOB
                            k += r
                            if k > 63:
                                raise ValueError("AC run past block end")
                            blk[k] = _extend(br.receive(s), s) * q[k]
                            k += 1
            mcu_in_seg += 1
    return coef


def _decode_progressive(scans, comps, h, w, hmax, vmax, mcus_x, mcus_y):
    """T.81 Annex G progressive scan decoding into RAW (unquantized)
    zigzag coefficients.  DC scans may be interleaved (MCU order, padded
    block grid); AC scans are always single-component over the
    component's own ceil(dim/8) block raster (no MCU padding)."""
    coef = [np.zeros((mcus_y * c[2], mcus_x * c[1], 64), dtype=np.int64)
            for c in comps]
    nblocks = []
    for (_, hi, vi, _) in comps:
        cw = (w * hi + hmax - 1) // hmax
        chh = (h * vi + vmax - 1) // vmax
        nblocks.append(((chh + 7) // 8, (cw + 7) // 8))

    for (sc, Ss, Se, Ah, Al, segs, ri) in scans:
        br = _BitReader(segs[0])
        seg_i, unit_in_seg = 0, 0
        eobrun = 0
        pred = [0] * len(comps)

        def _restart():
            nonlocal br, seg_i, eobrun, pred
            seg_i += 1
            if seg_i >= len(segs):
                raise ValueError("missing restart segment")
            br = _BitReader(segs[seg_i])
            eobrun = 0
            pred = [0] * len(comps)

        if Ss == 0:                            # DC scan
            if len(sc) > 1 or len(comps) == 1:
                units = []                     # interleaved MCU order
                for my in range(mcus_y):
                    for mx in range(mcus_x):
                        blocks = []
                        for (ci, dlut, _) in sc:
                            _, hi, vi, _ = comps[ci]
                            for by in range(vi):
                                for bx in range(hi):
                                    blocks.append((ci, my * vi + by,
                                                   mx * hi + bx, dlut))
                        units.append(blocks)
            else:                              # single-comp, own raster
                ci, dlut, _ = sc[0]
                by_n, bx_n = nblocks[ci]
                units = [[(ci, by, bx, dlut)]
                         for by in range(by_n) for bx in range(bx_n)]
            for ui, blocks in enumerate(units):
                if ri and ui and ui % ri == 0:
                    _restart()
                for (ci, by, bx, dlut) in blocks:
                    blk = coef[ci][by, bx]
                    if Ah == 0:
                        sym, ln = dlut
                        sbits = br.read_sym(sym, ln)
                        if sbits:
                            pred[ci] += _extend(br.receive(sbits), sbits)
                        blk[0] = pred[ci] << Al
                    else:                      # DC refinement: 1 raw bit
                        if br.receive(1):
                            blk[0] |= 1 << Al
            continue

        # AC scan: exactly one component (T.81 G.1.1.1.1)
        if len(sc) != 1:
            raise ValueError("progressive AC scan with >1 component")
        ci, _, alut = sc[0]
        asym, aln = alut
        by_n, bx_n = nblocks[ci]
        p1, m1 = 1 << Al, -1 << Al
        ui = 0
        for by in range(by_n):
            for bx in range(bx_n):
                if ri and ui and ui % ri == 0:
                    _restart()
                ui += 1
                blk = coef[ci][by, bx]
                if Ah == 0:                    # first pass for this band
                    if eobrun > 0:
                        eobrun -= 1
                        continue
                    k = Ss
                    while k <= Se:
                        rs = br.read_sym(asym, aln)
                        r, sbits = rs >> 4, rs & 15
                        if sbits == 0:
                            if r != 15:
                                eobrun = (1 << r) - 1
                                if r:
                                    eobrun += br.receive(r)
                                break
                            k += 16            # ZRL
                            continue
                        k += r
                        if k > Se:
                            raise ValueError("AC run past band end")
                        blk[k] = _extend(br.receive(sbits), sbits) << Al
                        k += 1
                else:                          # refinement (G.7 / IJG)
                    k = Ss
                    if eobrun == 0:
                        while k <= Se:
                            rs = br.read_sym(asym, aln)
                            r, sbits = rs >> 4, rs & 15
                            newval = 0
                            if sbits:
                                # T.81 requires s == 1 in refinement
                                newval = p1 if br.receive(1) else m1
                            elif r != 15:
                                eobrun = (1 << r)
                                if r:
                                    eobrun += br.receive(r)
                                break
                            while k <= Se:
                                c = int(blk[k])
                                if c != 0:
                                    if br.receive(1) and (c & p1) == 0:
                                        blk[k] = c + (p1 if c >= 0 else m1)
                                else:
                                    if r == 0:
                                        break
                                    r -= 1
                                k += 1
                            if newval and k <= Se:
                                blk[k] = newval
                            k += 1
                    if eobrun > 0:
                        while k <= Se:
                            c = int(blk[k])
                            if c != 0:
                                if br.receive(1) and (c & p1) == 0:
                                    blk[k] = c + (p1 if c >= 0 else m1)
                            k += 1
                        eobrun -= 1
    return coef


def _reconstruct(coef, comps, h, w, hmax, vmax):
    """Batched de-zigzag + IDCT + upsample + color convert (shared by the
    baseline and progressive paths; ``coef`` is dequantized zigzag)."""
    planes = []
    for ci, (_, hi, vi, _) in enumerate(comps):
        z = coef[ci]                                     # (BY, BX, 64) zz
        raster = np.empty_like(z, dtype=np.float64)
        raster[..., ZZ] = z
        b8 = raster.reshape(z.shape[0], z.shape[1], 8, 8)
        px = np.einsum("ij,abjk,kl->abil", _C.T, b8, _C) + 128.0
        plane = px.transpose(0, 2, 1, 3).reshape(z.shape[0] * 8,
                                                 z.shape[1] * 8)
        if vi < vmax:
            plane = np.repeat(plane, vmax // vi, axis=0)
        if hi < hmax:
            plane = np.repeat(plane, hmax // hi, axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        out = planes[0][:, :, None]
    else:
        y, cb, cr = planes
        r = y + 1.402 * (cr - 128.0)
        g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
        b = y + 1.772 * (cb - 128.0)
        out = np.stack([r, g, b], axis=2)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)


# -- encoder -------------------------------------------------------------------


def _scale_qt(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(max(int(quality), 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _fdct_quant(plane: np.ndarray, q_zz: np.ndarray) -> np.ndarray:
    """Plane (H, W) multiple-of-8 → (BY, BX, 64) quantized zigzag coeffs."""
    H, W = plane.shape
    b8 = (plane.reshape(H // 8, 8, W // 8, 8).transpose(0, 2, 1, 3)
          .astype(np.float64) - 128.0)
    F = np.einsum("ij,abjk,kl->abil", _C, b8, _C.T)
    zz = F.reshape(H // 8, W // 8, 64)[..., ZZ]
    return np.round(zz / q_zz).astype(np.int64)


def _pad_to(plane: np.ndarray, H: int, W: int) -> np.ndarray:
    return np.pad(plane, ((0, H - plane.shape[0]), (0, W - plane.shape[1])),
                  mode="edge")


def encode_jpeg(arr: np.ndarray, quality: int = 85,
                subsampling: str = "4:4:4",
                restart_interval: int = 0,
                progressive: bool = False) -> bytes:
    """JFIF encoder for fixtures: 8-bit gray or RGB, Annex K tables
    (quality-scaled), ``subsampling`` in {"4:4:4", "4:2:0"}.

    ``progressive=True`` writes SOF2 with a 5-phase scan script — DC
    first (Al=1, interleaved), per-component AC 1-63 first (Al=2), AC
    refinements (2→1, 1→0), DC refinement — exercising spectral
    selection, successive approximation AND the refinement correction-
    bit protocol.  The quantized coefficients are IDENTICAL to the
    baseline path's, so baseline and progressive encodings of the same
    image must decode pixel-identically (the round-trip test's anchor).
    Restart intervals are baseline-only here."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    if ch not in (1, 3):
        raise ValueError(f"need 1 or 3 channels, got {ch}")
    gray = ch == 1
    if subsampling not in ("4:4:4", "4:2:0"):
        raise NotImplementedError(f"subsampling {subsampling}")
    sub = 2 if (subsampling == "4:2:0" and not gray) else 1

    f = arr.astype(np.float64)
    if gray:
        planes = [f[:, :, 0]]
    else:
        r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
        cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
        if sub == 2:
            He, We = (h + 1) & ~1, (w + 1) & ~1
            cb = _pad_to(cb, He, We).reshape(He // 2, 2, We // 2, 2) \
                                    .mean(axis=(1, 3))
            cr = _pad_to(cr, He, We).reshape(He // 2, 2, We // 2, 2) \
                                    .mean(axis=(1, 3))
        planes = [y, cb, cr]

    # components: (id, hi, vi, tq, dc_tbl_id, ac_tbl_id)
    if gray:
        comps = [(1, 1, 1, 0, 0, 0)]
    else:
        comps = [(1, sub, sub, 0, 0, 0), (2, 1, 1, 1, 1, 1),
                 (3, 1, 1, 1, 1, 1)]
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))

    q_zz = [_scale_qt(_QT_LUMA, quality).reshape(8, 8).reshape(-1)[ZZ]]
    if not gray:
        q_zz.append(_scale_qt(_QT_CHROMA, quality).reshape(-1)[ZZ])

    coefs = []
    for (cid, hi, vi, tq, _, _), plane in zip(comps, planes):
        coefs.append(_fdct_quant(
            _pad_to(plane, mcus_y * vi * 8, mcus_x * hi * 8), q_zz[tq]))

    dc_codes = [_encode_table(*_DC_LUMA), _encode_table(*_DC_CHROMA)]
    ac_codes = [_encode_table(*_AC_LUMA), _encode_table(*_AC_CHROMA)]

    out = bytearray(b"\xff\xd8")                        # SOI
    out += (b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
            + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]))
    for tq, tbl in enumerate(q_zz):                     # DQT
        out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) \
            + bytes(int(v) for v in tbl)
    out += (b"\xff\xc2" if progressive else b"\xff\xc0") \
        + struct.pack(">HBHHB", 8 + 3 * len(comps), 8, h, w,
                      len(comps))                       # SOF0 / SOF2
    for (cid, hi, vi, tq, _, _) in comps:
        out += bytes([cid, (hi << 4) | vi, tq])
    tables = [(_DC_LUMA, 0x00), (_AC_LUMA, 0x10)]       # DHT
    if not gray:
        tables += [(_DC_CHROMA, 0x01), (_AC_CHROMA, 0x11)]
    for (bits, values), tc_th in tables:
        out += b"\xff\xc4" + struct.pack(">H", 19 + len(values)) \
            + bytes([tc_th]) + bytes(bits[1:]) + bytes(values)
    if progressive:
        _write_progressive_scans(out, comps, coefs, dc_codes, ac_codes,
                                 mcus_x, mcus_y, h, w, hmax, vmax)
        out += b"\xff\xd9"                              # EOI
        return bytes(out)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * len(comps), len(comps))
    for (cid, _, _, _, dc_id, ac_id) in comps:          # SOS
        out += bytes([cid, (dc_id << 4) | ac_id])
    out += bytes([0, 63, 0])

    bw = _BitWriter()
    pred = [0] * len(comps)
    rst, mcu_count = 0, 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count and \
                    mcu_count % restart_interval == 0:
                bw.pad_to_byte()
                out += bw.buf
                out += bytes([0xFF, 0xD0 + (rst & 7)])
                rst += 1
                bw = _BitWriter()
                pred = [0] * len(comps)
            for ci, (cid, hi, vi, tq, dc_id, ac_id) in enumerate(comps):
                dct, act = dc_codes[dc_id], ac_codes[ac_id]
                for by in range(vi):
                    for bx in range(hi):
                        zz = coefs[ci][my * vi + by, mx * hi + bx]
                        diff = int(zz[0]) - pred[ci]
                        pred[ci] = int(zz[0])
                        s = int(abs(diff)).bit_length()
                        bw.write(*dct[s])
                        if s:
                            bw.write(diff if diff > 0
                                     else diff + (1 << s) - 1, s)
                        run = 0
                        nz = np.nonzero(zz[1:])[0]
                        last = int(nz[-1]) + 1 if nz.size else 0
                        for k in range(1, last + 1):
                            v = int(zz[k])
                            if v == 0:
                                run += 1
                                continue
                            while run > 15:
                                bw.write(*act[0xF0])   # ZRL
                                run -= 16
                            s = abs(v).bit_length()
                            bw.write(*act[(run << 4) | s])
                            bw.write(v if v > 0 else v + (1 << s) - 1, s)
                            run = 0
                        if last < 63:
                            bw.write(*act[0x00])       # EOB
            mcu_count += 1
    bw.pad_to_byte()
    out += bw.buf
    out += b"\xff\xd9"                                  # EOI
    return bytes(out)


# Progressive-scan AC table: the Annex K example tables lack the EOBn
# (r<<4|0, r>0) symbols progressive end-of-band RUNS need, so fixture
# encodes use one flat canonical table carrying every symbol the
# progressive writer can emit — s=0: EOB0..EOB14 + ZRL; s=1..10 x
# r=0..15 — all at 8 bits (176 x 2^-8 < 1: a valid, incomplete code).
_AC_PROG_SYMS = ([r << 4 for r in range(15)] + [0xF0]
                 + [(r << 4) | s for r in range(16) for s in range(1, 11)])
_AC_PROG = ([0] * 8 + [len(_AC_PROG_SYMS)] + [0] * 8, _AC_PROG_SYMS)


def _sos(comps, members, tbl_ids, Ss, Se, Ah, Al) -> bytes:
    """SOS header for a progressive scan; ``members`` are component
    indices, ``tbl_ids`` the (dc_id, ac_id) per member."""
    b = bytearray(b"\xff\xda")
    b += struct.pack(">HB", 6 + 2 * len(members), len(members))
    for ci, (dc_id, ac_id) in zip(members, tbl_ids):
        b += bytes([comps[ci][0], (dc_id << 4) | ac_id])
    b += bytes([Ss, Se, (Ah << 4) | Al])
    return bytes(b)


def _write_progressive_scans(out, comps, coefs, dc_codes, ac_codes,
                             mcus_x, mcus_y, h, w, hmax, vmax) -> None:
    ncomp = len(comps)
    allc = list(range(ncomp))
    # redefine the AC tables (same ids) with the EOBn-capable flat table;
    # DHT between scans is legal and the decoder resolves LUTs per SOS
    n_ac = len({comps[ci][5] for ci in allc})
    for ac_id in range(n_ac):
        out += b"\xff\xc4" \
            + struct.pack(">H", 19 + len(_AC_PROG[1])) \
            + bytes([0x10 | ac_id]) + bytes(_AC_PROG[0][1:]) \
            + bytes(_AC_PROG[1])
    acp = _encode_table(*_AC_PROG)
    # true per-component block rasters (non-interleaved AC scans never
    # cover the MCU sampling padding)
    nblocks = []
    for (_, hi, vi, _, _, _) in comps:
        cw = (w * hi + hmax - 1) // hmax
        chh = (h * vi + vmax - 1) // vmax
        nblocks.append(((chh + 7) // 8, (cw + 7) // 8))

    def mcu_blocks():
        for my in range(mcus_y):
            for mx in range(mcus_x):
                for ci, (_, hi, vi, _, _, _) in enumerate(comps):
                    for by in range(vi):
                        for bx in range(hi):
                            yield ci, coefs[ci][my * vi + by, mx * hi + bx]

    # --- scan 1: DC first, Al=1, all components interleaved -----------
    out += _sos(comps, allc, [(comps[ci][4], 0) for ci in allc], 0, 0, 0, 1)
    bw = _BitWriter()
    pred = [0] * ncomp
    for ci, zz in mcu_blocks():
        dc = int(zz[0]) >> 1                    # DC point transform: >> Al
        diff = dc - pred[ci]
        pred[ci] = dc
        sbits = int(abs(diff)).bit_length()
        bw.write(*dc_codes[comps[ci][4]][sbits])
        if sbits:
            bw.write(diff if diff > 0 else diff + (1 << sbits) - 1, sbits)
    bw.pad_to_byte()
    out += bw.buf

    # --- scans 2..: per-component AC first (band 1-63, Al=2) ----------
    for ci in allc:
        act = acp
        out += _sos(comps, [ci], [(0, comps[ci][5])], 1, 63, 0, 2)
        bw = _BitWriter()
        by_n, bx_n = nblocks[ci]
        eob_run = 0

        def _flush_eob_first():
            nonlocal eob_run
            while eob_run:
                r = min(14, eob_run.bit_length() - 1)
                covered = min(eob_run, (1 << r) + ((1 << r) - 1))
                bw.write(*act[r << 4])
                if r:
                    bw.write(covered - (1 << r), r)
                eob_run -= covered

        for by in range(by_n):
            for bx in range(bx_n):
                zz = coefs[ci][by, bx]
                run = 0
                last = 0
                tv = [0] * 64
                for k in range(1, 64):
                    v = int(zz[k])
                    t = abs(v) >> 2
                    tv[k] = t if v >= 0 else -t
                    if tv[k]:
                        last = k
                if last == 0:                   # all-zero band → EOB run
                    eob_run += 1
                    continue
                _flush_eob_first()
                for k in range(1, last + 1):
                    t = tv[k]
                    if t == 0:
                        run += 1
                        continue
                    while run > 15:
                        bw.write(*act[0xF0])
                        run -= 16
                    sbits = abs(t).bit_length()
                    bw.write(*act[(run << 4) | sbits])
                    bw.write(t if t > 0 else t + (1 << sbits) - 1, sbits)
                    run = 0
                if last < 63:
                    eob_run += 1                # EOB starts/extends a run
        _flush_eob_first()
        bw.pad_to_byte()
        out += bw.buf

    # --- AC refinements: Ah=2→Al=1, then Ah=1→Al=0 --------------------
    for ah, al in ((2, 1), (1, 0)):
        for ci in allc:
            act = acp
            out += _sos(comps, [ci], [(0, comps[ci][5])], 1, 63, ah, al)
            bw = _BitWriter()
            by_n, bx_n = nblocks[ci]
            eob_run = 0
            run_pending: list[list[int]] = []   # per run-member block

            def _flush_eob_refine():
                nonlocal eob_run
                i = 0
                while eob_run:
                    r = min(14, eob_run.bit_length() - 1)
                    covered = min(eob_run, (1 << r) + ((1 << r) - 1))
                    bw.write(*act[r << 4])
                    if r:
                        bw.write(covered - (1 << r), r)
                    for blk_bits in run_pending[i:i + covered]:
                        for bit in blk_bits:
                            bw.write(bit, 1)
                    i += covered
                    eob_run -= covered
                run_pending.clear()

            for by in range(by_n):
                for bx in range(bx_n):
                    zz = coefs[ci][by, bx]
                    av = [abs(int(zz[k])) >> al for k in range(64)]
                    eobpos = 0
                    for k in range(1, 64):
                        if av[k] == 1:          # newly significant here
                            eobpos = k
                    if eobpos == 0:
                        # no newly-significant coeffs: the whole band is
                        # one EOB-run member; its history correction bits
                        # ride behind the (future) EOBn symbol
                        eob_run += 1
                        run_pending.append(
                            [av[k] & 1 for k in range(1, 64) if av[k] > 1])
                        continue
                    _flush_eob_refine()
                    run = 0
                    pending: list[int] = []
                    for k in range(1, 64):
                        t = av[k]
                        if t == 0:
                            run += 1
                            continue
                        while run > 15 and k <= eobpos:
                            bw.write(*act[0xF0])
                            for bit in pending:
                                bw.write(bit, 1)
                            pending = []
                            run -= 16
                        if t > 1:               # history: correction bit
                            pending.append(t & 1)
                            continue
                        bw.write(*act[(run << 4) | 1])
                        bw.write(1 if int(zz[k]) > 0 else 0, 1)
                        for bit in pending:
                            bw.write(bit, 1)
                        pending = []
                        run = 0
                    if run > 0 or pending:
                        # trailing zeros/history fold into an EOB run
                        eob_run += 1
                        run_pending.append(pending)
            _flush_eob_refine()
            bw.pad_to_byte()
            out += bw.buf

    # --- final scan: DC refinement (Al=0), interleaved ----------------
    out += _sos(comps, allc, [(comps[ci][4], 0) for ci in allc], 0, 0, 1, 0)
    bw = _BitWriter()
    for ci, zz in mcu_blocks():
        bw.write(int(zz[0]) & 1, 1)
    bw.pad_to_byte()
    out += bw.buf
