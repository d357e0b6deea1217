"""Stdlib-only image / audio codecs for the multimodal stages.

No PIL / libjpeg / ffmpeg exists in this environment, but several real
formats need nothing beyond the standard library:

- PNG  — ``zlib`` (stdlib) + chunk parsing: 8-bit gray / gray+alpha /
  RGB / RGBA, non-interlaced (the overwhelmingly common case).  All five
  scanline filters are implemented; None/Sub/Up rows reconstruct via
  numpy (Sub is a per-channel cumsum mod 256), Average/Paeth fall back to
  a per-byte loop (our own encoder always writes filter 0, so the slow
  path only runs on foreign files).
- PPM (P6) — pure header parse + numpy reshape.
- BMP  — uncompressed 24/32-bit bottom-up DIB.
- WAV  — stdlib ``wave`` + numpy: real PCM samples → RMS / zero-crossing
  / duration features.

Baseline-sequential JPEG decodes for real via :mod:`.jpegcodec`
(pure-numpy Huffman + batched IDCT; progressive/arithmetic variants raise
``NotImplementedError``).  GIF / WebP / MP4 / WebM remain honestly
undecodable here: :func:`decode_image` raises ``NotImplementedError`` for
them (sniffed by magic bytes) rather than faking pixels.
:func:`encode_png` exists so tests and synthetic pipelines can round-trip
real pixel data.
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

# -- PNG ----------------------------------------------------------------------

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
# color type → samples per pixel
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def encode_png(arr: np.ndarray) -> bytes:
    """Minimal RGB/RGBA/gray 8-bit PNG encoder (filter 0 rows) — for test
    fixtures and synthetic multimodal payloads."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, ch = arr.shape
    ctype = {1: 0, 2: 4, 3: 2, 4: 6}[ch]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(h))

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    return (_PNG_MAGIC + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b""))


def _paeth_row(cur: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    out = np.zeros(cur.size, dtype=np.uint8)
    for x in range(cur.size):
        a = int(out[x - bpp]) if x >= bpp else 0
        b = int(prev[x])
        c = int(prev[x - bpp]) if x >= bpp else 0
        p = a + b - c
        pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
        pred = a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)
        out[x] = (int(cur[x]) + pred) & 0xFF
    return out


def _avg_row(cur: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    out = np.zeros(cur.size, dtype=np.uint8)
    for x in range(cur.size):
        a = int(out[x - bpp]) if x >= bpp else 0
        out[x] = (int(cur[x]) + (a + int(prev[x])) // 2) & 0xFF
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode a non-interlaced 8-bit PNG to (h, w, channels) uint8."""
    if not data.startswith(_PNG_MAGIC):
        raise ValueError("not a PNG")
    pos, w = len(_PNG_MAGIC), None
    idat = []
    while pos + 8 <= len(data):
        (ln,), tag = struct.unpack(">I", data[pos:pos + 4]), \
            data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, ctype, _comp, _filt, interlace = \
                struct.unpack(">IIBBBBB", body)
            if depth != 8 or interlace != 0 or ctype not in _PNG_CHANNELS:
                raise NotImplementedError(
                    f"PNG depth={depth} ctype={ctype} interlace={interlace}")
            ch = _PNG_CHANNELS[ctype]
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if w is None or not idat:
        raise ValueError("truncated PNG")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    stride = w * ch
    raw = raw.reshape(h, stride + 1)
    filters, rows = raw[:, 0], raw[:, 1:]
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        f, cur = int(filters[y]), rows[y]
        if f == 0:
            rec = cur.copy()
        elif f == 1:   # Sub: per-channel prefix sum mod 256
            rec = np.cumsum(cur.reshape(w, ch), axis=0,
                            dtype=np.uint64).astype(np.uint8).reshape(stride)
        elif f == 2:   # Up
            rec = cur + prev
        elif f == 3:
            rec = _avg_row(cur, prev, ch)
        elif f == 4:
            rec = _paeth_row(cur, prev, ch)
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = rec
        prev = rec
    return out.reshape(h, w, ch)


# -- PPM (P6) -----------------------------------------------------------------


def decode_ppm(data: bytes) -> np.ndarray:
    """Binary PPM (P6, maxval 255) → (h, w, 3) uint8."""
    if not data.startswith(b"P6"):
        raise ValueError("not a P6 PPM")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":          # comment to EOL
            pos = data.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise NotImplementedError("PPM maxval != 255")
    return np.frombuffer(data, dtype=np.uint8, count=w * h * 3,
                         offset=pos).reshape(h, w, 3).copy()


# -- BMP ----------------------------------------------------------------------


def decode_bmp(data: bytes) -> np.ndarray:
    """Uncompressed 24/32-bit bottom-up BMP → (h, w, 3) uint8 (BGR→RGB)."""
    if not data.startswith(b"BM"):
        raise ValueError("not a BMP")
    off, = struct.unpack("<I", data[10:14])
    hsz, = struct.unpack("<I", data[14:18])
    w, h = struct.unpack("<ii", data[18:26])
    planes, bpp = struct.unpack("<HH", data[26:30])
    comp, = struct.unpack("<I", data[30:34])
    if comp != 0 or bpp not in (24, 32) or planes != 1 or hsz < 40:
        raise NotImplementedError(f"BMP bpp={bpp} compression={comp}")
    flip = h > 0
    h = abs(h)
    ch = bpp // 8
    stride = (w * ch + 3) & ~3
    rows = np.frombuffer(data, dtype=np.uint8, count=stride * h,
                         offset=off).reshape(h, stride)
    px = rows[:, :w * ch].reshape(h, w, ch)
    if flip:
        px = px[::-1]
    return px[:, :, 2::-1].copy()   # BGR(A) → RGB


# -- sniffing dispatch ---------------------------------------------------------


def decode_image(data: bytes) -> np.ndarray:
    """Magic-byte-sniffed decode → (h, w, channels) uint8.  PNG/PPM/BMP
    decode here; JPEG (baseline AND progressive) decodes via
    :mod:`.jpegcodec` (pure-numpy Huffman + IDCT, successive
    approximation); GIF via :mod:`.gifcodec` (pure-numpy LZW, first
    frame); WebP raises NotImplementedError (VP8's close-range LZ77
    distance-map table is not reconstructible offline; a wrong table
    would silently corrupt pixels — honest boundary); unknown bytes
    raise ValueError."""
    if data.startswith(_PNG_MAGIC):
        return decode_png(data)
    if data.startswith(b"P6"):
        return decode_ppm(data)
    if data.startswith(b"BM"):
        return decode_bmp(data)
    if data.startswith(b"\xff\xd8\xff"):
        from .jpegcodec import decode_jpeg   # baseline + progressive, numpy
        return decode_jpeg(data)
    if data.startswith((b"GIF87a", b"GIF89a")):
        from .gifcodec import decode_gif     # pure-numpy LZW
        return decode_gif(data)
    if data.startswith(b"RIFF"):
        if data[8:12] == b"AVI ":
            raise ValueError(
                "AVI is a video container — use frame_sample_batch "
                "(avicodec decodes MJPEG frames)")
        raise NotImplementedError("WebP codec not available")
    raise ValueError("unrecognized image format")


def image_features(px: np.ndarray) -> np.ndarray:
    """Real pixel-statistics feature vector (float32, 12-dim): mean
    R,G,B (gray replicates), plus an 8-bin luminance histogram
    (fractions) and the aspect ratio w/h."""
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, ch = px.shape
    rgb = px[:, :, :3] if ch >= 3 else np.repeat(px[:, :, :1], 3, axis=2)
    mean = rgb.reshape(-1, 3).mean(axis=0) / 255.0
    lum = (0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1]
           + 0.114 * rgb[:, :, 2])
    hist, _ = np.histogram(lum, bins=8, range=(0.0, 256.0))
    hist = hist / max(lum.size, 1)
    return np.concatenate([mean, hist, [w / h]]).astype(np.float32)


# -- WAV audio -----------------------------------------------------------------


def decode_wav(data: bytes) -> tuple[int, int, np.ndarray]:
    """PCM WAV → (sample_rate, n_channels, float64 mono samples in
    [-1, 1]).  16-bit and 8-bit PCM via stdlib ``wave``."""
    with wave.open(io.BytesIO(data), "rb") as f:
        nch, sw, rate = f.getnchannels(), f.getsampwidth(), f.getframerate()
        frames = f.readframes(f.getnframes())
    if sw == 2:
        x = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    elif sw == 1:
        x = (np.frombuffer(frames, dtype=np.uint8).astype(np.float64)
             - 128.0) / 128.0
    else:
        raise NotImplementedError(f"WAV sample width {sw}")
    if nch > 1:
        x = x.reshape(-1, nch).mean(axis=1)
    return rate, nch, x


def encode_wav(samples: np.ndarray, rate: int = 16000) -> bytes:
    """Mono 16-bit PCM WAV encoder for fixtures."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64), -1, 1)
    pcm = (pcm * 32767.0).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(rate)
        f.writeframes(pcm.tobytes())
    return buf.getvalue()


def audio_features(data: bytes) -> dict:
    """Real audio features from PCM WAV bytes: duration (µs), RMS and
    zero-crossing rate in integer micro-units."""
    rate, nch, x = decode_wav(data)
    n = x.size
    rms = float(np.sqrt(np.mean(x * x))) if n else 0.0
    zc = int(np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1]))) \
        if n > 1 else 0
    return {
        "sample_rate": rate,
        "n_channels": nch,
        "n_samples": n,
        "duration_us": n * 1_000_000 // max(rate, 1),
        "rms_micro": int(round(rms * 1_000_000)),
        "zcr_micro": zc * 1_000_000 // max(n - 1, 1),
    }
