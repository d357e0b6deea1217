"""Stdlib image/audio codec tests: PNG round-trip + all five scanline
filters against an independent reference filterer, PPM/BMP bit-exact
decode, WAV features vs analytic values, and the real-decode paths of the
multimodal stages."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from search_ingest_ray.functions.imagecodec import (
    audio_features, decode_bmp, decode_image, decode_png, decode_ppm,
    encode_png, encode_wav, image_features,
)
from search_ingest_ray.functions.multimodal import (
    audio_feature_batch, frame_sample_batch, image_feature_batch,
)


def _rng_img(h, w, ch, seed=0):
    return np.random.default_rng(seed).integers(
        0, 256, size=(h, w, ch), dtype=np.uint8).squeeze()


@pytest.mark.parametrize("ch", [1, 2, 3, 4])
def test_png_roundtrip(ch):
    img = _rng_img(13, 7, ch, seed=ch)
    out = decode_png(encode_png(img))
    ref = img if img.ndim == 3 else img[:, :, None]
    assert out.shape == ref.shape
    assert np.array_equal(out, ref)


def _ref_filter(img: np.ndarray, ftype: int) -> bytes:
    """Independent PNG scanline filterer (spec section 9) — builds the
    raw stream the decoder must invert."""
    h, w, ch = img.shape
    raw = b""
    prev = np.zeros(w * ch, dtype=np.int64)
    for y in range(h):
        cur = img[y].reshape(-1).astype(np.int64)
        out = np.zeros(w * ch, dtype=np.int64)
        for x in range(w * ch):
            a = cur[x - ch] if x >= ch else 0
            b = prev[x]
            c = prev[x - ch] if x >= ch else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
            out[x] = (cur[x] - pred) % 256
        raw += bytes([ftype]) + bytes(out.astype(np.uint8))
        prev = cur
    return raw


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_all_filters_decode(ftype):
    img = _rng_img(9, 5, 3, seed=10 + ftype)
    ihdr = struct.pack(">IIBBBBB", 5, 9, 8, 2, 0, 0, 0)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    png = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(_ref_filter(img, ftype)))
           + chunk(b"IEND", b""))
    assert np.array_equal(decode_png(png), img)


def test_ppm_decode():
    img = _rng_img(4, 6, 3, seed=3)
    data = b"P6\n# comment\n6 4\n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(data), img)


def test_bmp_decode_24bit_bottom_up():
    img = _rng_img(3, 5, 3, seed=4)
    stride = (5 * 3 + 3) & ~3
    rows = b""
    for y in range(2, -1, -1):          # bottom-up
        row = img[y][:, ::-1].tobytes()  # RGB → BGR
        rows += row + b"\x00" * (stride - len(row))
    header = (b"BM" + struct.pack("<IHHI", 54 + len(rows), 0, 0, 54)
              + struct.pack("<IiiHHIIiiII", 40, 5, 3, 1, 24, 0,
                            len(rows), 2835, 2835, 0, 0))
    assert np.array_equal(decode_bmp(header + rows), img)


def test_decode_image_sniffs_and_rejects():
    img = _rng_img(2, 2, 3, seed=5)
    assert np.array_equal(decode_image(encode_png(img)), img)
    with pytest.raises(ValueError):        # JPEG magic but garbage body
        decode_image(b"\xff\xd8\xff\xe0fakejpeg")
    with pytest.raises(ValueError):       # GIF magic but truncated body
        decode_image(b"GIF89a notreally")
    with pytest.raises(NotImplementedError):   # WebP: VP8 needs a real codec
        decode_image(b"RIFF\x00\x00\x00\x00WEBPVP8 ")
    with pytest.raises(ValueError):
        decode_image(b"garbage")


# -- baseline JPEG codec (jpegcodec.py) ---------------------------------------


def test_jpeg_solid_gray_exact_identity():
    """quality=75 scales Annex-K luma q[0][0] to exactly 8 → a solid
    grayscale value round-trips EXACTLY (the q_jpeg_features oracle
    anchor)."""
    from search_ingest_ray.functions.jpegcodec import decode_jpeg, encode_jpeg
    for v in (40, 56, 104, 152, 232):
        out = decode_jpeg(encode_jpeg(np.full((24, 16), v, np.uint8),
                                      quality=75))
        assert out.shape == (24, 16, 1)
        assert (out == v).all()


def test_jpeg_rgb_roundtrip_444_and_420():
    from search_ingest_ray.functions.jpegcodec import decode_jpeg, encode_jpeg
    h, w = 24, 40
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.stack([yy * 255 // h, xx * 255 // w,
                    (yy + xx) * 255 // (h + w)], 2).astype(np.uint8)
    out = decode_jpeg(encode_jpeg(img, quality=95, subsampling="4:4:4"))
    err = np.abs(out.astype(int) - img.astype(int))
    assert err.mean() < 2 and err.max() < 16
    out420 = decode_jpeg(encode_jpeg(img, quality=90, subsampling="4:2:0"))
    err420 = np.abs(out420.astype(int) - img.astype(int))
    assert err420.mean() < 6


def test_jpeg_restart_intervals_identical_pixels():
    from search_ingest_ray.functions.jpegcodec import decode_jpeg, encode_jpeg
    img = _rng_img(17, 31, 3, seed=11)      # odd dims → padded MCU grid
    base = decode_jpeg(encode_jpeg(img, quality=85, subsampling="4:2:0"))
    rst = decode_jpeg(encode_jpeg(img, quality=85, subsampling="4:2:0",
                                  restart_interval=2))
    assert np.array_equal(base, rst)


def test_jpeg_unsupported_modes_raise():
    from search_ingest_ray.functions.jpegcodec import decode_jpeg
    lossless = (b"\xff\xd8\xff\xc3"      # SOF3 (lossless) — still honest
                + struct.pack(">HBHHB", 11, 8, 8, 8, 1) + b"\x01\x11\x00"
                + b"\xff\xd9")
    with pytest.raises(NotImplementedError):
        decode_jpeg(lossless)
    with pytest.raises(ValueError):
        decode_jpeg(b"\xff\xd8\xff\xd9")    # no frame/scan


def test_jpeg_decodes_through_image_stage_strict(ray_session):
    import ray.data as rd
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    rows = []
    for i in range(6):
        px = _rng_img(16, 16, 3, seed=100 + i)
        sub = "4:2:0" if i % 2 else "4:4:4"
        rows.append({"media_id": f"j{i}",
                     "data": encode_jpeg(px, quality=90, subsampling=sub)})
    out = (rd.from_items(rows)
           .map_batches(image_feature_batch, batch_format="pyarrow",
                        fn_kwargs={"strict": True})
           .to_pandas())
    assert out["decoded"].all()
    assert (out["width"] == 16).all() and (out["height"] == 16).all()


def test_image_features_match_numpy():
    img = np.zeros((10, 20, 3), dtype=np.uint8)
    img[:, :, 0] = 255                       # pure red
    f = image_features(img)
    assert f.shape == (12,)
    assert abs(f[0] - 1.0) < 1e-6 and abs(f[1]) < 1e-6 and abs(f[2]) < 1e-6
    lum = 0.299 * 255
    hist = np.zeros(8)
    hist[int(lum // 32)] = 1.0
    assert np.allclose(f[3:11], hist)
    assert abs(f[11] - 2.0) < 1e-6           # aspect 20/10


def test_wav_features_analytic():
    rate, freq, amp = 16000, 1000, 0.5
    t = np.arange(rate // 10) / rate         # 0.1 s
    wav = encode_wav(amp * np.sin(2 * np.pi * freq * t), rate)
    f = audio_features(wav)
    assert f["sample_rate"] == rate
    assert f["n_samples"] == rate // 10
    assert f["duration_us"] == 100_000
    # sine RMS = amp/√2; 16-bit quantization keeps it within ~100 micro
    assert abs(f["rms_micro"] - int(amp / np.sqrt(2) * 1e6)) < 200
    # zero crossings ≈ 2·freq·duration
    assert abs(f["zcr_micro"] - int(2 * freq / rate * 1e6)) < 2000


def test_image_stage_decodes_real_pixels(ray_session):
    import ray.data as rd
    imgs = [_rng_img(8, 8, 3, seed=i) for i in range(6)]
    ds = rd.from_items([{"media_id": str(i), "data": encode_png(im)}
                        for i, im in enumerate(imgs)])
    out = ds.map_batches(image_feature_batch, batch_format="pyarrow",
                         batch_size=2).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    assert out["decoded"].all()
    assert (out["width"] == 8).all() and (out["height"] == 8).all()
    for i, im in enumerate(imgs):
        assert np.allclose(out["feature"][i], image_features(im))


def test_audio_stage_mixed_corpus(ray_session):
    import ray.data as rd
    wav = encode_wav(np.zeros(1600), 16000)
    ds = rd.from_items([{"media_id": "a", "data": wav},
                        {"media_id": "b", "data": b"notawav"}])
    out = ds.map_batches(audio_feature_batch,
                         batch_format="pyarrow").to_pandas()
    out = out.set_index("media_id")
    assert bool(out.loc["a", "decoded"]) and not bool(out.loc["b", "decoded"])
    assert out.loc["a", "duration_us"] == 100_000
    assert out.loc["a", "rms_micro"] == 0


def test_frame_sample_concat_png_clip(ray_session):
    import ray.data as rd
    frames = [_rng_img(4, 4, 3, seed=40 + i) for i in range(5)]
    clip = b"".join(encode_png(f) for f in frames)
    ds = rd.from_items([{"media_id": "v", "data": clip}])
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 3}).to_pandas()
    assert out["decoded"].all()
    assert out["frame"].tolist() == [0, 2, 4]
    for row, fr in zip(out.itertuples(), (0, 2, 4)):
        assert np.allclose(row.feature, image_features(frames[fr]))


# -- GIF codec (gifcodec.py) ---------------------------------------------------


def _paletted_img(h, w, ncolors, seed):
    """Random image drawn from a fixed ncolors-entry palette (GIF-exact)."""
    rng = np.random.default_rng(seed)
    pal = rng.integers(0, 256, size=(ncolors, 3), dtype=np.uint8)
    idx = rng.integers(0, ncolors, size=(h, w))
    return pal[idx]


@pytest.mark.parametrize("ncolors", [1, 2, 17, 256])
def test_gif_roundtrip_exact(ncolors):
    from search_ingest_ray.functions.gifcodec import decode_gif, encode_gif
    img = _paletted_img(11, 9, ncolors, seed=ncolors)
    assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_gif_grayscale_and_sniffed_dispatch():
    from search_ingest_ray.functions.gifcodec import encode_gif
    gray = _rng_img(6, 5, 1, seed=61)
    out = decode_image(encode_gif(gray))
    assert out.shape == (6, 5, 3)
    assert np.array_equal(out[:, :, 0], gray)
    assert np.array_equal(out[:, :, 1], out[:, :, 2])


def test_gif_interlaced_roundtrip_exact():
    from search_ingest_ray.functions.gifcodec import decode_gif, encode_gif
    # h=13 exercises all four interlace passes with ragged pass lengths
    img = _paletted_img(13, 6, 31, seed=7)
    plain = encode_gif(img)
    inter = encode_gif(img, interlace=True)
    assert inter != plain
    assert np.array_equal(decode_gif(inter), img)


def test_gif_lzw_table_reset_roundtrip():
    """Enough high-entropy pixels to fill the 4096-entry LZW table and
    force the encoder's CLEAR/reset path (and the decoder's deferred-
    clear handling) — round-trip must stay byte-exact."""
    from search_ingest_ray.functions.gifcodec import decode_gif, encode_gif
    img = _paletted_img(96, 96, 256, seed=3)
    assert np.array_equal(decode_gif(encode_gif(img)), img)


def test_gif_animation_composites_transparency():
    from search_ingest_ray.functions.gifcodec import (
        decode_gif_frames, encode_gif)
    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    f1 = np.broadcast_to(pal[0], (8, 8, 3)).copy()        # solid red
    f2 = f1.copy()
    f2[2:5, 2:5] = pal[1]                                  # green patch
    hole = np.broadcast_to(pal[2], (8, 8, 3)).copy()       # blue = hole
    hole[0:3, 0:3] = pal[1]                                # green corner
    gif = encode_gif([f1, f2, hole], transparent_rgb=(0, 0, 255))
    frames = decode_gif_frames(gif)
    assert len(frames) == 3
    assert np.array_equal(frames[0], f1)
    assert np.array_equal(frames[1], f2)
    # frame 3: blue pixels are transparent -> previous canvas shows through
    exp = f2.copy()
    exp[0:3, 0:3] = pal[1]
    assert np.array_equal(frames[2], exp)


def test_frame_sample_animated_gif(ray_session):
    import ray.data as rd
    from search_ingest_ray.functions.gifcodec import (
        decode_gif_frames, encode_gif)
    frames = [_paletted_img(4, 4, 8, seed=50 + i) for i in range(5)]
    gif = encode_gif(frames)
    composited = decode_gif_frames(gif)
    ds = rd.from_items([{"media_id": "g", "data": gif}])
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 3,
                                    "strict": True}).to_pandas()
    assert out["decoded"].all()
    assert out["frame"].tolist() == [0, 2, 4]
    for row, fr in zip(out.itertuples(), (0, 2, 4)):
        assert np.allclose(row.feature, image_features(composited[fr]))


def test_jpeg_progressive_equals_baseline_pixels():
    """Progressive (SOF2) and baseline encodings share the exact same
    quantized coefficients, so decoding both MUST give identical pixels
    — this anchors the whole successive-approximation protocol (DC/AC
    first + refinement scans, correction bits, EOB runs) on both the
    encoder and decoder sides."""
    import numpy as np

    from search_ingest_ray.functions.jpegcodec import (decode_jpeg,
                                                       encode_jpeg)
    rng = np.random.default_rng(7)
    cases = [
        (np.full((24, 16), 77, np.uint8), 90, {}),
        (rng.integers(0, 256, (17, 23)).astype(np.uint8), 90, {}),
        (rng.integers(0, 256, (33, 29, 3)).astype(np.uint8), 90,
         {"subsampling": "4:4:4"}),
        (rng.integers(0, 256, (40, 56, 3)).astype(np.uint8), 90,
         {"subsampling": "4:2:0"}),
        # low quality → sparse bands → multi-block EOB runs
        (np.full((64, 64), 128, np.uint8), 10, {}),
        ((rng.integers(0, 3, (64, 96, 3)) * 2 + 120).astype(np.uint8), 20,
         {"subsampling": "4:2:0"}),
    ]
    for img, q, kw in cases:
        base = decode_jpeg(encode_jpeg(img, quality=q, **kw))
        prog = decode_jpeg(encode_jpeg(img, quality=q, progressive=True,
                                       **kw))
        assert np.array_equal(base, prog)


def test_jpeg_progressive_through_decode_image():
    import numpy as np

    from search_ingest_ray.functions.imagecodec import decode_image
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    img = np.full((16, 16), 200, np.uint8)
    px = decode_image(encode_jpeg(img, quality=75, progressive=True))
    assert px.shape == (16, 16, 1)
    assert int(px[0, 0, 0]) == 200   # the q=75 exact-identity anchor


# -- MJPEG AVI video -----------------------------------------------------------

def test_avi_mjpeg_roundtrip_exact():
    """Container round trip: frame payloads come back byte-identical
    (odd-length JPEGs exercise even-byte chunk padding), and decoded
    pixels hit the q75 solid-gray exactness anchor per frame."""
    from search_ingest_ray.functions.avicodec import (avi_frames,
                                                      decode_avi_frames,
                                                      encode_avi_mjpeg)
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    frames = [encode_jpeg(np.full((16, 24), 40 + 16 * k, np.uint8),
                          quality=75, restart_interval=k % 2)
              for k in range(5)]
    if all(len(f) % 2 == 0 for f in frames):
        # force the even-byte chunk-padding path: bytes after EOI are
        # legal JPEG trailer content the decoder must ignore
        frames[2] += b"\x00"
    assert any(len(f) % 2 for f in frames)  # padding path exercised
    avi = encode_avi_mjpeg(frames, width=24, height=16, fps=5)
    assert avi_frames(avi) == frames
    for k, px in enumerate(decode_avi_frames(avi)):
        assert px.shape == (16, 24, 1)
        assert np.all(px == 40 + 16 * k)


def test_avi_truncation_recovers_leading_frames():
    from search_ingest_ray.functions.avicodec import (avi_frames,
                                                      encode_avi_mjpeg)
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    frames = [encode_jpeg(np.full((8, 8), 40 + 16 * k, np.uint8),
                          quality=75) for k in range(4)]
    avi = encode_avi_mjpeg(frames, width=8, height=8)
    seen = set()
    for cut in range(12, len(avi)):
        got = avi_frames(avi[:cut])
        assert got == frames[:len(got)]     # never a torn frame
        seen.add(len(got))
    assert seen == {0, 1, 2, 3, 4}          # every prefix length reachable


def test_decode_image_riff_disambiguation():
    from search_ingest_ray.functions.avicodec import encode_avi_mjpeg
    from search_ingest_ray.functions.imagecodec import decode_image
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    avi = encode_avi_mjpeg(
        [encode_jpeg(np.full((8, 8), 72, np.uint8), quality=75)],
        width=8, height=8)
    with pytest.raises(ValueError, match="video container"):
        decode_image(avi)                   # AVI is not a still image
    with pytest.raises(NotImplementedError):
        decode_image(b"RIFF\x04\x00\x00\x00WEBP")


def test_frame_sample_avi(ray_session):
    import ray.data as rd
    from search_ingest_ray.functions.avicodec import encode_avi_mjpeg
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    frames = [encode_jpeg(np.full((8, 16), 40 + 16 * k, np.uint8),
                          quality=75) for k in range(4)]
    avi = encode_avi_mjpeg(frames, width=16, height=8)
    corrupt = avi[:40]  # valid RIFF/AVI magic, torn header
    ds = rd.from_items([{"media_id": "v", "data": avi},
                        {"media_id": "bad", "data": corrupt}])
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 3}).to_pandas()
    good = out[out.media_id == "v"]
    assert good["decoded"].all()
    assert good["frame"].tolist() == [0, 1, 3]
    grays = [round(f[0] * 255) for f in good["feature"]]
    assert grays == [40, 56, 88]
    bad = out[out.media_id == "bad"]
    # torn AVI (0 recoverable frames) degrades to decoded=False rows
    assert len(bad) == 3 and not bad["decoded"].any()


# -- MJPEG MP4 (ISO BMFF) video -------------------------------------------------

def test_mp4_mjpeg_roundtrip_exact():
    """Box-walk + sample-table demux round trip across chunk geometries
    and both layouts (moov-last / faststart moov-first): sample payloads
    byte-identical, decoded pixels on the q75 solid-gray anchor."""
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    from search_ingest_ray.functions.mp4codec import (decode_mp4_frames,
                                                      encode_mp4_mjpeg,
                                                      is_mp4, mp4_frames)
    frames = [encode_jpeg(np.full((16, 24), 40 + 16 * k, np.uint8),
                          quality=75, restart_interval=k % 2)
              for k in range(5)]
    for spc in (1, 2, 3, 5, 9):
        for fast in (False, True):
            mp4 = encode_mp4_mjpeg(frames, width=24, height=16,
                                   samples_per_chunk=spc, faststart=fast)
            assert is_mp4(mp4)
            assert mp4_frames(mp4) == frames, (spc, fast)
    mp4 = encode_mp4_mjpeg(frames, width=24, height=16)
    for k, px in enumerate(decode_mp4_frames(mp4)):
        assert px.shape == (16, 24, 1)
        assert np.all(px == 40 + 16 * k)


def test_mp4_truncation_and_codec_boundary():
    """Faststart layout: cutting inside mdat keeps every complete leading
    sample, never a torn one; a non-MJPEG stsd fourcc (H.264) raises the
    honest codec boundary; junk is not MP4."""
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    from search_ingest_ray.functions.mp4codec import (encode_mp4_mjpeg,
                                                      is_mp4, mp4_frames)
    frames = [encode_jpeg(np.full((8, 8), 40 + 16 * k, np.uint8),
                          quality=75) for k in range(4)]
    mp4 = encode_mp4_mjpeg(frames, width=8, height=8, samples_per_chunk=2,
                           faststart=True)
    seen = set()
    data_start = len(mp4) - sum(len(f) for f in frames)
    for cut in range(data_start, len(mp4) + 1):
        got = mp4_frames(mp4[:cut])
        assert got == frames[:len(got)]
        seen.add(len(got))
    assert seen == {0, 1, 2, 3, 4}
    with pytest.raises(ValueError, match="no MJPEG"):
        mp4_frames(mp4.replace(b"jpeg", b"avc1", 1))
    assert not is_mp4(b"\x00" * 16)
    with pytest.raises(ValueError, match="not an ISO BMFF"):
        mp4_frames(b"\x00" * 16)


def test_frame_sample_mp4(ray_session):
    """frame_sample_batch decodes MJPEG MP4 for real; a torn MP4 (valid
    ftyp, headless) falls back to decoded=False rows when not strict."""
    import ray.data as rd
    from search_ingest_ray.functions.jpegcodec import encode_jpeg
    from search_ingest_ray.functions.mp4codec import encode_mp4_mjpeg
    frames = [encode_jpeg(np.full((8, 16), 40 + 16 * k, np.uint8),
                          quality=75) for k in range(4)]
    mp4 = encode_mp4_mjpeg(frames, width=16, height=8)
    corrupt = mp4[:40]
    ds = rd.from_items([{"media_id": "v", "data": mp4},
                        {"media_id": "bad", "data": corrupt}])
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow",
                         fn_kwargs={"frames": 3}).to_pandas()
    good = out[out.media_id == "v"].sort_values("frame")
    assert list(good.frame) == [0, 1, 3] and good.decoded.all()
    grays = [feat[0] * 255 for feat in good.feature]
    assert np.allclose(grays, [40, 56, 88])
    bad = out[out.media_id == "bad"]
    assert len(bad) == 3 and not bad.decoded.any()
