"""Codec + phash determinism tests (SURVEY.md §5 item 1, payload invariant
groundwork for FIXTURES.md §6.4)."""

import numpy as np

from distributed_web_crawling_system_ray.functions.codec import (
    decode_image,
    decode_lossy,
    decode_png,
    encode_lossy,
    encode_png,
    psnr,
)
from distributed_web_crawling_system_ray.functions.phash import phash64

RNG = np.random.default_rng(42)


def _img(h, w):
    return RNG.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def test_png_roundtrip_exact():
    for h, w in [(16, 16), (31, 47), (128, 64), (1, 1)]:
        img = _img(h, w)
        data = encode_png(img)
        out, fmt = decode_image(data)
        assert fmt == "png"
        assert np.array_equal(out, img)


def test_png_decoder_handles_filters():
    # synthesize a PNG with per-row filters 1..4 and check the unfilter path
    import struct
    import zlib

    from distributed_web_crawling_system_ray.functions.codec import (
        PNG_SIG,
        _png_chunk,
    )

    img = _img(5, 7)
    h, w = img.shape[:2]
    bpp = 3
    rows = []
    prev = np.zeros(w * bpp, dtype=np.int32)
    for y in range(h):
        cur = img[y].reshape(-1).astype(np.int32)
        f = y % 5
        if f == 0:
            enc = cur.copy()
        elif f == 1:  # Sub
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            enc = (cur - left) & 0xFF
        elif f == 2:  # Up
            enc = (cur - prev) & 0xFF
        elif f == 3:  # Average
            left = np.concatenate([np.zeros(bpp, np.int32), cur[:-bpp]])
            enc = (cur - ((left + prev) >> 1)) & 0xFF
        else:  # Paeth
            enc = np.zeros_like(cur)
            for x in range(w * bpp):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                enc[x] = (cur[x] - pred) & 0xFF
        rows.append(bytes([f]) + bytes(enc.astype(np.uint8)))
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    data = (
        PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(b"".join(rows)))
        + _png_chunk(b"IEND", b"")
    )
    assert np.array_equal(decode_png(data), img)


def test_lossy_psnr_above_gate():
    for h, w in [(16, 16), (100, 200)]:
        img = _img(h, w)
        out = decode_lossy(encode_lossy(img))
        assert out.shape == img.shape
        p = psnr(img, out)
        assert p >= 40.0, p  # the BASELINE.json lossy gate
        # determinism
        assert encode_lossy(img) == encode_lossy(img.copy())


def _hamming(a: int, b: int) -> int:
    return bin((a ^ b) & (2**64 - 1)).count("1")


def test_phash_properties():
    img = _img(64, 64)
    h1 = phash64(img)
    assert h1 == phash64(img.copy())  # deterministic
    assert isinstance(h1, int)
    assert -(2**63) <= h1 < 2**63
    # lossy compression barely moves the hash
    lossy = decode_lossy(encode_lossy(img))
    assert _hamming(h1, phash64(lossy)) <= 4
    # a different image is far away
    h2 = phash64(_img(64, 64))
    assert _hamming(h1, h2) > 10
    # small images work
    phash64(_img(16, 16))
    phash64(_img(16, 500))
