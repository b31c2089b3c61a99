"""64-bit perceptual hash (classic DCT pHash), numpy-only.

Deterministic pipeline: RGB -> luma -> 32x32 area-mean resize -> orthonormal
2D DCT-II -> top-left 8x8 block -> threshold the 63 AC coefficients at their
median -> pack 64 bits (bit 0, the DC slot, is always 0) into int64.

Near-dup by phash is listed as future work in the reference
(``system_architecture_v3.md:319``); here it is a first-class payload column
(BASELINE.json input_hint) and powers the near-dup operators in
``pipelines/dataops.py``.
"""

from __future__ import annotations

import numpy as np

_N = 32  # resize target / DCT size


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.cos(np.pi * (2 * i + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] /= np.sqrt(2.0)
    return m


_DCT = _dct_matrix(_N)


def _resize_area(gray: np.ndarray, n: int) -> np.ndarray:
    """Area-mean resize to (n, n) via two reduceat passes — deterministic,
    O(hw) with tiny intermediates (an integral-image variant allocated an
    (h+1)x(w+1) float64 plane per call, whose memory traffic became the
    node-level bottleneck with 32 concurrent decode workers)."""
    h, w = gray.shape
    # upscale-by-repetition first when a side is smaller than n, so every
    # output cell covers >= 1 source pixel
    if h < n:
        gray = np.repeat(gray, -(-n // h), axis=0)
        h = gray.shape[0]
    if w < n:
        gray = np.repeat(gray, -(-n // w), axis=1)
        w = gray.shape[1]
    ys = (np.arange(n + 1) * h) // n
    xs = (np.arange(n + 1) * w) // n
    rows = np.add.reduceat(gray, ys[:-1], axis=0, dtype=np.float64)
    cells = np.add.reduceat(rows, xs[:-1], axis=1, dtype=np.float64)
    area = (ys[1:] - ys[:-1])[:, None] * (xs[1:] - xs[:-1])[None, :]
    return cells / np.maximum(area, 1)


def phash64(img: np.ndarray) -> int:
    """Perceptual hash of an (h, w, 3) uint8 image, as signed int64.

    Luma uses exact integer weights 77/150/29 (sum 256, ~BT.601 x256) in
    uint16 — 4x less memory traffic than float64 and bit-deterministic; the
    uniform x256 scale cancels in the median-threshold comparison (DC is
    excluded), so no division is needed.
    """
    # channel-at-a-time with in-place ops: never materializes the full
    # uint16 image, only one h*w plane at a time (max value 77*255 +
    # 150*255 + 29*255 = 65280 < 2^16, same integers as the old
    # whole-image form — bit-identical hash)
    gray = img[:, :, 0].astype(np.uint16)
    gray *= 77
    ch = img[:, :, 1].astype(np.uint16)
    ch *= 150
    gray += ch
    ch = img[:, :, 2].astype(np.uint16)
    ch *= 29
    gray += ch
    small = _resize_area(gray, _N)
    dct = _DCT @ small @ _DCT.T
    block = dct[:8, :8].flatten()
    ac = block[1:]
    med = np.median(ac)
    bits = np.zeros(64, dtype=bool)
    bits[1:] = ac > med
    packed = np.uint64(0)
    # pack: bit index i -> bit (63 - i), MSB first
    val = 0
    for i in range(64):
        val = (val << 1) | int(bits[i])
    return int(np.int64(np.uint64(val)))
