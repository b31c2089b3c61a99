"""Image codecs for the payload (bytes) column.

The container ships no image libraries (no PIL / cv2), so per the build
contract the codecs are self-contained:

- **PNG** — a real, spec-conformant encoder/decoder (8-bit RGB, filter 0)
  built on ``zlib`` + ``struct``.  Output parses in any PNG reader; the
  decoder handles all five PNG scanline filters.
- **"jpeg"** — a clearly-marked deterministic STAND-IN lossy codec ("QJPG"):
  uniform quantization (step 4) + zlib.  It is *not* JPEG bitstream; it is a
  deterministic lossy transform with PSNR ≈ 48 dB (>= the 40 dB gate in
  BASELINE.json input_hint), used so the lossy branch of the per-row pixel
  invariant is exercised end-to-end.  Swap in a real JPEG codec by replacing
  ``encode_lossy`` / ``decode_lossy``; everything else (schema, batch sizing,
  actor signature) is codec-agnostic.

Reference analog: the crawler stores raw response bodies to S3
(``crawler/crawler_node.py:246-284``); decode/verify is new surface required
by the image+caption payload of this rebuild.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
QJPG_SIG = b"QJPG"
_QJPG_STEP = 4  # quantization step -> MSE ~= step^2/12 -> PSNR ~= 47-48 dB


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray, level: int = 6) -> bytes:
    """Encode an (h, w, 3) uint8 array as a real RGB8 PNG (filter 0)."""
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # filter byte 0 prepended to every scanline
    raw = np.empty((h, w * 3 + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = img.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return (
        PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters. raw: (h, stride+1) with filter byte col 0."""
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        f = int(raw[y, 0])
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, np.int32)
        if f == 0:
            out[y] = line.astype(np.uint8)
        elif f == 2:  # Up
            out[y] = ((line + prev) & 0xFF).astype(np.uint8)
        else:  # Sub / Average / Paeth need left-neighbor recurrence
            cur = np.zeros(stride, dtype=np.int32)
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                if f == 1:  # Sub
                    v = line[x] + a
                elif f == 3:  # Average
                    v = line[x] + ((a + b) >> 1)
                elif f == 4:  # Paeth
                    c = prev[x - bpp] if x >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                    v = line[x] + pred
                else:
                    raise ValueError(f"bad PNG filter {f}")
                cur[x] = v & 0xFF
            out[y] = cur.astype(np.uint8)
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB PNG produced by any conformant encoder."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", body)
            if depth != 8 or ctype != 2 or interlace != 0:
                raise ValueError("only 8-bit RGB non-interlaced PNG supported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    stride = w * 3
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    raw = raw.reshape(h, stride + 1)
    if (raw[:, 0] == 0).all():  # fast path: our encoder (filter 0 everywhere)
        # raw[:, 1:] is a strided view, so reshape already materializes one
        # (writable) copy — a further .copy() would double the write traffic
        # of the decode hot path.  Only h == 1 makes the slice contiguous,
        # where reshape stays a read-only view of the frombuffer — copy then.
        out = raw[:, 1:].reshape(h, w, 3)
        return out if out.flags.writeable else out.copy()
    return _unfilter(raw, h, stride, 3).reshape(h, w, 3)


def encode_lossy(img: np.ndarray) -> bytes:
    """Deterministic lossy stand-in codec (see module docstring)."""
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3
    h, w = img.shape[:2]
    q = (img // _QJPG_STEP).astype(np.uint8)
    return (
        QJPG_SIG
        + struct.pack(">IIB", w, h, _QJPG_STEP)
        + zlib.compress(q.tobytes(), 6)
    )


def decode_lossy(data: bytes) -> np.ndarray:
    if data[:4] != QJPG_SIG:
        raise ValueError("not a QJPG payload")
    w, h, step = struct.unpack_from(">IIB", data, 4)
    q = np.frombuffer(zlib.decompress(data[13:]), dtype=np.uint8)
    img = q.astype(np.uint16) * step + step // 2
    return np.minimum(img, 255).astype(np.uint8).reshape(h, w, 3)


def decode_image(data: bytes) -> tuple[np.ndarray, str]:
    """Decode by magic bytes; returns (pixels, fmt in {'png','jpeg'})."""
    if data[:8] == PNG_SIG:
        return decode_png(data), "png"
    if data[:4] == QJPG_SIG:
        return decode_lossy(data), "jpeg"
    raise ValueError("unknown image payload")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical arrays."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
