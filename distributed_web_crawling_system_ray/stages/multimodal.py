"""Image payload stages: decode / resize / feature-extract.

Image stages use self-contained codecs and numpy kernels
(``functions/codec.py``).  Formats needing a codec this container doesn't
ship hit the same drop path as undecodable images; swapping one in touches
only the per-item decode body.  All stages are Arrow-in/Arrow-out
``map_batches`` bodies over binary payload columns; batch sizing must be
byte-based for large media (CrawlConfig.decode_batch_size notes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from distributed_web_crawling_system_ray.functions.codec import (
    decode_image,
    encode_png,
)
from distributed_web_crawling_system_ray.functions.phash import phash64

def _mean_pool_resize(img: np.ndarray, max_side: int) -> np.ndarray:
    """Deterministic area-mean downscale keeping aspect ratio (no-op if the
    image already fits)."""
    h, w = img.shape[:2]
    scale = max(h, w) / max_side
    if scale <= 1.0:
        return img
    th = max(1, int(h / scale))
    tw = max(1, int(w / scale))
    ys = (np.arange(th + 1) * h) // th
    xs = (np.arange(tw + 1) * w) // tw
    acc = np.add.reduceat(img.astype(np.float64), ys[:-1], axis=0)
    acc = np.add.reduceat(acc, xs[:-1], axis=1)
    area = ((ys[1:] - ys[:-1])[:, None] * (xs[1:] - xs[:-1])[None, :])[:, :, None]
    return np.clip(acc / area, 0, 255).astype(np.uint8)


def resize_images(batch: pa.Table, *, max_side: int = 64) -> pa.Table:
    """Payload rows -> PNG thumbnails (REAL)."""
    ids, thumbs, tws, ths = [], [], [], []
    for iid, blob in zip(
        batch.column("image_id").to_pylist(), batch.column("bytes").to_pylist()
    ):
        try:
            px, _ = decode_image(blob)
        except Exception:
            continue
        t = _mean_pool_resize(px, max_side)
        ids.append(iid)
        thumbs.append(encode_png(t))
        ths.append(t.shape[0])
        tws.append(t.shape[1])
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "thumb": pa.array(thumbs, pa.binary()),
            "tw": pa.array(tws, pa.int32()),
            "th": pa.array(ths, pa.int32()),
        }
    )


def image_features(batch: pa.Table) -> pa.Table:
    """Payload rows -> decoded feature rows (REAL): dims, format, mean color,
    perceptual hash."""
    ids, ws, hs, fmts, mr, mg, mb, phs = [], [], [], [], [], [], [], []
    for iid, blob in zip(
        batch.column("image_id").to_pylist(), batch.column("bytes").to_pylist()
    ):
        try:
            px, fmt = decode_image(blob)
        except Exception:
            continue
        m = px.reshape(-1, 3).mean(axis=0)
        ids.append(iid)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        fmts.append(fmt)
        mr.append(int(round(m[0])))
        mg.append(int(round(m[1])))
        mb.append(int(round(m[2])))
        phs.append(phash64(px))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "mean_r": pa.array(mr, pa.int32()),
            "mean_g": pa.array(mg, pa.int32()),
            "mean_b": pa.array(mb, pa.int32()),
            "phash": pa.array(phs, pa.int64()),
        }
    )

