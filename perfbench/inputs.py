"""Seeded benchmark inputs, generated once per (shape, seed) and cached.

Inputs are written under the cache directory with a stamp file naming the
exact parameters, so a later run with the same seed reuses them and a run
with another seed never sees stale files.  Generation is outside every
timed region and outside ``setup_s``.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq


def _cached(cache_dir: str, key: dict, build) -> str:
    """Return the directory for ``key``, calling ``build(tmp_dir)`` once."""
    name = "-".join(f"{k}{v}" for k, v in sorted(key.items()))
    d = os.path.join(cache_dir, name)
    stamp = os.path.join(d, "_STAMP")
    want = json.dumps(key, sort_keys=True)
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == want:
                return d
    tmp = d + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, "_STAMP"), "w") as f:
        f.write(want)
    shutil.rmtree(d, ignore_errors=True)
    os.replace(tmp, d)
    return d


def web(cache_dir: str, n_pages: int, seed: int) -> str:
    """A synthetic web (``sources.synthweb``) in the crawl fixture layout."""
    from distributed_web_crawling_system_ray.sources import synthweb

    def build(d: str) -> None:
        params = synthweb.WebParams(
            n_pages=n_pages, seed=seed, include_pixel_oracle=False, max_dim=256
        )
        for name, tbl in synthweb.generate(params).items():
            # same layout as synthweb.build_fixture: image bytes stored
            # uncompressed so the store broadcast reads them zero-copy
            comp = "none" if name == "images" else "snappy"
            pq.write_table(tbl, os.path.join(d, f"{name}.parquet"), compression=comp)

    return _cached(cache_dir, {"web": n_pages, "seed": seed}, build)


class _RecordingRng:
    """Delegates to a numpy Generator and records every draw made without
    replacement: ``sources.scaleup`` plants its near-dup pairs at indices it
    draws that way, so the record is the list of planted pairs."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.victims: list[np.ndarray] = []

    def choice(self, a, size=None, replace=True, p=None):
        out = self._rng.choice(a, size=size, replace=replace, p=p)
        if not replace:
            self.victims.append(np.asarray(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def corpus(
    cache_dir: str, seed: int, n_docs: int, n_vecs: int = 0, n_imgs: int = 0
) -> str:
    """A corpus in ``sources.scaleup``'s sf1 shape at the given sizes.

    Writes ``documents.parquet`` (and ``embeddings.parquet`` /
    ``images.parquet`` when asked) plus ``planted.json``: the doc and image
    index pairs the generator planted as near-duplicates."""
    from distributed_web_crawling_system_ray.sources import scaleup

    def build(d: str) -> None:
        rng = _RecordingRng(np.random.default_rng(seed))
        scaleup._write_documents(d, rng, n_docs)
        planted = {"docs": rng.victims.pop().reshape(-1, 2).tolist()}
        if n_vecs:
            scaleup._write_embeddings(d, rng, n_vecs)
        if n_imgs:
            scaleup._write_images(d, rng, n_imgs)
            planted["images"] = rng.victims.pop().reshape(-1, 2).tolist()
        with open(os.path.join(d, "planted.json"), "w") as f:
            json.dump(planted, f)

    key = {"docs": n_docs, "vecs": n_vecs, "imgs": n_imgs, "seed": seed}
    return _cached(cache_dir, key, build)
