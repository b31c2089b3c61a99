"""Deterministic 10x ("sf1") scale-evidence fixture.

The driver testdata stops at sf0.1 (5k docs / 2k vectors / 25k images).  The
100x-scale claims for the heavy dataops rested on design reads, not
measurements (r4 verdict item 5) — this module synthesizes a 10x corpus of
exactly the same shape so BENCH can measure the three heaviest operators
(MinHash near-dup, IVF ANN, phash near-dup) and index-at-depth
search latency on a corpus an order of magnitude past the bench scale.

Shape parity with the sf0.1 tables (measured, not assumed):
- documents: 31-word vocabulary, empirical unigram weights, lengths 10-100,
  5-language mix (~41% en), 20 sources, near-dup pairs planted at the
  sf0.01/sf0.1 rate (~5% of docs in a pair, small edits keeping 3-gram
  Jaccard >= 0.8).
- embeddings: unit-norm dim-64 vectors in 10 Gaussian label clusters.
- images: (image_id, phash) at 10x the bench fixture's 25k rows with
  near-dup phash pairs planted (<=6 flipped bits ~ Hamming <= 6).

Everything is seeded (seed=42 like the driver's tables); the fixture is
content-stamped and cached under /tmp.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SF1_ROOT = "/tmp/graft_sf1"
_STAMP = "sf1-v2:docs=50000,emb=20000,img=250000,seed=42"

# the sf0.1 documents vocabulary (31 words) with rounded empirical unigram
# weights — sampled texts reproduce the testdata's token distribution
_VOCAB = [
    "a", "agg", "batch", "big", "column", "customer", "data", "dup", "fast",
    "filter", "group", "hash", "join", "key", "line", "merge", "order",
    "part", "query", "row", "scan", "slow", "small", "sort", "spark",
    "stream", "table", "the", "value", "vector", "window",
]
_LANGS = ["en", "zh", "es", "fr", "de"]
_LANG_P = [0.41, 0.15, 0.15, 0.15, 0.14]


def _write_documents(root: str, rng: np.random.Generator, n_docs: int) -> None:
    lengths = rng.integers(10, 101, size=n_docs)
    vocab = np.array(_VOCAB)
    texts: list[str] = []
    for ln in lengths:
        texts.append(" ".join(vocab[rng.integers(0, len(vocab), size=ln)]))
    # plant near-dups: ~2.5% of docs get a partner that is a copy with 2
    # word substitutions (3-gram Jaccard stays >= ~0.85 at median length)
    n_pairs = n_docs // 40
    victims = rng.choice(n_docs, size=2 * n_pairs, replace=False)
    for i in range(n_pairs):
        a, b = int(victims[2 * i]), int(victims[2 * i + 1])
        words = texts[a].split()
        if len(words) < 30:
            continue  # short docs lose too much Jaccard per edit
        for pos in rng.integers(0, len(words), size=2):
            words[int(pos)] = str(vocab[int(rng.integers(0, len(vocab)))])
        texts[b] = " ".join(words)
    langs = rng.choice(_LANGS, size=n_docs, p=_LANG_P)
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs.tolist(), pa.string()),
            "source": pa.array(
                [f"src{i % 20}" for i in range(n_docs)], pa.string()
            ),
            "n_chars": pa.array(
                np.array([len(t) for t in texts], dtype=np.int64), pa.int64()
            ),
        }
    )
    pq.write_table(tbl, os.path.join(root, "documents.parquet"))


def _write_embeddings(root: str, rng: np.random.Generator, n_vecs: int) -> None:
    dim, n_labels = 64, 10
    centers = rng.normal(size=(n_labels, dim)).astype(np.float32)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, n_labels, size=n_vecs).astype(np.int32)
    vecs = centers[labels] + 0.35 * rng.normal(size=(n_vecs, dim)).astype(
        np.float32
    )
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n_vecs, dtype=np.int64), pa.int64()),
            "embedding": pa.array(
                list(vecs), pa.list_(pa.float32())
            ),
            "label": pa.array(labels, pa.int32()),
        }
    )
    pq.write_table(tbl, os.path.join(root, "embeddings.parquet"))


def _write_images(root: str, rng: np.random.Generator, n_imgs: int) -> None:
    ph = rng.integers(0, 2**63, size=n_imgs, dtype=np.int64)
    # planted phash near-dups: partner = base with <=3 bits flipped
    n_pairs = n_imgs // 250
    victims = rng.choice(n_imgs, size=2 * n_pairs, replace=False)
    for i in range(n_pairs):
        a, b = int(victims[2 * i]), int(victims[2 * i + 1])
        flipped = np.uint64(ph[a])
        for bit in rng.integers(0, 64, size=int(rng.integers(1, 4))):
            flipped = flipped ^ np.uint64(1 << int(bit))
        ph[b] = np.int64(flipped.astype(np.uint64).view(np.int64))
    # image_id is a content-hash string in the crawl fixture; keep the type
    ids = [f"{i:032x}" for i in range(n_imgs)]
    tbl = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "phash": pa.array(ph, pa.int64()),
        }
    )
    pq.write_table(tbl, os.path.join(root, "images.parquet"))


def build_sf1(root: str = SF1_ROOT) -> str:
    """Build (or reuse, stamp-checked) the 10x fixture; returns its dir."""
    stamp_file = os.path.join(root, "_STAMP")
    if os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == _STAMP:
                return root
    os.makedirs(root, exist_ok=True)
    rng = np.random.default_rng(42)
    _write_documents(root, rng, 50_000)
    _write_embeddings(root, rng, 20_000)
    _write_images(root, rng, 250_000)
    with open(stamp_file, "w") as f:
        f.write(_STAMP)
    with open(os.path.join(root, "meta.json"), "w") as f:
        json.dump({"stamp": _STAMP}, f)
    return root
