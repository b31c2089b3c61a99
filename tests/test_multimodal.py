"""Multimodal stage tests: image stages verified against fixture truth, and
the banded-Hamming phash near-dup join against brute force."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_web_crawling_system_ray.sources.synthweb import build_fixture

SF = "/root/testdata/sf0.001"  # maps to the t1 fixture


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_image_features_match_stored_truth():
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        image_features_table,
    )

    fixture = build_fixture("t1")
    truth = pq.read_table(
        fixture + "/images.parquet", columns=["image_id", "w", "h", "fmt", "phash"]
    ).to_pandas().set_index("image_id")
    got = image_features_table(SF).to_pandas().set_index("image_id")
    assert set(got.index) == set(truth.index)
    for col in ("w", "h", "fmt", "phash"):
        assert (got[col] == truth[col].loc[got.index]).all(), col
    assert got[["mean_r", "mean_g", "mean_b"]].min().min() >= 0
    assert got[["mean_r", "mean_g", "mean_b"]].max().max() <= 255


def test_thumbnails_bounded_and_decodable():
    from distributed_web_crawling_system_ray.functions.codec import decode_image
    from distributed_web_crawling_system_ray.stages.multimodal import resize_images

    fixture = build_fixture("t1")
    imgs = pq.read_table(fixture + "/images.parquet", columns=["image_id", "bytes"])
    out = resize_images(imgs, max_side=32)
    assert out.num_rows == imgs.num_rows
    for blob, tw, th in zip(
        out.column("thumb").to_pylist(),
        out.column("tw").to_pylist(),
        out.column("th").to_pylist(),
    ):
        px, fmt = decode_image(blob)
        assert fmt == "png"
        assert px.shape == (th, tw, 3)
        assert max(tw, th) <= 32


def test_resize_preserves_content_roughly():
    from distributed_web_crawling_system_ray.stages.multimodal import (
        _mean_pool_resize,
    )

    img = np.zeros((100, 200, 3), np.uint8)
    img[:, 100:, :] = 255  # left black, right white
    t = _mean_pool_resize(img, 20)
    assert t.shape == (10, 20, 3)
    assert t[:, :9].mean() < 10 and t[:, 11:].mean() > 245
    # no-op when already small
    small = np.full((8, 8, 3), 7, np.uint8)
    assert _mean_pool_resize(small, 32) is small


def test_phash_near_dup_finds_planted_duplicates():
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        image_phash_near_dup,
    )

    pairs = image_phash_near_dup(SF)
    # the generator plants ~4% perturbed copies; t1 is tiny so just require
    # determinism + validity
    again = image_phash_near_dup(SF)
    assert pairs.equals(again)
    a = pairs.column("a").to_pylist()
    b = pairs.column("b").to_pylist()
    assert all(x < y for x, y in zip(a, b))


def test_keyed_hamming_kernel_matches_bruteforce():
    """_keyed_hamming_id_pairs (one block of the banded-Hamming join)
    against an O(n^2) popcount brute force, on a corpus dense enough to
    exercise identical-sig clusters, cross-sig candidates, and singleton
    buckets: over the 28 phash band-pair blocks, keyed as the join keys
    them (``_block_keys``) and each given its lower blocks' masks, the
    blocking is pigeonhole-exact for Hamming<=6 and the
    concatenated output repeats no pair.  A hot bucket — 1,000 rows with
    three distinct signatures — emits its half-million pairs once each, in
    bounded time."""
    import time

    import numpy as np

    from distributed_web_crawling_system_ray.pipelines.dataops import (
        PHASH_HAMMING_MAX,
        _PHASH_MASKS,
        _block_keys,
        _keyed_hamming_id_pairs,
    )

    def all_blocks(sigs, ids):
        a_out, b_out = [], []
        for c, mask in enumerate(_PHASH_MASKS):
            a, b = _keyed_hamming_id_pairs(
                _block_keys(sigs, mask), sigs, ids, PHASH_HAMMING_MAX, _PHASH_MASKS[:c]
            )
            a_out += a.tolist()
            b_out += b.tolist()
        return list(zip(a_out, b_out))

    rng = np.random.default_rng(7)
    n = 600
    # narrow sig space + planted flips + exact copies = dense collisions
    base = rng.integers(0, 2**20, size=n, dtype=np.uint64)
    for i in range(0, 200, 2):  # near pairs
        flips = rng.integers(0, 64, size=int(rng.integers(1, 7)))
        base[i + 1] = base[i]
        for b in flips:
            base[i + 1] ^= np.uint64(1 << int(b))
    base[200:230] = base[0]  # one hot identical cluster
    ids = np.array([f"id{i:04d}" for i in range(n)])

    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")

    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            if ham(base[i], base[j]) <= PHASH_HAMMING_MAX:
                want.add((min(ids[i], ids[j]), max(ids[i], ids[j])))

    got = all_blocks(base, ids)
    assert len(got) == len(set(got))  # no pair from two blocks
    assert set(got) == want
    assert len(want) > 500  # dense: clusters + near pairs both present

    # hot bucket: 1000 rows with only 3 distinct signatures, all within
    # Hamming 3 of each other and colliding in every block
    hot = np.zeros(1000, dtype=np.uint64)
    hot[::3] = 7
    hot[1::3] = 7 ^ 0b1
    t0 = time.time()
    got = all_blocks(hot, np.arange(1000, dtype=np.int64))
    dt = time.time() - t0
    assert len(got) == 1000 * 999 // 2  # all pairs, each exactly once
    assert len(set(got)) == len(got)
    assert dt < 10.0, dt


def test_keyed_hamming_kernel_hot_key_skew():
    """One key shared by many DISTINCT sigs (the flat-image zero-band case)
    must stay correct and cost only that key's own pairs — the d-distance
    sweep is restricted to rows whose run extends d further."""
    import numpy as np

    from distributed_web_crawling_system_ray.pipelines.dataops import (
        _keyed_hamming_id_pairs,
    )

    rng = np.random.default_rng(3)
    n_hot, n_cold = 400, 4000
    # hot key 7: distinct sigs, some within Hamming<=2 of each other
    hot_sigs = rng.integers(0, 2**10, size=n_hot, dtype=np.uint64)
    cold_sigs = rng.integers(0, 2**63, size=n_cold, dtype=np.uint64)
    keys = np.concatenate(
        [np.full(n_hot, 7, np.int32), np.arange(100, 100 + n_cold, dtype=np.int32)]
    )
    sigs = np.concatenate([hot_sigs, cold_sigs])
    ids = np.array([f"i{k:05d}" for k in range(n_hot + n_cold)])
    a, b = _keyed_hamming_id_pairs(keys, sigs, ids, 2)
    got = set(zip(a.tolist(), b.tolist()))
    want = set()
    for i in range(n_hot):
        for j in range(i + 1, n_hot):
            if bin(int(hot_sigs[i]) ^ int(hot_sigs[j])).count("1") <= 2:
                want.add((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert got == want
    assert len(want) > 100  # the hot key is actually hot


def test_image_phash_clusters_consistent_with_pairs():
    """Label map equals the exact BFS components of the pair graph (so a
    cross-component merge — two real clusters sharing a label — fails);
    singletons self-label; one row per image."""
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        image_phash_clusters,
        image_phash_near_dup,
    )
    from conftest import check_cluster_labels

    sf = "/root/testdata/sf0.01"  # t2 fixture: planted dups exist
    pairs = image_phash_near_dup(sf)
    comp = check_cluster_labels(pairs, image_phash_clusters(sf), "image_id")
    assert comp  # non-vacuous
