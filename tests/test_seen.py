"""URL-seen set tests (SURVEY §5 item 1): exact membership, idempotent
check_and_add, intra-batch duplicates, snapshot/restore."""

import os

import cloudpickle
import numpy as np


def test_pool_exact_on_filter_collision(ray_session):
    """Two keys that share the low 14 bits and the 32-bit fingerprint a
    bloom+cuckoo shard keys on: an exact set must still tell them apart."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    a, b = 0xAAE6B039, 0x1503AF039
    pool = SeenPool.create(8)
    assert pool.check_and_add(np.array([a], dtype=np.uint64)).tolist() == [False]
    assert pool.check_and_add(np.array([b], dtype=np.uint64)).tolist() == [False]
    assert pool.contains(np.array([a, b, a ^ b], dtype=np.uint64)).tolist() == [
        True,
        True,
        False,
    ]


def test_shard_intra_batch_duplicates(ray_session):
    """Regression: intra-batch duplicates through the SHARD (bloom-cold path)
    must be flagged seen on their second occurrence — the discarded-return
    bug produced duplicate payload rows at t2 scale."""
    import ray

    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool = SeenPool.create(2)
    keys = np.array([111, 222, 111, 333, 222, 111], dtype=np.uint64)
    seen = pool.check_and_add(keys)
    assert list(seen) == [False, False, True, False, True, True]
    # and fully seen on a second call
    assert pool.check_and_add(keys).all()


def test_pool_k_shards_match_set_reference(ray_session):
    """K=8 logical shards: decisions match a Python-set reference, including
    intra-batch duplicates that land on different shards."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool = SeenPool.create(8)
    assert pool.k == 8
    rng = np.random.default_rng(11)
    ref: set = set()
    # shards 1 and 5: a batch alternating between them, each key repeated
    batches = [np.array([1, 5, 9, 1, 13, 5, 9, 21], dtype=np.uint64)]
    batches += [rng.integers(0, 300, size=200, dtype=np.uint64) for _ in range(6)]
    for keys in batches:
        expect = []
        for key in keys.tolist():
            expect.append(key in ref)
            ref.add(key)
        assert pool.check_and_add(keys).tolist() == expect
        probe = rng.integers(0, 400, size=300, dtype=np.uint64)
        assert pool.contains(probe).tolist() == [p in ref for p in probe.tolist()]
    assert pool.total() == len(ref)


def test_pool_snapshot_restore_roundtrip(ray_session, tmp_path):
    """A snapshot is one seen_shard_{s}.npy per logical shard holding that
    shard's sorted keys; restoring it into a fresh handle gives the same
    membership, count and later decisions."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    a = SeenPool.create(8)
    keys = np.random.default_rng(12).integers(0, 2**63, size=3000, dtype=np.uint64)
    a.check_and_add(keys)
    a.snapshot(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"seen_shard_{s}.npy" for s in range(8)
    )
    for s in range(8):
        run = np.load(tmp_path / f"seen_shard_{s}.npy")
        want = np.unique(keys[keys % np.uint64(8) == s])
        assert run.dtype == np.uint64 and np.array_equal(run, want)
    b = SeenPool.create(8)
    assert b.restore(str(tmp_path)) == a.total() == len(set(keys.tolist()))
    fresh = np.random.default_rng(13).integers(0, 2**63, size=500, dtype=np.uint64)
    probe = np.concatenate([keys[:500], fresh])
    assert np.array_equal(a.contains(probe), b.contains(probe))
    more = np.concatenate([keys[-100:], probe[-200:], probe[-200:]])
    assert np.array_equal(a.check_and_add(more), b.check_and_add(more))
    assert a.total() == b.total()


def test_pool_pickle_size_independent_of_key_count(ray_session):
    """Task closures capture the handle: it carries object refs, not keys."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool = SeenPool.create(8)
    pool.check_and_add(np.arange(8, dtype=np.uint64))  # one key per shard
    small = len(cloudpickle.dumps(pool))
    pool.check_and_add(np.arange(8, 200_008, dtype=np.uint64))
    assert pool.total() == 200_008
    assert len(cloudpickle.dumps(pool)) == small < 4096
