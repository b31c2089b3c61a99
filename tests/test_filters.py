"""Bloom/cuckoo filter unit tests (SURVEY §5 item 1): no false negatives,
bounded false positives, idempotent check_and_add, snapshot/restore."""

import os

import numpy as np

from distributed_web_crawling_system_ray.state.filters import BloomFilter, CuckooFilter

RNG = np.random.default_rng(7)


def test_bloom_no_false_negatives():
    f = BloomFilter(n_bits=1 << 16)
    keys = RNG.integers(0, 2**63, size=2000, dtype=np.uint64)
    f.add(keys)
    assert f.contains(keys).all()


def test_bloom_fp_rate_bounded():
    f = BloomFilter(n_bits=1 << 20)
    keys = RNG.integers(0, 2**63, size=10_000, dtype=np.uint64)
    f.add(keys)
    other = RNG.integers(0, 2**63, size=10_000, dtype=np.uint64)
    fp = f.contains(other).mean()
    assert fp < 0.01, fp


def test_cuckoo_check_and_add_semantics():
    f = CuckooFilter(capacity=1 << 14)
    keys = RNG.integers(0, 2**63, size=5000, dtype=np.uint64)
    first = f.check_and_add(keys)
    assert not first.any()  # all new
    again = f.check_and_add(keys)
    assert again.all()  # idempotent: everything now seen
    assert f.contains(keys).all()  # no false negatives
    assert f.count == 5000


def test_cuckoo_intra_batch_duplicates():
    f = CuckooFilter(capacity=1 << 10)
    keys = np.array([42, 42, 7, 42, 7], dtype=np.uint64)
    seen = f.check_and_add(keys)
    assert list(seen) == [False, True, False, True, True]


def test_cuckoo_fp_rate_tiny():
    f = CuckooFilter(capacity=1 << 16)
    keys = RNG.integers(0, 2**63, size=30_000, dtype=np.uint64)
    f.check_and_add(keys)
    other = RNG.integers(0, 2**63, size=50_000, dtype=np.uint64)
    fps = int(f.contains(other).sum())
    # 32-bit fingerprints: expected FP ~ 50k * 8 * 2^-32 ~= 1e-4
    assert fps <= 2, fps


def test_cuckoo_overflow_keeps_exactness():
    # force saturation: tiny capacity, many keys -> stash absorbs overflow
    f = CuckooFilter(capacity=256)
    keys = RNG.integers(0, 2**63, size=2000, dtype=np.uint64)
    f.check_and_add(keys)
    assert f.contains(keys).all()  # still no false negatives


def test_snapshot_restore_roundtrip():
    f = CuckooFilter(capacity=1 << 12)
    b = BloomFilter(n_bits=1 << 14)
    keys = RNG.integers(0, 2**63, size=3000, dtype=np.uint64)
    f.check_and_add(keys)
    b.add(keys)
    f2 = CuckooFilter.restore_state(f.snapshot_state())
    b2 = BloomFilter.restore_state(b.snapshot_state())
    assert f2.contains(keys).all()
    assert b2.contains(keys).all()
    assert f2.count == f.count
    # restored filter keeps behaving identically on new inserts
    more = RNG.integers(0, 2**63, size=100, dtype=np.uint64)
    assert (f.check_and_add(more) == f2.check_and_add(more)).all()


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


def test_pool_hosts_k_shards_on_fewer_actors(ray_session):
    """K=8 logical shards on the 4-CPU session -> 4 host actors holding two
    shards each; decisions match a Python-set reference, including
    intra-batch duplicates that land on different shards of one actor."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool = SeenPool.create(8)
    assert pool.k == 8
    assert len(pool.hosts) == 4
    rng = np.random.default_rng(11)
    ref: set = set()
    # shards 1 and 5 share actor 1: a batch alternating between them, each
    # key repeated, exercises both shards of one host in one RPC
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


def test_pool_restore_into_other_host_count(ray_session, tmp_path):
    """A checkpoint taken with n host actors restores into m != n: same
    membership and count, same later decisions, and the snapshot directory
    holds exactly one seen_shard_{s}.pkl per logical shard."""
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    a = SeenPool.create(8)
    keys = np.random.default_rng(12).integers(0, 2**63, size=3000, dtype=np.uint64)
    a.check_and_add(keys)
    a.snapshot(str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"seen_shard_{s}.pkl" for s in range(8)
    )
    b = SeenPool(8, 3)
    assert len(b.hosts) != len(a.hosts)
    assert b.restore(str(tmp_path)) == a.total() == len(set(keys.tolist()))
    fresh = np.random.default_rng(13).integers(0, 2**63, size=500, dtype=np.uint64)
    probe = np.concatenate([keys[:500], fresh])
    assert np.array_equal(a.contains(probe), b.contains(probe))
    more = np.concatenate([keys[-100:], probe[-200:], probe[-200:]])
    assert np.array_equal(a.check_and_add(more), b.check_and_add(more))
    assert a.total() == b.total()
