"""Sharded URL-seen actor pool — the semantic heart of the crawler.

Replaces the reference master's single in-memory ``seen_urls`` set and its
check-then-add loop (``master/master_node.py:44-45,62-67,167-173``) with K
logical shards, each owning a bloom pre-filter + cuckoo filter over 64-bit
canonical URL hashes.  Routing is ``url_hash % K`` — a broadcast-free stateful
anti-join (SURVEY §2.4 J1): membership RPCs go only to the owning shard's
host, so dedup never requires an all-to-all shuffle of the candidate set.

Layout: K sets routing and the checkpoint layout (one ``seen_shard_{s}.pkl``
per logical shard); the cluster size sets the process count.  The K shards
live in ``n = min(K, cluster CPUs)`` host actors, logical shard ``s`` on
actor ``s % n``, and every batched call sends one RPC per host actor.  Every
actor is a fresh Python worker process, so on a small cluster this spares
the start-up cost of K processes without changing a single filter decision —
a checkpoint taken with n hosts restores into any other m.

Mutation discipline: ``check_and_add`` is called ONLY from driver code (once
per round / seed batch), never from inside retryable Ray Data tasks — a
retried task would see its first attempt's inserts and filter its own rows
out, silently dropping URLs (lineage reconstruction loses the original
output).  Tasks use the pure ``contains`` anti-join; the driver admits the
materialized survivors exactly once.

Scale note: 10^10 keys / K=32 shards ≈ 3.1e8 keys/shard ≈ 1.7 GB/shard at
~5.3 B/key — sized explicitly, snapshotted to the round checkpoint
(actor heap state is not covered by object-store spilling).
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import ray

from distributed_web_crawling_system_ray.state.filters import BloomFilter, CuckooFilter


def _shard_path(directory: str, shard: int) -> str:
    return os.path.join(directory, f"seen_shard_{shard}.pkl")


@ray.remote(num_cpus=0)
class UrlSeenShard:
    # num_cpus=0: a pure state server — RPC work is short and bursty, and
    # reserving whole cores for the hosts would starve the map stages on a
    # fixed-size node.  Placement spreads via Ray's default SPREAD for actors.
    """Host of a set of logical shards, each a bloom pre-filter (cheap
    definitely-new test) + cuckoo filter (compact membership, no false
    negatives) over url_hash keys.  Calls carry ``[(shard, keys), ...]`` and
    return one result per part, in order."""

    def __init__(self, shard_ids: list[int], cuckoo_capacity: int, bloom_bits: int):
        self.filters = {
            s: (
                BloomFilter(n_bits=bloom_bits),
                CuckooFilter(capacity=cuckoo_capacity, seed=0x5EED ^ s),
            )
            for s in shard_ids
        }

    def check_and_add(self, parts: list) -> list[np.ndarray]:
        """True where already seen; unseen keys become seen."""
        out = []
        for s, keys in parts:
            bloom, cuckoo = self.filters[s]
            maybe = bloom.contains(keys)  # False -> definitely new
            seen = np.zeros(len(keys), dtype=bool)
            if maybe.any():
                idx = np.flatnonzero(maybe)
                seen[idx] = cuckoo.check_and_add(keys[idx])
            new_idx = np.flatnonzero(~maybe)
            if len(new_idx):
                # bloom said "definitely new" — but the cuckoo's verdict must
                # still be kept: an INTRA-batch duplicate (same key twice in
                # one call, both missing from the bloom) is "seen" on its
                # second occurrence.  Discarding this once produced duplicate
                # payload rows whenever two pages referencing the same image
                # landed in one coalesced filter batch.
                seen[new_idx] = cuckoo.check_and_add(keys[new_idx])
            bloom.add(keys[~seen])
            out.append(seen)
        return out

    def contains(self, parts: list) -> list[np.ndarray]:
        return [self.filters[s][1].contains(keys) for s, keys in parts]

    def count(self) -> int:
        return sum(cuckoo.count for _, cuckoo in self.filters.values())

    def snapshot(self, directory: str) -> None:
        for s, (bloom, cuckoo) in self.filters.items():
            path = _shard_path(directory, s)
            state = {
                "shard_id": s,
                "bloom": bloom.snapshot_state(),
                "cuckoo": cuckoo.snapshot_state(),
            }
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                pickle.dump(state, f, protocol=4)
            os.replace(tmp, path)

    def restore(self, directory: str) -> int:
        for s in self.filters:
            with open(_shard_path(directory, s), "rb") as f:
                state = pickle.load(f)
            self.filters[s] = (
                BloomFilter.restore_state(state["bloom"]),
                CuckooFilter.restore_state(state["cuckoo"]),
            )
        return self.count()


class SeenPool:
    """Driver-/task-side handle over K logical shards on ``n`` host actors.

    The handle (actor refs only) is cheap to capture in ``map_batches``
    closures; each batched call fans out at most one RPC per host actor.
    """

    def __init__(
        self, k: int, n: int, cuckoo_capacity: int = 1 << 16, bloom_bits: int = 1 << 20
    ):
        self.k = k
        self.hosts = [
            UrlSeenShard.remote(list(range(a, k, n)), cuckoo_capacity, bloom_bits)
            for a in range(n)
        ]

    @classmethod
    def create(
        cls, k: int, cuckoo_capacity: int = 1 << 16, bloom_bits: int = 1 << 20
    ) -> "SeenPool":
        """K logical shards on ``min(K, cluster CPUs)`` host actors."""
        n = max(1, min(k, int(ray.cluster_resources().get("CPU", 1))))
        return cls(k, n, cuckoo_capacity, bloom_bits)

    def _call(self, method: str, keys: np.ndarray) -> np.ndarray:
        """Routes keys to their shards, one RPC per host; input order kept."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        if len(keys) == 0:
            return out
        n = len(self.hosts)
        owner = (keys % np.uint64(self.k)).astype(np.int64)
        parts: list[list] = [[] for _ in range(n)]
        idxs: list[list] = [[] for _ in range(n)]
        for s in range(self.k):
            idx = np.flatnonzero(owner == s)
            if len(idx):
                parts[s % n].append((s, keys[idx]))
                idxs[s % n].append(idx)
        busy = [a for a in range(n) if parts[a]]
        results = ray.get(
            [getattr(self.hosts[a], method).remote(parts[a]) for a in busy]
        )
        for a, host_results in zip(busy, results):
            for idx, res in zip(idxs[a], host_results):
                out[idx] = res
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Batched first-seen across shards; preserves input order."""
        return self._call("check_and_add", keys)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self._call("contains", keys)

    def total(self) -> int:
        return sum(ray.get([h.count.remote() for h in self.hosts]))

    def snapshot(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        ray.get([h.snapshot.remote(directory) for h in self.hosts])
        return [_shard_path(directory, s) for s in range(self.k)]

    def restore(self, directory: str) -> int:
        return sum(ray.get([h.restore.remote(directory) for h in self.hosts]))
