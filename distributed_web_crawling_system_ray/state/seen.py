"""Exact, sharded URL-seen set — the semantic heart of the crawler.

Replaces the reference master's single in-memory ``seen_urls`` set and its
check-then-add loop (``master/master_node.py:44-45,62-67,167-173``) with K
logical shards over 64-bit canonical URL hashes, routed by ``url_hash % K``.
Each shard is ONE sorted, duplicate-free ``uint64`` array held in the Ray
object store (``ray.put``); the handle holds only the K ObjectRefs.  This is
the batch-merge URL-seen test of Mercator (Heydon & Najork, WWW 1999) and
IRLbot's DRUM (Lee et al., WWW 2008): membership is a ``np.searchsorted``
equality test against the sorted keys, and admission merges a batch of new
keys into them.  Verdicts are exact — no false positives, no false negatives.

Mutation discipline: ``check_and_add`` is called ONLY from driver code (once
per round / seed batch), never from inside retryable Ray Data tasks — a
retried task would see its first attempt's inserts and filter its own rows
out, silently dropping URLs (lineage reconstruction loses the original
output).  Tasks use the pure ``contains`` anti-join: a task closure carries
the ObjectRefs it was submitted with, so a re-executed task reads the same
immutable arrays as its first attempt.  The driver admits the materialized
survivors exactly once, replacing each touched shard's ref.

Checkpoint layout: one ``seen_shard_{s}.npy`` per logical shard (K sets it).

Scale note: 8 B/key in the driver node's object store, which spills to disk
under memory pressure (unlike actor heap): 10^9 keys ≈ 8 GB.  Every admit
rewrites the touched shards and every round's snapshot writes the whole set,
so the per-round cost is linear in the set size.  At 10^7 keys (K=8, one
Xeon vCPU) a round's ``contains`` of 10^5 candidates took 0.07 s, the merge
of 5*10^4 new keys 0.13 s and the snapshot 0.03 s.  Sets beyond one node's
object store need candidates partitioned by shard and joined per partition
next to the shard's data; that is not implemented here.
"""

from __future__ import annotations

import copy
import os

import numpy as np
import ray


def _shard_path(directory: str, shard: int) -> str:
    return os.path.join(directory, f"seen_shard_{shard}.npy")


def _member(run: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """True where ``keys`` occur in the sorted array ``run``."""
    pos = np.searchsorted(run, keys)
    hit = pos < len(run)
    hit[hit] = run[pos[hit]] == keys[hit]
    return hit


class SeenPool:
    """Driver-/task-side handle over K logical shards of sorted keys.

    The handle (K ObjectRefs) is cheap to capture in ``map_batches``
    closures; its size does not grow with the number of keys.
    """

    def __init__(self, k: int):
        self.k = k
        self.refs = [ray.put(np.zeros(0, dtype=np.uint64))] * k

    @classmethod
    def create(cls, k: int) -> "SeenPool":
        return cls(k)

    def _shards(self, keys: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """(shard, indices into ``keys``) for every shard the batch touches."""
        owner = keys % np.uint64(self.k)
        return [(s, np.flatnonzero(owner == s)) for s in np.unique(owner).tolist()]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Pure membership test; preserves input order."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(len(keys), dtype=bool)
        parts = self._shards(keys)
        runs = ray.get([self.refs[s] for s, _ in parts])
        for (_, idx), run in zip(parts, runs):
            out[idx] = _member(run, keys[idx])
        return out

    def check_and_add(self, keys: np.ndarray) -> np.ndarray:
        """Batched first-seen: True where the key was already seen, either
        before this call or earlier in ``keys``; unseen keys become seen."""
        keys = np.asarray(keys, dtype=np.uint64)
        seen = self.contains(keys)
        uniq, first = np.unique(keys, return_index=True)
        new = uniq[~seen[first]]  # sorted, unique
        repeat = np.ones(len(keys), dtype=bool)
        repeat[first] = False
        for s, idx in self._shards(new):
            add = new[idx]
            run = ray.get(self.refs[s])
            self.refs[s] = ray.put(np.insert(run, np.searchsorted(run, add), add))
        return seen | repeat

    def frozen(self) -> "SeenPool":
        """A handle on the keys held now.  Admission replaces shard refs in
        ``self`` only and never changes a shard array, so the view is a
        snapshot that costs K refs."""
        view = copy.copy(self)
        view.refs = list(self.refs)
        return view

    def total(self) -> int:
        return sum(len(run) for run in ray.get(self.refs))

    def snapshot(self, directory: str) -> list[str]:
        os.makedirs(directory, exist_ok=True)
        paths = [_shard_path(directory, s) for s in range(self.k)]
        for path, run in zip(paths, ray.get(self.refs)):
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                np.save(f, run)
            os.replace(tmp, path)
        return paths

    def restore(self, directory: str) -> int:
        self.refs = [
            ray.put(np.load(_shard_path(directory, s))) for s in range(self.k)
        ]
        return self.total()
