"""Crawl configuration.

Replaces the reference's CLI-flag surface (``--seed-urls --use-sqs --s3-bucket
--user-agent``, reference ``master/master_node.py:276-289``,
``crawler/crawler_node.py:410-416``) with one config dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CrawlConfig:
    """All knobs for one crawl run.

    The politeness semantics mirror the reference v1 crawler
    (``archive/crawler_node.py:29-34,67-75``): per-host crawl delay from
    robots.txt, min 1 s, default 1 s, conservative 3 s when robots.txt cannot
    be fetched.  Politeness here is enforced by per-host scheduler shards in
    *virtual time* (a deterministic fetch_at schedule); ``real_time_politeness``
    additionally throttles wall-clock (off in tests/bench, as the reference's
    own optimizer flags worker-side sleeps as its top bottleneck,
    ``performance_optimizer.py:529-537``).
    """

    user_agent: str = "RayCrawlBot/1.0"
    # depth cap: links discovered beyond this depth are not enqueued (the
    # reference crawls unbounded; the oracle mirrors this knob for tests)
    max_depth: int = 1 << 30
    max_rounds: int = 64
    fetch_timeout_s: float = 10.0          # crawler_node.py:299
    # crawl-delay policy constants (v3 fixed 1 s, v1 conservative 3 s
    # fallback) live with the robots parser: state/robots.py
    # DEFAULT_DELAY_MS / CONSERVATIVE_DELAY_MS.

    # sharding / parallelism
    # logical seen shards K: sets url_hash % K routing and the checkpoint
    # layout (one sorted uint64 key array per shard, state/seen.py)
    seen_shards: int = 8
    fetch_batch_size: int = 256
    # decode batch sizing: rows are wide (binary image bytes) — size by
    # payload bytes, not row count, when images are large.  512 x ~60 KB
    # fixture images ~= 30 MB/batch; at tiny batches (64) per-task overhead
    # dominated 7x over decode compute (measured in a round-5 replay).
    decode_batch_size: int = 512
    # hot-host bound: at most this many URLs are scheduled per host per round
    # (priority order); overflow is deferred to the next round.  This bounds
    # every groupby(host) group (skew control) — politeness is intentional
    # serialization, so capacity-bounding beats salting for the scheduler side.
    # NOTE: a finite budget preserves the final seen/payload SETS but not the
    # strict BFS order contract (order conformance tests use the default).
    per_host_round_budget: int = 1 << 31
    # partition count for the per-round url_hash dedup shuffle
    dedup_partitions: int = 64
    # scale-adaptive round: rounds up to this many rows are scheduled on the
    # driver and run as plain Ray tasks (no groupby sort, no Ray Data
    # execution); larger rounds use the Dataset-native groupby(host) and
    # groupby(url_hash % P) shuffles (the cluster-scale path).  Crossover,
    # measured in a 1-CPU perfbench-shaped session on a 1-core host (crawl
    # wall, default vs 0): 2k-page web (rounds <= 674 rows) 1.18-1.97 s vs
    # 5.4-6.8 s; 8k pages (rounds <= 3,055 rows) 4.1-4.9 s vs 11.0-11.8 s.
    # The sustained bulk pass switches on n_pages * repeat at the same bound.
    # Its pass wall, same host, both sides writing each image once per copy
    # (default vs 0): seed-1 2k-page web, repeat=2 (4,000 rows), 6 ops
    # each in a perfbench-shaped session, 1.23-1.40 s vs 1.44-1.82 s;
    # bench.py's 50k-page web, repeat=6 (300,000 rows), 1 CPU, min of 3
    # trials, 88-92 s vs 135-149 s.  The driver path wins at every size
    # measured; the bound is unmeasured above that and on more than one
    # core.
    driver_partition_limit: int = 2_000_000

    real_time_politeness: bool = False

    # fetch-store backend: "synthetic" (fixture tables through the object
    # store — tests/bench; this sandbox has no network) or "http" (per-worker
    # requests.Session against live URLs, sources/httpstore.py — the
    # deployment seam; exercised by tests/test_httpstore.py against an
    # in-process fixture server)
    store_backend: str = "synthetic"

    extra: dict = field(default_factory=dict)
