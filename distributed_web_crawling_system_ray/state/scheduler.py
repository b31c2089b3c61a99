"""Per-host politeness / robots scheduling — the crawl's R stage.

Reference semantics being replaced: worker-side ``time.sleep`` politeness
(v3 fixed 1 s/fetch, ``crawler/crawler_node.py:297,408``; v1 per-domain robots
``Crawl-delay``, ``archive/crawler_node.py:29-34,67-75``) and the per-crawler
``RobotsCache`` (``crawler/crawler_node.py:27-55``).

Design (SURVEY §4.2): each round's frontier is split into host shards, and
one R task per shard (``pipelines/crawl.py``) schedules every row of its
hosts with ``schedule_hosts_batch``; the shard is each of its hosts' single
politeness authority for the round.  Parsed robots policies load once per
worker process (``stages/cache.py``).  Within a host the scheduler pops URLs
in priority order ``(depth, rank_path)`` — the deterministic-scheduling
contract — and assigns each allowed fetch a *virtual-time* slot
``fetch_at_ms``: consecutive fetches on one host are spaced >= that host's
crawl delay.  Politeness therefore costs zero worker wall-time (fetch
workers never sleep); wall-clock throttling for a live deployment is a
separate opt-in (`CrawlConfig.real_time_politeness`).

Cross-round host clocks are not task state: each R task returns its hosts'
next free slots, the driver merges them into ``{host: next_free_ms}`` and
broadcasts that into the next round (``ray.put``).  That keeps scheduling
deterministic and resumable from checkpoints.

Hot-host skew: politeness is *intentional* serialization, so a hot host is
capacity-bounded instead of salted — at most ``per_host_round_budget`` URLs
are scheduled per host per round (priority order); the overflow is DEFERRED
(verdict 2) and re-enters the next round's frontier.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

# verdicts
ALLOWED = 0
DISALLOWED = 1
DEFERRED = 2


def schedule_hosts_batch(
    batch: pa.Table,
    *,
    robots,
    clocks,
    per_host_round_budget: int,
) -> pa.Table:
    """Schedule ``batch``, which holds every row of each of its hosts (one
    host shard of a round): append each row's ``verdict`` and, for ALLOWED
    rows, its ``fetch_at_ms`` slot.  ``robots`` is the broadcast robots
    table's ObjectRef (parsed once per worker, ``stages/cache.py``) or a
    ``RobotsPolicies``; ``clocks`` maps a host to its next free slot."""
    if batch.num_rows == 0:
        return batch.append_column(
            "verdict", pa.array([], pa.int8())
        ).append_column("fetch_at_ms", pa.array([], pa.int64()))
    hosts = batch.column("host").to_pylist()
    groups: dict[str, list[int]] = {}
    for i, h in enumerate(hosts):
        groups.setdefault(h, []).append(i)
    if isinstance(robots, ray.ObjectRef):
        from distributed_web_crawling_system_ray.stages.cache import get_policies

        robots = get_policies(robots)
    depths = batch.column("depth").to_pylist()
    ranks = batch.column("rank_path").to_pylist()
    canons = batch.column("canon").to_pylist()
    n = batch.num_rows
    verdict = np.full(n, ALLOWED, dtype=np.int8)
    fetch_at = np.zeros(n, dtype=np.int64)
    # priority queue per host: pop in (depth, rank_path) order — the
    # deterministic scheduling contract (rank_path is the BFS discovery rank)
    for h, idx in groups.items():
        pol = robots.policy(h)
        delay = pol.crawl_delay_ms
        order = sorted(idx, key=lambda i: (depths[i], ranks[i]))
        clock = int(clocks.get(h, 0))
        scheduled = 0
        for i in order:
            if not pol.allows(canons[i]):
                verdict[i] = DISALLOWED
                continue
            if scheduled >= per_host_round_budget:
                verdict[i] = DEFERRED
                continue
            fetch_at[i] = clock
            clock += delay
            scheduled += 1
    return batch.append_column(
        "verdict", pa.array(verdict, pa.int8())
    ).append_column("fetch_at_ms", pa.array(fetch_at, pa.int64()))
