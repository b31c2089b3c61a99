"""Per-host politeness / robots scheduling — the explicit groupby(host) stage.

Reference semantics being replaced: worker-side ``time.sleep`` politeness
(v3 fixed 1 s/fetch, ``crawler/crawler_node.py:297,408``; v1 per-domain robots
``Crawl-delay``, ``archive/crawler_node.py:29-34,67-75``) and the per-crawler
``RobotsCache`` (``crawler/crawler_node.py:27-55``).

Design (SURVEY §4.2): the round frontier is shuffled ``groupby("host")`` and
each host-group is scheduled by a **SchedulerShard actor pool**
(``map_groups(SchedulerShard, concurrency=M)``).  Each actor parses the
robots table once in ``__init__`` (the stateful robots cache).  Within a
host-group the shard pops URLs in priority order ``(depth, rank_path)`` —
the deterministic-scheduling contract — and assigns each allowed fetch a
*virtual-time* slot ``fetch_at_ms``: consecutive fetches on one host are
spaced >= that host's crawl delay.  Politeness therefore costs zero worker
wall-time (fetch workers never sleep); wall-clock throttling for a live
deployment is a separate opt-in (`CrawlConfig.real_time_politeness`).

Cross-round host clocks are NOT mutable actor state: the driver re-derives
``{host: next_free_ms}`` from each round's schedule output and broadcasts it
into the next round (``ray.put``).  That keeps scheduling deterministic,
resumable from checkpoints, and independent of actor-pool lifetimes.

Hot-host skew: politeness is *intentional* serialization, so a hot host is
capacity-bounded instead of salted — at most ``per_host_round_budget`` URLs
are scheduled per host per round (priority order); the overflow is DEFERRED
(verdict 2) and re-enters the next round's frontier.  This bounds every
host-group's size, which is exactly the skew bound the groupby shuffle needs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

# verdicts
ALLOWED = 0
DISALLOWED = 1
DEFERRED = 2


def _resolve(robots, clocks):
    """The robots policies and host clocks of a schedule call.  Ray tasks
    pass ObjectRefs (the robots table, the clocks dict), resolved through
    the per-worker cache (stages/cache.py); the driver passes the
    ``RobotsPolicies`` and the dict it already holds."""
    from distributed_web_crawling_system_ray.stages.cache import (
        get_object,
        get_policies,
    )

    if isinstance(robots, ray.ObjectRef):
        robots = get_policies(robots)
    if isinstance(clocks, ray.ObjectRef):
        clocks = get_object(clocks)
    return robots, clocks


def schedule_hosts_batch(
    batch: pa.Table,
    *,
    robots,
    clocks,
    per_host_round_budget: int,
) -> pa.Table:
    """Multi-host variant for inputs ALREADY partitioned by host (every row
    of a host in exactly one batch — e.g. a frontier stored host-partitioned,
    or driver-side chunks cut along host boundaries).  Avoids the groupby
    sort entirely: the partitioning key is established once upstream and
    reused, which is the scale-out plan for frontier storage.  The crawl
    driver calls it on its host-sorted frontier; ``schedule_host_group`` is
    the same call over one host's group.  ``robots`` and ``clocks`` are
    ObjectRefs in a task, values on the driver (``_resolve``)."""
    if batch.num_rows == 0:
        return batch.append_column(
            "verdict", pa.array([], pa.int8())
        ).append_column("fetch_at_ms", pa.array([], pa.int64()))
    hosts = batch.column("host").to_pylist()
    groups: dict[str, list[int]] = {}
    for i, h in enumerate(hosts):
        groups.setdefault(h, []).append(i)
    policies, clocks = _resolve(robots, clocks)
    depths = batch.column("depth").to_pylist()
    ranks = batch.column("rank_path").to_pylist()
    canons = batch.column("canon").to_pylist()
    n = batch.num_rows
    verdict = np.full(n, ALLOWED, dtype=np.int8)
    fetch_at = np.zeros(n, dtype=np.int64)
    # priority queue per host: pop in (depth, rank_path) order — the
    # deterministic scheduling contract (rank_path is the BFS discovery rank)
    for h, idx in groups.items():
        pol = policies.policy(h)
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


def schedule_host_group(group: pa.Table, **kwargs) -> pa.Table:
    """``groupby('host').map_groups`` body — one call schedules one host.

    Task-based: parsed robots policies and the round's clock broadcast load
    once per worker process (stages/cache.py), so scheduling pays zero
    per-round actor startup.  Because the group holds *all* of the host's
    round candidates, this worker is the host's single politeness authority
    for the round — the groupby shuffle is what guarantees that.
    """
    return schedule_hosts_batch(group, **kwargs)
