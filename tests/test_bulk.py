"""Sustained (bulk) pipeline correctness: image set + politeness semantics.

The bulk pass fetches EVERY page URL (including the unreachable component —
no BFS), so its payload is the set of images referenced by any robots-allowed
page that (after redirects) returns 200, with the image URL itself
robots-allowed.  A pure-Python expectation derives that set here.
"""

import os

import pyarrow.parquet as pq
import pytest

from distributed_web_crawling_system_ray.config import CrawlConfig
from distributed_web_crawling_system_ray.functions.canon import canonicalize, md5_hex
from distributed_web_crawling_system_ray.functions.canon import host_of as _host
from distributed_web_crawling_system_ray.sources.synthweb import WebStore, build_fixture
from distributed_web_crawling_system_ray.state.robots import RobotsPolicies
from distributed_web_crawling_system_ray.state.scheduler import ALLOWED


@pytest.fixture(scope="module")
def bulk_t1(ray_session, tmp_path_factory):
    from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

    fixture = build_fixture("t1")
    out = str(tmp_path_factory.mktemp("bulk_t1"))
    stats = bulk_fetch_decode(
        fixture, CrawlConfig(seen_shards=2), out_dir=out, repeat=1, warmup=False
    )
    return fixture, out, stats


def _expected_image_ids(fixture: str) -> set[str]:
    store = WebStore(fixture)
    robots = RobotsPolicies.from_table(store.robots_table())
    pages = pq.read_table(os.path.join(fixture, "web_pages.parquet"))
    want: set[str] = set()
    for url in pages.column("url").to_pylist():
        if not robots.allows(_host(url), url):
            continue
        res = store.fetch(url)
        if res["status"] != 200:
            continue
        for href in res["image_refs"]:
            ic = canonicalize(href, res["final_url"])
            if ic is None or not robots.allows(_host(ic), ic):
                continue
            if store.get_image(ic) is not None:
                want.add(md5_hex(ic))
    return want


def test_bulk_payload_matches_expectation(bulk_t1):
    fixture, out, stats = bulk_t1
    files = [os.path.join(out, f) for f in os.listdir(out) if f.endswith(".parquet")]
    got = set()
    n_rows = 0
    for f in files:
        t = pq.read_table(f, columns=["image_id"])
        got.update(t.column("image_id").to_pylist())
        n_rows += t.num_rows
    assert n_rows == len(got)  # repeat=1 + image-seen pool => no duplicates
    assert got == _expected_image_ids(fixture)
    assert stats["images_written"] == len(got)
    assert stats["urls"] == pq.read_metadata(
        os.path.join(fixture, "web_pages.parquet")
    ).num_rows


def _ids(d: str) -> list[str]:
    return sorted(
        i
        for f in os.listdir(d)
        if f.endswith(".parquet")
        for i in pq.read_table(os.path.join(d, f), columns=["image_id"])
        .column("image_id")
        .to_pylist()
    )


def test_bulk_distributed_source_matches_driver_path(
    bulk_t1, tmp_path, monkeypatch
):
    """The pass at S=1 and at S=3 (R tasks per host shard, W tasks per
    image piece) writes the same rows as at the session's shard count: the
    same image set, no duplicates."""
    from distributed_web_crawling_system_ray.pipelines import crawl
    from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

    fixture, out_default, stats_default = bulk_t1
    for S in (1, 3):
        monkeypatch.setattr(crawl, "_shard_count", lambda: S)
        out = str(tmp_path / f"S{S}")
        stats = bulk_fetch_decode(
            fixture, CrawlConfig(seen_shards=2), out_dir=out, repeat=1, warmup=False
        )
        got = _ids(out)
        assert len(got) == len(set(got))  # no duplicates
        assert got == _ids(out_default)
        assert stats["images_written"] == stats_default["images_written"]
        assert stats["urls"] == stats_default["urls"]


def test_bulk_paths_agree_at_repeat_2(bulk_t1, tmp_path, monkeypatch):
    """With repeat=2 the pass writes each expected image exactly twice at
    S=1 and at S=3: F batches mix copies, so it must extract and dedup each
    copy apart."""
    import collections

    from distributed_web_crawling_system_ray.pipelines import crawl
    from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

    fixture, _, _ = bulk_t1
    want = _expected_image_ids(fixture)
    for S in (1, 3):
        monkeypatch.setattr(crawl, "_shard_count", lambda: S)
        out = str(tmp_path / f"S{S}")
        stats = bulk_fetch_decode(
            fixture, CrawlConfig(seen_shards=2), out_dir=out, repeat=2, warmup=False
        )
        ids = collections.Counter(_ids(out))
        assert set(ids) == want and set(ids.values()) == {2}, S
        assert stats["images_written"] == 2 * len(want)


def _assert_host_spaced(slots: dict[str, list[int]], fixture: str) -> None:
    robots = RobotsPolicies.from_table(
        pq.read_table(os.path.join(fixture, "robots.parquet"))
    )
    assert slots  # non-vacuous
    for h, ts in slots.items():
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        assert all(g >= robots.delay_ms(h) for g in gaps), h


def _slots(fixture: str, repeat: int, S: int, tmp_path, monkeypatch) -> dict:
    """Sorted ``fetch_at_ms`` slots of every ALLOWED row of a pass at S host
    shards, recorded by the R tasks' ``schedule_hosts_batch``."""
    import collections
    import uuid

    from distributed_web_crawling_system_ray.pipelines import bulk, crawl

    rec = tmp_path / f"sched_r{repeat}_S{S}"
    rec.mkdir()
    schedule = bulk.schedule_hosts_batch

    def recorded(batch, **kwargs):
        out = schedule(batch, **kwargs)
        pq.write_table(out, str(rec / f"{uuid.uuid4().hex}.parquet"))
        return out

    monkeypatch.setattr(crawl, "_shard_count", lambda: S)
    monkeypatch.setattr(bulk, "schedule_hosts_batch", recorded)
    bulk.bulk_fetch_decode(
        fixture, out_dir=str(tmp_path / f"out_r{repeat}_S{S}"), repeat=repeat,
        warmup=False,
    )
    monkeypatch.undo()
    per = collections.defaultdict(list)
    for f in rec.iterdir():
        t = pq.read_table(f)
        for h, v, at in zip(
            *(t.column(c).to_pylist() for c in ("host", "verdict", "fetch_at_ms"))
        ):
            if v == ALLOWED:
                per[h].append(at)
    return {h: sorted(ts) for h, ts in per.items()}


def test_bulk_distributed_schedule_is_host_spaced(bulk_t1, tmp_path, monkeypatch):
    """Politeness holds when the schedule is split over S=3 host shards:
    per-host fetch_at spacing >= the host's crawl delay."""
    fixture, _, _ = bulk_t1
    _assert_host_spaced(_slots(fixture, 1, 3, tmp_path, monkeypatch), fixture)


def test_rank_bytes_arr_matches_int_to_bytes():
    import numpy as np

    from distributed_web_crawling_system_ray.oracle import RANK_BYTES
    from distributed_web_crawling_system_ray.pipelines.bulk import _rank_bytes_arr

    idx = np.array([0, 1, 255, 256, 65535, 16_777_215], dtype=np.int64)
    got = _rank_bytes_arr(idx).to_pylist()
    assert got == [int(i).to_bytes(RANK_BYTES, "big") for i in idx]


def test_bulk_politeness_is_host_spaced(bulk_t1, tmp_path, monkeypatch):
    """With repeat=2, each host's slots are spaced by its crawl delay across
    the copies too (one schedule call covers every copy of a host: scheduling
    each copy from clock 0 gave the copies the same slots), and S=1 and S=3
    give each host the same slots."""
    fixture, _, _ = bulk_t1
    one = _slots(fixture, 2, 1, tmp_path, monkeypatch)
    _assert_host_spaced(one, fixture)
    assert one == _slots(fixture, 2, 3, tmp_path, monkeypatch)


def _payload(out: str) -> dict:
    return {
        f: pq.read_table(os.path.join(out, f))
        for f in sorted(os.listdir(out))
        if f.endswith(".parquet")
    }


def test_driver_sized_bulk_runs_no_ray_data_execution(
    ray_session, executions, tmp_path
):
    """A pass (warm-up included) starts no Ray Data execution,
    writes one row per (copy, image) whatever the batch sizes, and two
    fresh runs write the same part files."""
    import collections

    from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

    fixture = build_fixture("t1")
    want = _expected_image_ids(fixture)

    def run(name, repeat, **cfg):
        out = str(tmp_path / name)
        stats = bulk_fetch_decode(
            fixture,
            CrawlConfig(seen_shards=2, **cfg),
            out_dir=out,
            repeat=repeat,
            warmup=name == "r1",
        )
        parts = _payload(out)
        ids = [i for t in parts.values() for i in t.column("image_id").to_pylist()]
        assert stats["images_written"] == len(ids)
        return parts, collections.Counter(ids)

    _, ids = run("r1", 1)
    assert len(executions) == 0
    assert set(ids) == want and set(ids.values()) == {1}
    parts, ids = run("r2", 2)
    assert set(ids) == want and set(ids.values()) == {2}
    _, small = run("r2_small_batches", 2, fetch_batch_size=7, decode_batch_size=5)
    assert small == ids
    again, _ = run("r2_again", 2)
    assert list(again) == list(parts)
    assert all(again[f].equals(parts[f]) for f in parts)
    assert len(executions) == 0


def test_real_time_resume_rebases_per_host(ray_session):
    """Resume rebase (r2 ADVICE + r3 review): with per-host slot offsets, a
    restored host's backlog does not cause a wall sleep through the prior
    run's schedule, and within-host spacing is still enforced relative to
    its own offset."""
    import time as _time

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from distributed_web_crawling_system_ray.oracle import RANK_BYTES
    from distributed_web_crawling_system_ray.sources.synthweb import build_fixture
    from distributed_web_crawling_system_ray.stages.fetch import fetch_pages

    fixture = build_fixture("t1")
    pages = pq.read_table(fixture + "/web_pages.parquet", columns=["url", "host"])
    url = pages.column("url")[0].as_py()
    host = pages.column("host")[0].as_py()
    store_refs = (
        ray.put(pq.read_table(fixture + "/web_pages.parquet")),
        ray.put(pq.read_table(fixture + "/robots.parquet")),
        ray.put(pq.read_table(fixture + "/images.parquet")),
    )
    # two fetches for one host whose restored clock is 60 s of virtual time:
    # without the per-host rebase this would sleep ~60 s; with it, only the
    # 1 s gap between the two slots remains
    batch = pa.table(
        {
            "url": pa.array([url, url]),
            "canon": pa.array([url, url]),
            "url_hash": pa.array(np.zeros(2, np.uint64), pa.uint64()),
            "host": pa.array([host, host]),
            "depth": pa.array([0, 0], pa.int32()),
            "rank_path": pa.array(
                [int(i).to_bytes(RANK_BYTES, "big") for i in range(2)], pa.binary()
            ),
            "verdict": pa.array([0, 0], pa.int8()),
            "fetch_at_ms": pa.array([60000, 61000], pa.int64()),
        }
    )
    offsets_ref = ray.put({host: 60000})
    t0 = _time.time()
    out = fetch_pages(
        batch,
        store_refs=store_refs,
        real_time=True,
        rt_epoch=_time.time(),
        rt_offsets_ref=offsets_ref,
    )
    wall = _time.time() - t0
    assert out.num_rows == 2
    assert 0.9 <= wall < 10.0, wall  # ~1 s inter-slot gap, not 60 s backlog


def test_real_time_politeness_throttles_wall_clock(ray_session, tmp_path_factory):
    """Opt-in wall-clock replay: with real_time_politeness=True the fetch
    stage sleeps to its virtual schedule, so a host with N allowed fetches
    takes >= (N-1) * crawl_delay wall time.  (Default mode never sleeps.)"""
    import time

    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_rt"))
    t0 = time.time()
    res = run_crawl(
        fixture,
        CrawlConfig(seen_shards=2, max_rounds=1, real_time_politeness=True),
        work_dir=work,
    )
    wall = time.time() - t0
    m = res.metrics[0]
    # round 0 = seeds; at least one host fetches >= 2 pages with >= 1s delay
    sched = res.schedule_history()
    import collections

    per = collections.Counter(
        h
        for h, v in zip(
            sched.column("host").to_pylist(), sched.column("verdict").to_pylist()
        )
        if v == 0
    )
    max_per_host = max(per.values())
    if max_per_host >= 2:
        assert wall >= 1.0 * (max_per_host - 1), (wall, max_per_host)
    assert m["urls_fetched"] >= 1
