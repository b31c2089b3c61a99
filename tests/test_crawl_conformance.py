"""Oracle conformance for the Ray crawl pipeline (FIXTURES.md §6 gates 1-5).

The oracle is the pure-Python v1-semantics crawler (oracle.py); the pipeline
is the full Ray Data round loop.  Gates:

1. URL-seen set equality (dedup semantics, master/master_node.py:167-173)
2. crawl-order equality under the (depth, rank_path) contract (v1 FIFO)
3. robots compliance + per-host politeness spacing in the virtual schedule
4. payload row invariants (caption/fmt/dims/phash; pixels in test_payload)
5. no duplicate image_id
"""

import numpy as np
import pyarrow.compute as pc
import pytest

from distributed_web_crawling_system_ray.config import CrawlConfig
from distributed_web_crawling_system_ray.oracle import crawl_oracle
from distributed_web_crawling_system_ray.sources.synthweb import WebStore, build_fixture
from distributed_web_crawling_system_ray.state.robots import RobotsPolicies
from distributed_web_crawling_system_ray.state.scheduler import ALLOWED


@pytest.fixture(scope="module")
def crawl_t1(ray_session, tmp_path_factory):
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    cfg = CrawlConfig(seen_shards=2)
    work = str(tmp_path_factory.mktemp("crawl_t1"))
    result = run_crawl(fixture, cfg, work_dir=work)
    oracle = crawl_oracle(WebStore(fixture))
    return fixture, result, oracle


def test_seen_set_equality(crawl_t1):
    _, result, oracle = crawl_t1
    hist = result.frontier_history()
    got = set(hist.column("canon").to_pylist())
    assert got == set(oracle.seen.keys())
    # depth/rank lineage matches first-discovery too
    got_meta = {
        c: (d, r)
        for c, d, r in zip(
            hist.column("canon").to_pylist(),
            hist.column("depth").to_pylist(),
            hist.column("rank_path").to_pylist(),
        )
    }
    assert got_meta == oracle.seen


def test_crawl_order_equality(crawl_t1):
    _, result, oracle = crawl_t1
    sched = result.schedule_history()
    allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
    rows = sorted(
        zip(
            allowed.column("depth").to_pylist(),
            allowed.column("rank_path").to_pylist(),
            allowed.column("canon").to_pylist(),
        )
    )
    got_order = [c for _, _, c in rows]
    want_order = [o["canon_url"] for o in oracle.order]
    assert got_order == want_order


def test_robots_compliance_and_politeness(crawl_t1):
    fixture, result, oracle = crawl_t1
    sched = result.schedule_history()
    store = WebStore(fixture)
    policies = RobotsPolicies.from_table(store.robots_table())
    allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
    hosts = allowed.column("host").to_pylist()
    canons = allowed.column("canon").to_pylist()
    at = allowed.column("fetch_at_ms").to_pylist()
    # no disallowed URL was ever fetched (test_system.py:164-197 analog)
    for h, c in zip(hosts, canons):
        assert policies.allows(h, c), c
    # per-host spacing >= crawl delay in the virtual schedule
    per_host: dict[str, list[int]] = {}
    for h, t in zip(hosts, at):
        per_host.setdefault(h, []).append(t)
    for h, ts in per_host.items():
        ts = sorted(ts)
        gaps = np.diff(ts)
        assert (gaps >= policies.delay_ms(h)).all(), (h, gaps.min())


def test_payload_rows_match_oracle(crawl_t1):
    _, result, oracle = crawl_t1
    payload = result.payload_dataset().to_pandas()
    # no duplicate image_id; exact set equality with oracle
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())
    for _, row in payload.iterrows():
        truth = oracle.images[row["image_id"]]
        assert row["caption"] == truth["caption"]
        assert row["fmt"] == truth["fmt"]
        assert row["w"] == truth["w"] and row["h"] == truth["h"]
        assert row["phash"] == truth["phash"]
        assert row["bytes"] == truth["bytes"]


def test_metrics_accumulate(crawl_t1):
    _, result, _ = crawl_t1
    assert result.rounds >= 2
    total_fetched = sum(m["urls_fetched"] for m in result.metrics)
    assert total_fetched == len(result.schedule_history().filter(
        pc.equal(result.schedule_history().column("verdict"), ALLOWED)
    ))


def test_url_injection_between_rounds(ray_session, tmp_path_factory):
    """SURVEY S3 (/add_urls): URLs posted into work_dir/inject/ join the
    frontier at the next round boundary, deduped through the seen pool; an
    unreachable-component URL becomes crawlable this way."""
    import os

    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.functions.canon import md5_hex
    from distributed_web_crawling_system_ray.oracle import crawl_oracle
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl
    from distributed_web_crawling_system_ray.sources.synthweb import (
        WebStore,
        build_fixture,
    )

    fixture = build_fixture("t1")
    store = WebStore(fixture)
    oracle = crawl_oracle(store)
    pages = pq.read_table(os.path.join(fixture, "web_pages.parquet"))
    # pick a 200-status page the organic crawl never reaches
    orphan = None
    for url, status in zip(
        pages.column("url").to_pylist(), pages.column("status").to_pylist()
    ):
        if status == 200 and url not in oracle.seen:
            orphan = url
            break
    assert orphan is not None
    work = str(tmp_path_factory.mktemp("crawl_inject"))
    os.makedirs(os.path.join(work, "inject"))
    with open(os.path.join(work, "inject", "batch1.txt"), "w") as f:
        f.write(orphan + "\n" + orphan + "\n")  # duplicate post collapses
    result = run_crawl(fixture, CrawlConfig(seen_shards=2), work_dir=work)
    hist = result.frontier_history()
    got = set(hist.column("canon").to_pylist())
    assert orphan in got
    assert got >= set(oracle.seen.keys())
    # injected URL appears once, and its fetch produced payload if it has refs
    assert hist.filter(
        pc.equal(hist.column("canon"), orphan)
    ).num_rows == 1
    res = store.fetch(orphan)
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique


def test_url_injection_onto_distributed_frontier(ray_session, tmp_path_factory):
    """Injection when the frontier is DIR-backed (cluster layout,
    driver_partition_limit=0): injected rows land as an extra parquet piece
    beside the Dataset-written frontier and crawl exactly like the
    driver-table path."""
    import os

    from distributed_web_crawling_system_ray.oracle import crawl_oracle
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    store = WebStore(fixture)
    oracle = crawl_oracle(store)
    import pyarrow.parquet as pq

    pages = pq.read_table(os.path.join(fixture, "web_pages.parquet"))
    orphan = next(
        (
            url
            for url, status in zip(
                pages.column("url").to_pylist(), pages.column("status").to_pylist()
            )
            if status == 200 and url not in oracle.seen
        ),
        None,
    )
    assert orphan is not None
    work = str(tmp_path_factory.mktemp("crawl_inject_dist"))
    # partial run creates the dir-backed frontier layout...
    partial = run_crawl(
        fixture,
        CrawlConfig(seen_shards=2, driver_partition_limit=0, max_rounds=1),
        work_dir=work,
    )
    assert partial.rounds == 1
    # ...then the injected URL arrives between rounds and the crawl resumes
    os.makedirs(os.path.join(work, "inject"))
    with open(os.path.join(work, "inject", "late.txt"), "w") as f:
        f.write(orphan + "\n")
    result = run_crawl(
        fixture,
        CrawlConfig(seen_shards=2, driver_partition_limit=0),
        work_dir=work,
        resume=True,
    )
    hist = result.frontier_history()
    got = set(hist.column("canon").to_pylist())
    assert orphan in got
    assert got >= set(oracle.seen.keys())
    assert hist.filter(pc.equal(hist.column("canon"), orphan)).num_rows == 1
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique


def test_groupby_exchange_path_matches_oracle(ray_session, tmp_path_factory):
    """The Dataset-native groupby(host) exchange (cluster-scale path,
    forced via driver_partition_limit=0) produces the same seen set, order,
    and payload as the driver-partitioned default."""
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_groupby_path"))
    result = run_crawl(
        fixture,
        CrawlConfig(seen_shards=2, driver_partition_limit=0),
        work_dir=work,
    )
    oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    assert set(hist.column("canon").to_pylist()) == set(oracle.seen.keys())
    sched = result.schedule_history()
    allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
    rows = sorted(
        zip(
            allowed.column("depth").to_pylist(),
            allowed.column("rank_path").to_pylist(),
            allowed.column("canon").to_pylist(),
        )
    )
    assert [c for _, _, c in rows] == [o["canon_url"] for o in oracle.order]
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_max_depth_cap_matches_oracle(ray_session, tmp_path_factory):
    """cfg.max_depth stops link expansion beyond the cap, mirroring the
    oracle's max_depth semantics (a page AT the cap fetches, never expands)."""
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_depth_cap"))
    result = run_crawl(
        fixture, CrawlConfig(seen_shards=2, max_depth=1), work_dir=work
    )
    oracle = crawl_oracle(WebStore(fixture), max_depth=1)
    full_oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    assert set(hist.column("canon").to_pylist()) == set(oracle.seen.keys())
    assert max(hist.column("depth").to_pylist()) <= 1
    assert len(oracle.seen) < len(full_oracle.seen)  # the cap actually bites
    payload = result.payload_dataset().to_pandas()
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_per_host_budget_deferral_preserves_final_sets(
    ray_session, tmp_path_factory
):
    """A tiny per-host round budget forces DEFERRED verdicts (hot-host skew
    control); deferred rows re-enter later rounds, so the FINAL seen and
    payload sets still equal the unbudgeted oracle (the strict per-round
    order contract is explicitly relaxed under a finite budget)."""
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_budget"))
    result = run_crawl(
        fixture,
        CrawlConfig(seen_shards=2, per_host_round_budget=2),
        work_dir=work,
    )
    assert sum(m["urls_deferred"] for m in result.metrics) > 0  # non-vacuous
    oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    # frontier history may repeat deferred rows across rounds; compare sets
    assert set(hist.column("canon").to_pylist()) == set(oracle.seen.keys())
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_seen_prefilter_is_pure_under_reexecution(ray_session):
    """The retry-safety contract: task-side filtering uses contains() only,
    so re-running the same filter (as Ray lineage reconstruction would)
    yields the identical result and never mutates the shard state."""
    import numpy as np

    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool = SeenPool.create(2)
    keys = np.arange(100, dtype=np.uint64)
    pool.check_and_add(keys[:50])  # prior-round admissions
    before = pool.total()
    first = pool.contains(keys)
    second = pool.contains(keys)  # the 'retry'
    assert np.array_equal(first, second)
    assert pool.total() == before  # no mutation from task-side reads
    assert first[:50].all() and not first[50:].any()


def test_driver_sized_round_runs_no_ray_data_execution(
    ray_session, tmp_path, executions, monkeypatch
):
    """A driver-sized round runs plain Ray tasks only: schedule -> fetch ->
    extract and decode -> write start no Ray Data execution, in rounds that
    admit new images and in rounds that do not; the crawl still matches the
    oracle."""
    from distributed_web_crawling_system_ray.pipelines import crawl

    marks = [(0, 0)]  # (executions so far, image keys admitted) per commit
    commit = crawl.commit_round

    def marked_commit(*args, **kwargs):
        marks.append((len(executions), kwargs["image_seen"].total()))
        return commit(*args, **kwargs)

    monkeypatch.setattr(crawl, "commit_round", marked_commit)
    fixture = build_fixture("t1")
    executions.clear()
    result = crawl.run_crawl(
        fixture, CrawlConfig(seen_shards=2), work_dir=str(tmp_path)
    )
    per_round = np.diff(np.asarray(marks), axis=0)
    assert len(per_round) == result.rounds
    assert (per_round[:, 0] == 0).all(), per_round
    # non-vacuous: rounds with and without new images both occur
    assert (per_round[:, 1] > 0).any() and (per_round[:, 1] == 0).any()

    oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    got = dict(
        zip(
            hist.column("canon").to_pylist(),
            zip(hist.column("depth").to_pylist(), hist.column("rank_path").to_pylist()),
        )
    )
    assert got == oracle.seen
    sched = result.schedule_history()
    allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
    rows = sorted(
        zip(
            allowed.column("depth").to_pylist(),
            allowed.column("rank_path").to_pylist(),
            allowed.column("canon").to_pylist(),
        )
    )
    assert [c for _, _, c in rows] == [o["canon_url"] for o in oracle.order]
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_payload_part_write_is_idempotent_under_retry(tmp_path):
    """E2's body (decode a batch, write it as one payload part) run again
    for the same part, as a retried task would, leaves one file equal to a
    single run's, also when the first attempt died leaving a partial
    ``.tmp`` file beside it."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.sources import storage
    from distributed_web_crawling_system_ray.stages.fetch import decode_images

    fixture = build_fixture("t1")
    urls = pq.read_table(os.path.join(fixture, "images.parquet")).column("image_url")
    chunk = pa.table({"canon": urls})

    def body(out):
        return storage.write_payload_part(
            decode_images(chunk, fixture_dir=fixture), str(out), 0
        )

    once, retried = tmp_path / "once", tmp_path / "retried"
    once.mkdir()
    retried.mkdir()
    n = body(once)
    assert n > 0
    (retried / "part-00000.tmp").write_bytes(b"partial write of a dead attempt")
    assert body(retried) == body(retried) == n
    assert os.listdir(retried) == ["part-00000.parquet"]
    assert pq.read_table(retried / "part-00000.parquet").equals(
        pq.read_table(once / "part-00000.parquet")
    )


def test_fresh_crawls_write_the_same_payload_files(crawl_t1, tmp_path):
    """Payload part names are deterministic: two fresh crawls of ``t1``
    leave the same files with ``Table.equals`` contents."""
    import os

    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl
    from distributed_web_crawling_system_ray.sources.storage import payload_files

    fixture, first, _ = crawl_t1
    second = run_crawl(fixture, CrawlConfig(seen_shards=2), work_dir=str(tmp_path))
    files = [payload_files(r.out_dir) for r in (first, second)]
    names = [
        [os.path.relpath(f, r.out_dir) for f in fs]
        for r, fs in zip((first, second), files)
    ]
    assert names[0] == names[1] and names[0]
    for a, b in zip(*files):
        assert pq.read_table(a).equals(pq.read_table(b))


@pytest.mark.parametrize("budget", [CrawlConfig().per_host_round_budget, 2])
def test_round_counters_match_across_round_paths(ray_session, tmp_path, budget):
    """Every per-round counter — urls_fetched, urls_failed (the 200 count
    comes from the fused stage's status column), links_new, images_written,
    urls_deferred and the rest — is the same on the driver-sized path and
    the cluster path (driver_partition_limit=0)."""
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    counters = []
    for limit in (CrawlConfig().driver_partition_limit, 0):
        cfg = CrawlConfig(
            seen_shards=2, driver_partition_limit=limit, per_host_round_budget=budget
        )
        result = run_crawl(fixture, cfg, work_dir=str(tmp_path / f"limit{limit}"))
        counters.append(
            [{k: v for k, v in m.items() if k != "wall_s"} for m in result.metrics]
        )
    assert counters[0] == counters[1]
    assert sum(m["urls_failed"] for m in counters[0]) > 0
    assert sum(m["images_written"] for m in counters[0]) > 0
    if budget == 2:
        assert sum(m["urls_deferred"] for m in counters[0]) > 0


def test_robots_allowed_mask_matches_per_url_allows():
    """The batch robots gate equals per-URL ``allows`` on a mixed-host batch
    (disallowed prefixes, allow-all, robots fetch failure, unknown host) and
    looks each distinct host's policy up once."""
    import pyarrow as pa

    policies = RobotsPolicies.from_table(
        pa.table(
            {
                "host": ["a.test", "b.test", "c.test"],
                "disallow": [["/private", "/tmp"], [], ["/x"]],
                "crawl_delay_ms": pa.array([1000, 2000, 500], pa.int32()),
                "fetch_fails": [False, False, True],
            }
        )
    )
    urls = [
        "http://a.test/private/1",
        "http://b.test/private/1",
        "http://a.test/public",
        "http://c.test/x/y",
        "http://d.test/private",
        "http://a.test/tmp",
        "http://a.test",
        "http://b.test/x",
        "http://a.test/privateer",
    ]
    hosts = [u.split("/")[2] for u in urls]
    want = [policies.allows(h, u) for h, u in zip(hosts, urls)]
    looked_up = []
    policy = policies.policy

    def counted(host):
        looked_up.append(host)
        return policy(host)

    policies.policy = counted
    got = policies.allowed_mask(hosts, urls)
    assert got.dtype == bool and got.tolist() == want
    assert True in want and False in want
    assert sorted(looked_up) == sorted(set(hosts))
