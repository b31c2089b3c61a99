"""Checkpoint/resume conformance (FIXTURES.md §6.6): kill after round k,
restart, identical final seen set and payload rows, no duplicate image_id."""

import io

import numpy as np
import pytest

from distributed_web_crawling_system_ray.config import CrawlConfig
from distributed_web_crawling_system_ray.oracle import crawl_oracle
from distributed_web_crawling_system_ray.sources.synthweb import WebStore, build_fixture


@pytest.fixture(scope="module")
def resumed_crawl(ray_session, tmp_path_factory):
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_resume"))
    cfg_partial = CrawlConfig(seen_shards=2, max_rounds=2)
    partial = run_crawl(fixture, cfg_partial, work_dir=work)
    assert partial.rounds == 2  # stopped mid-crawl ("killed after round k")
    cfg_full = CrawlConfig(seen_shards=2)
    result = run_crawl(fixture, cfg_full, work_dir=work, resume=True)
    oracle = crawl_oracle(WebStore(fixture))
    return fixture, result, oracle


def test_resume_seen_set(resumed_crawl):
    _, result, oracle = resumed_crawl
    hist = result.frontier_history()
    assert set(hist.column("canon").to_pylist()) == set(oracle.seen.keys())


def test_resume_payload_no_dups(resumed_crawl):
    _, result, oracle = resumed_crawl
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_resume_order(resumed_crawl):
    import pyarrow.compute as pc

    _, result, oracle = resumed_crawl
    sched = result.schedule_history()
    allowed = sched.filter(pc.equal(sched.column("verdict"), 0))
    rows = sorted(
        zip(
            allowed.column("depth").to_pylist(),
            allowed.column("rank_path").to_pylist(),
            allowed.column("canon").to_pylist(),
        )
    )
    assert [c for _, _, c in rows] == [o["canon_url"] for o in oracle.order]


def test_pixel_invariants(resumed_crawl):
    """Per-row payload invariant (BASELINE.json input_hint): decoded pixels
    exact for PNG, PSNR >= 40 dB for lossy, vs the pre-encode oracle pixels."""
    import os

    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.functions.codec import (
        decode_image,
        psnr,
    )

    fixture, result, _ = resumed_crawl
    oracle_px = pq.read_table(os.path.join(fixture, "oracle_pixels.parquet"))
    truth = dict(
        zip(
            oracle_px.column("image_id").to_pylist(),
            oracle_px.column("pixels_npy").to_pylist(),
        )
    )
    payload = result.payload_dataset().to_pandas()
    assert len(payload) > 0
    for _, row in payload.iterrows():
        want = np.load(io.BytesIO(truth[row["image_id"]]))
        got, fmt = decode_image(row["bytes"])
        assert got.shape == want.shape
        if fmt == "png":
            assert np.array_equal(got, want)
        else:
            p = psnr(want, got)
            assert p >= 40.0, (row["image_id"], p)


def test_resume_with_no_committed_round_wipes_partial_payload(
    ray_session, tmp_path_factory
):
    """Crash during round 0 BEFORE the first commit_round leaves partial
    parquet in payload/round=0 and no checkpoint.  resume=True must treat
    that as a fresh start and wipe it — otherwise the re-run's uniquely-named
    files land beside the stale ones and duplicate payload rows."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_precommit"))
    stale_dir = os.path.join(work, "payload", "round=0")
    os.makedirs(stale_dir)
    pq.write_table(
        pa.table(
            {
                "image_id": ["deadbeef" * 4],
                "bytes": [b"stale"],
                "w": pa.array([1], pa.int32()),
                "h": pa.array([1], pa.int32()),
                "fmt": ["png"],
                "caption": ["stale partial row from a crashed attempt"],
                "phash": pa.array([0], pa.int64()),
            }
        ),
        os.path.join(stale_dir, "crashed_attempt.parquet"),
    )

    result = run_crawl(
        fixture, CrawlConfig(seen_shards=2), work_dir=work, resume=True
    )
    oracle = crawl_oracle(WebStore(fixture))
    payload = result.payload_dataset().to_pandas()
    assert "deadbeef" * 4 not in set(payload["image_id"])
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_resume_across_distributed_frontier_layout(ray_session, tmp_path_factory):
    """Cluster-scale rounds persist the new frontier as Dataset-written
    parquet directories listed in new_frontier_manifest.json (frontier rows
    never concentrate on the driver).  Kill after round 1 and resume —
    restoring the frontier from the manifest — must converge to the oracle
    exactly like the driver-table layout."""
    import os

    from distributed_web_crawling_system_ray.pipelines.checkpoint import round_dir
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_dist_resume"))
    cfg = lambda **kw: CrawlConfig(seen_shards=2, driver_partition_limit=0, **kw)
    partial = run_crawl(fixture, cfg(max_rounds=2), work_dir=work)
    assert partial.rounds == 2
    # the distributed layout is actually in play: round 0 committed a
    # Dataset-written links directory, not a driver-written monolith
    links_dir = os.path.join(round_dir(work, 0), "new_frontier_links")
    assert os.path.isdir(links_dir)
    assert os.path.exists(
        os.path.join(round_dir(work, 0), "new_frontier_manifest.json")
    )
    result = run_crawl(fixture, cfg(), work_dir=work, resume=True)
    oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    got = {
        c: (d, r)
        for c, d, r in zip(
            hist.column("canon").to_pylist(),
            hist.column("depth").to_pylist(),
            hist.column("rank_path").to_pylist(),
        )
    }
    assert got == oracle.seen
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def test_resume_after_corrupted_last_round(ray_session, tmp_path_factory):
    """Harsher crash model: the last round's _SUCCESS marker is missing
    (simulating a kill mid-commit).  Resume must fall back to the previous
    committed round and still converge to the oracle state with no
    duplicate payload rows."""
    import os
    import shutil

    from distributed_web_crawling_system_ray.pipelines.checkpoint import round_dir
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

    fixture = build_fixture("t1")
    work = str(tmp_path_factory.mktemp("crawl_corrupt"))
    partial = run_crawl(
        fixture, CrawlConfig(seen_shards=2, max_rounds=3), work_dir=work
    )
    assert partial.rounds == 3
    # corrupt the last committed round: drop its _SUCCESS and its payload
    last = 2
    os.remove(os.path.join(round_dir(work, last), "_SUCCESS"))
    shutil.rmtree(os.path.join(work, "payload", f"round={last}"), ignore_errors=True)

    result = run_crawl(
        fixture, CrawlConfig(seen_shards=2), work_dir=work, resume=True
    )
    oracle = crawl_oracle(WebStore(fixture))
    hist = result.frontier_history()
    assert set(hist.column("canon").to_pylist()) == set(oracle.seen.keys())
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def _committed_rounds(work: str) -> list[int]:
    """The rounds with a ``_SUCCESS`` marker, in order."""
    import os

    ckpt = os.path.join(work, "checkpoint")
    return sorted(
        int(d.split("=")[1])
        for d in os.listdir(ckpt)
        if os.path.exists(os.path.join(ckpt, d, "_SUCCESS"))
    )


def _assert_metrics_match_payload(work: str) -> None:
    """Each committed round's ``metrics.json`` ``images_written`` equals the
    rows in its payload partition."""
    import json
    import os

    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.pipelines.checkpoint import round_dir

    rounds = _committed_rounds(work)
    assert rounds
    for k in rounds:
        with open(os.path.join(round_dir(work, k), "metrics.json")) as f:
            written = json.load(f)["images_written"]
        part = os.path.join(work, "payload", f"round={k}")
        rows = sum(
            pq.read_metadata(os.path.join(part, f)).num_rows
            for f in os.listdir(part)
            if f.endswith(".parquet")
        )
        assert written == rows, (k, written, rows)


@pytest.mark.parametrize("fault", ["decode_write", "commit_round"])
def test_resume_after_fault_behind_the_next_round(
    ray_session, tmp_path, monkeypatch, fault
):
    """A driver-sized round's E2 (decode -> write) and commit run behind the
    next round's fetch -> extract.  A fault in round K's E2 task, or in its
    commit, surfaces after round K+1's E1 has been gathered and admitted;
    resume must restart from round K-1's commit, so that commit's seen sets
    must hold round K-1's keys only, and end with the oracle's seen set,
    FIFO order and payload, with no duplicate image_id."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.functions.canon import md5_hex
    from distributed_web_crawling_system_ray.pipelines import crawl
    from distributed_web_crawling_system_ray.pipelines.checkpoint import round_dir

    fixture = build_fixture("t1")
    cfg = CrawlConfig(seen_shards=2)
    K = 1
    clean = crawl.run_crawl(fixture, cfg, work_dir=str(tmp_path / "clean"))
    assert clean.rounds >= K + 3
    doomed = set(
        pq.read_table(os.path.join(clean.out_dir, f"round={K}"))
        .column("image_id")
        .to_pylist()
    )
    assert doomed  # round K writes images, so its E2 runs

    if fault == "decode_write":
        decode = crawl.decode_images

        def failing_decode(images, **kwargs):
            canons = images.column("canon").to_pylist()
            if any(md5_hex(c) in doomed for c in canons):
                raise RuntimeError("injected E2 fault")
            return decode(images, **kwargs)

        monkeypatch.setattr(crawl, "decode_images", failing_decode)
    else:
        commit = crawl.commit_round

        def failing_commit(work_dir, k, **kwargs):
            if k == K:
                raise RuntimeError("injected commit fault")
            return commit(work_dir, k, **kwargs)

        monkeypatch.setattr(crawl, "commit_round", failing_commit)

    work = str(tmp_path / "work")
    with pytest.raises(Exception, match="injected"):
        crawl.run_crawl(fixture, cfg, work_dir=work)
    monkeypatch.undo()
    # the fault hit after round K+1 was gathered and admitted (its next
    # frontier is on disk), with rounds K and K+1 uncommitted
    assert _committed_rounds(work) == list(range(K))
    assert os.path.exists(
        os.path.join(round_dir(work, K + 1), "new_frontier.parquet")
    )

    result = crawl.run_crawl(fixture, cfg, work_dir=work, resume=True)
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
    allowed = sched.filter(pc.equal(sched.column("verdict"), 0))
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
    assert _committed_rounds(work) == list(range(result.rounds))
    _assert_metrics_match_payload(work)
