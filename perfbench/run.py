"""One-core benchmark of the crawler package.

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 4 --trace 0

Run from the repository root.  Workloads (see ``workloads.py``): ``crawl``,
``sustained``, ``search``, ``neardup``.  One run:

1. times a fixed CPU calibration loop (``host.calib_ms``, reported, never
   gating) before and after, to tell a slow host window from a slow program;
2. generates the seeded inputs (cached by seed under ``.perfbench/``) and
   the oracles, untimed;
3. starts one Ray session sized to ``nproc`` with a fixed object store and
   a fixed idle-worker pool (the CPU accounting covers every CPU the
   process may run on), then runs the program's set-up and one
   discarded warm-up op: together ``setup_s``;
4. repeats the workload's fixed seeded op cycle, closed loop from this one
   thread, until ``--seconds`` are used, checking every op's output;
5. with ``--trace 1``, then repeats as many cycles again with the layer
   wrappers installed and reports the per-layer metrics instead of the
   end-to-end ones (spans and a per-layer table go to ``.perfbench/trace``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2, with no JSON, when the package is
not importable from the working directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 1
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# Idle Ray workers kept for reuse.  Ray's default is num_cpus, so a one-CPU
# session kills idle workers and respawns them in later stages, and whether
# a stage pays that respawn is a timing race: on a 4-vCPU VM one crawl op
# swung between 16 and 20 s with the default and stayed within 13.6-14.1 s
# with this pool.
WORKERS_SOFT_LIMIT = 8
# Ray puts unix sockets under its temp dir; their paths must stay below the
# 107-byte limit, which leaves this much for the temp dir itself.
MAX_RAY_TEMP_LEN = 40


def calibrate_ms() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


class AcctHook:
    """CPU/RSS snapshots around each traced op (outside its timing)."""

    def __init__(self, tree):
        self.tree = tree

    def before(self):
        return self.tree.snapshot(), _rss_mb()

    def after(self, pre):
        snap, rss0 = pre
        d = self.tree.delta(snap, self.tree.snapshot())
        d["rss_start"], d["rss_end"] = rss0, _rss_mb()
        return d


def start_ray(ncpu: int) -> None:
    import ray

    temp = os.path.join(STATE, "ray")
    kwargs = {}
    if len(temp) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = temp
    ray.init(
        address="local",
        num_cpus=ncpu,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _system_config={"num_workers_soft_limit": WORKERS_SOFT_LIMIT},
        **kwargs,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)


def run_cycles(wl, ops, seconds: float, n_cycles: int | None = None) -> int:
    """Exactly ``n_cycles`` whole cycles, or else whole cycles while another
    one started while at least half of it (at the mean cycle time so far)
    fits in ``seconds``; at least one."""
    t0 = time.perf_counter()
    n = 0
    while True:
        wl.cycle(ops)
        n += 1
        used = time.perf_counter() - t0
        if (n >= n_cycles) if n_cycles else (used + used / n / 2 >= seconds):
            return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import distributed_web_crawling_system_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: package not importable from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench import procacct, trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Ray workers import the package and the trace wrappers from the root;
    # usage reporting stays off (no network)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    ncpu = procacct.nproc()
    tree = procacct.ProcTree(sorted(os.sched_getaffinity(0)))

    calib = [calibrate_ms()]
    work_dir = os.path.join(STATE, "work", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(STATE, "trace", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    wl = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, os.path.join(STATE, "inputs"), work_dir
    )
    t_prep = time.perf_counter()
    wl.prepare()
    t_prep = time.perf_counter() - t_prep

    import ray

    try:
        t0 = time.perf_counter()
        start_ray(ncpu)
        wl.setup()
        wl.warmup()
        setup_s = time.perf_counter() - t0

        ops = workloads.Ops()
        steal = procacct.steal_s(tree.cpus)
        t_measure = time.perf_counter()
        n_cycles = run_cycles(wl, ops, args.seconds)
        t_measure = time.perf_counter() - t_measure
        steal = procacct.steal_s(tree.cpus) - steal
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        op_p50_ms, work_per_s = wl.e2e(ops)
        named = wl.named(ops)

        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            traced = workloads.Ops()
            traced.hook = AcctHook(tree)
            uninstall = trace.install(trace_dir)
            try:
                with procacct.Sampler(tree):
                    run_cycles(wl, traced, 0, n_cycles)
            finally:
                uninstall()
            wl.after_trace()
            events = ray.timeline()
    finally:
        t_down = time.perf_counter()
        tree.scan()  # know every Ray process before shutdown orphans any
        ray.shutdown()
        killed = tree.reap()
        shutil.rmtree(work_dir, ignore_errors=True)
        t_down = time.perf_counter() - t_down
    calib.append(calibrate_ms())

    all_ops = ops.ops + (traced.ops if args.trace else [])
    failed = sum(not op["ok"] for op in all_ops) + (not wl.warm_ok)
    attempted = len(all_ops) + 1
    calib_ms = statistics.median(calib)

    print(f"workload {args.workload}: seed {args.seed}, {ncpu} cpu, "
          f"{n_cycles} cycle(s), {len(ops.ops)} ops, work unit: {wl.work_unit}")
    for kind in dict.fromkeys(op["kind"] for op in ops.ops):
        recs = ops.of(kind)
        print(f"  op {kind:8s} n={len(recs):4d} p50={workloads.pct(workloads.walls(recs), 50) * 1000:10.1f} ms"
              f"  walls: {' '.join(f'{w:.3f}' for w in workloads.walls(recs)[:12])}")
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.4f} {unit}")
    print(f"  host.calib_ms = {calib_ms:.2f} ms (before {calib[0]:.2f}, after {calib[1]:.2f})")
    print(f"  phases: inputs {t_prep:.1f} s, setup {setup_s:.1f} s, measured {t_measure:.1f} s, "
          f"shutdown {t_down:.1f} s; host steal while measured {steal:.2f} cpu-s")
    if killed:
        print(f"  {killed} process(es) outlived ray.shutdown and were killed")
    if not wl.warm_ok:
        print("  FAILED warm-up op")
    for i, op in enumerate(all_ops):
        if not op["ok"]:
            print(f"  FAILED op {i} ({op['kind']}): {op['info']}")

    if args.trace:
        spans = trace.load_spans(trace_dir)
        trace.assign_parents(spans, traced.ops)
        values = trace.layer_metrics(
            wl, ops, traced, spans, events, calib_ms, len(tree.cpus)
        )
        metrics = {
            k: {"value": float(v), "unit": trace.PER_LAYER[k][0]} for k, v in values.items()
        }
        with open(os.path.join(trace_dir, "spans.jsonl"), "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        table = "\n".join(
            f"  {k:48s} {m['value']:14.4f} {m['unit']}" for k, m in metrics.items()
        )
        with open(os.path.join(trace_dir, "layers.txt"), "w") as f:
            f.write(table + "\n")
        print(table)
        prim = [op["acct"] for op in traced.ops if op["kind"] == wl.primary]
        a = {k: sum(op[k] for op in prim) for k in prim[0]}
        print(f"  {len(prim)} {wl.primary} op(s): wall {a['wall']:.3f} s x {len(tree.cpus)} cpu = "
              f"driver {a['driver']:.3f} + workers {a['workers']:.3f} + daemons "
              f"{a['daemons']:.3f} + idle {a['idle']:.3f} + steal {a['steal']:.3f} "
              f"+ residual {a['residual']:.3f} cpu-s")
        print(f"  spans: {os.path.relpath(trace_dir, ROOT)}/spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "driver_peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "op_p50_ms": {"value": op_p50_ms, "unit": "ms"},
            "work_per_s": {"value": work_per_s, "unit": "1/s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
