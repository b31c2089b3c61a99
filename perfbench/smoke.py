"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py [workload ...]

For each workload (default: all four) it checks that

- an untraced and a traced run exit 0 and end with one JSON object holding
  exactly ``correct``, ``attempted``, ``failed`` and ``metrics``, with zero
  failed ops;
- the metrics are exactly BENCHMARK.json's end-to-end (untraced) or
  per-layer (traced) names, each with its unit, and the workload's own named
  end-to-end metrics print with units;
- a run whose program output is deliberately corrupted counts failed ops.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMED = {
    "crawl": ["crawl_urls_per_s"],
    "sustained": ["sustained_rows_per_s"],
    "search": ["search_p50_ms", "search_p90_ms", "upsert_p50_ms"],
    "neardup": ["doc_dedup_s", "image_dedup_s", "emb_dedup_s"],
}


def corrupt(workload: str) -> None:
    """Patch the program so one output of ``workload`` is wrong."""
    sys.path.insert(0, ROOT)
    if workload == "crawl":
        from distributed_web_crawling_system_ray.pipelines import crawl

        orig_crawl = crawl.run_crawl

        def run_crawl(*a, **kw):
            result = orig_crawl(*a, **kw)
            for d, _, files in sorted(os.walk(result.out_dir)):
                for f in files:
                    if f.endswith(".parquet"):
                        os.remove(os.path.join(d, f))  # lose payload rows
                        return result
            return result

        crawl.run_crawl = run_crawl
    elif workload == "sustained":
        from distributed_web_crawling_system_ray.pipelines import bulk

        orig_bulk = bulk.bulk_fetch_decode

        def bulk_fetch_decode(*a, **kw):
            r = orig_bulk(*a, **kw)
            if not kw.get("warmup", True):
                r["images_written"] += 1  # miscount after the warm-up
            return r

        bulk.bulk_fetch_decode = bulk_fetch_decode
    elif workload == "search":
        from distributed_web_crawling_system_ray.pipelines.search_index import (
            SearchIndex,
        )

        orig_search = SearchIndex.search

        def search(self, query_str, k=10):
            t = orig_search(self, query_str, k)
            return t.take(list(range(t.num_rows))[::-1])  # worst hit first

        SearchIndex.search = search
    elif workload == "neardup":
        import pyarrow as pa

        from distributed_web_crawling_system_ray.pipelines import dataops

        orig_clusters = dataops.doc_dedup_clusters

        def doc_dedup_clusters(sf_dir, *a, **kw):
            t = orig_clusters(sf_dir, *a, **kw)
            ids = t.column("doc_id").to_numpy()
            labels = t.column("cluster_id").to_numpy().copy()
            labels[labels != ids] = ids[labels != ids]  # split every cluster
            return t.set_column(1, "cluster_id", pa.array(labels))

        dataops.doc_dedup_clusters = doc_dedup_clusters


def run(workload: str, trace: int, corrupted: bool = False) -> tuple[int, list[str]]:
    if corrupted:
        cmd = [sys.executable, os.path.join(HERE, "smoke.py"), "--corrupt", workload]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--scale", "tiny", "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines()


def check(workload: str, bench: dict) -> list[str]:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run(workload, trace)
        if code != 0 or not lines:
            errors.append(f"{workload} trace={trace}: exit {code}")
            continue
        out = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if set(out) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{workload} trace={trace}: keys {sorted(out)}")
        if got != want:
            errors.append(f"{workload} trace={trace}: metrics differ: "
                          f"{sorted(set(got) ^ set(want))}")
        if not out["correct"] or out["failed"] or out["attempted"] < 1:
            errors.append(f"{workload} trace={trace}: {out['failed']} failed ops")
        text = "\n".join(lines[:-1])
        for name in NAMED[workload]:
            if not re.search(rf"^  {name} = [-0-9.]+ \S+$", text, re.M):
                errors.append(f"{workload}: named metric {name} not printed with a unit")
    code, lines = run(workload, 0, corrupted=True)
    out = json.loads(lines[-1]) if code == 0 and lines else None
    if out is None or out["correct"] or out["failed"] < 1:
        errors.append(f"{workload}: corrupted output was not counted as a failed op")
    return errors


def main(argv: list[str]) -> int:
    if argv[:1] == ["--corrupt"]:
        corrupt(argv[1])
        sys.path.insert(0, ROOT)
        from perfbench import run as bench_run

        return bench_run.main(["--workload", argv[1], "--seed", "7", "--seconds", "1",
                               "--scale", "tiny"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in argv or list(NAMED):
        errs = check(workload, bench)
        print(f"{workload}: {'ok' if not errs else 'FAILED'}", flush=True)
        errors += errs
    for e in errors:
        print("  " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
