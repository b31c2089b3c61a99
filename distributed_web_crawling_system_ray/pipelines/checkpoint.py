"""Round checkpoints: frontier + seen-key arrays + clocks + metrics.

The reference persists only a partial state snapshot (v1
``crawler_state.json`` every 30 s — visited set but NOT the queue, so resume
loses the frontier, ``archive/master_node.py:91-101``; v3 persists nothing).
Here every round commits atomically:

    work_dir/checkpoint/round=K/
        frontier_manifest.json      (pieces composing round K's input)
        frontier.parquet            (the single piece, driver-sized rounds)
        schedule.parquet | schedule/ (robots verdicts + politeness slots —
                                     file on driver-sized rounds, a
                                     Dataset-written dir at cluster scale)
        new_frontier_manifest.json  (pieces composing round K+1's input)
        new_frontier*.parquet | new_frontier_links/ | new_frontier_deferred/
        seen/ image_seen/           (seen_shard_{s}.npy: each shard's
                                     sorted uint64 keys)
        clocks.json                 (per-host virtual politeness clocks)
        metrics.json                (per-round counters, METRICS schema)
        _SUCCESS                    (commit marker — written last)

Resume = restore shards + clocks from the last ``_SUCCESS`` round, re-enter
the loop at round K+1 with the ``new_frontier_manifest.json`` pieces.
Payload partitions beyond the committed round are deleted and rewritten
(idempotent: the restored image-seen set reproduces the same decisions).
"""

from __future__ import annotations

import json
import os


def round_dir(work_dir: str, k: int) -> str:
    return os.path.join(work_dir, "checkpoint", f"round={k}")


def latest_round(ckpt_root: str) -> int | None:
    """Highest round index with a _SUCCESS marker, or None."""
    best = None
    if not os.path.isdir(ckpt_root):
        return None
    for d in os.listdir(ckpt_root):
        if d.startswith("round=") and os.path.exists(
            os.path.join(ckpt_root, d, "_SUCCESS")
        ):
            k = int(d.split("=")[1])
            best = k if best is None else max(best, k)
    return best


def commit_round(
    work_dir: str,
    k: int,
    *,
    new_frontier_files: list[str],
    clocks: dict[str, int],
    metrics: dict,
    seen,
    image_seen,
) -> None:
    """Commit round ``k``.  ``new_frontier_files`` are the already-persisted
    parquet pieces (files or Dataset-written directories, paths relative to
    ``work_dir``) composing round k+1's frontier — written distributed by the
    crawl loop so frontier rows never concentrate on the driver; the commit
    only records the manifest."""
    rd = round_dir(work_dir, k)
    os.makedirs(rd, exist_ok=True)
    with open(os.path.join(rd, "new_frontier_manifest.json"), "w") as f:
        json.dump(new_frontier_files, f)
    with open(os.path.join(rd, "clocks.json"), "w") as f:
        json.dump(clocks, f)
    with open(os.path.join(rd, "metrics.json"), "w") as f:
        json.dump(metrics, f)
    seen.snapshot(os.path.join(rd, "seen"))
    image_seen.snapshot(os.path.join(rd, "image_seen"))
    with open(os.path.join(rd, "_SUCCESS"), "w") as f:
        f.write("ok")
