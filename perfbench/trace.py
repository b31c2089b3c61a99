"""Outside-in layer tracing for the traced benchmark run.

No program file changes.  Three sources:

1. Wrappers.  ``install`` rebinds the public functions the pipelines look up
   by module attribute to timing wrappers.  A wrapper that runs in a Ray
   worker (the ``map_batches`` bodies) travels there by value and appends
   its spans to ``spans-<pid>.jsonl`` in the trace directory; driver-side
   wrappers write the same way.  ``load_spans`` merges the files.
2. Ray's timeline (``ray.timeline()``): task and actor-method spans.
3. CPU accounting from ``/proc`` (``procacct``), one snapshot around each op.

``layer_metrics`` folds the three into the per-layer metrics.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import statistics
import threading
import time

_STACK = threading.local()
_IDS = itertools.count()


def _enter() -> tuple[str, str | None]:
    """Push a new span id on this thread's stack: (id, parent id)."""
    stack = getattr(_STACK, "s", None)
    if stack is None:
        stack = _STACK.s = []
    sid = f"{os.getpid()}.{next(_IDS)}"
    parent = stack[-1] if stack else None
    stack.append(sid)
    return sid, parent


def _exit() -> None:
    _STACK.s.pop()


def _emit(trace_dir: str, rec: dict) -> None:
    with open(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(rec) + "\n")


def _wrap(fn, name: str, trace_dir: str, counts=None):
    """Timing wrapper: one span per call, with ``counts(args, kwargs, out)``
    merged into the span record.  It refers to this module's state only
    through module functions, so it pickles into Ray workers by value."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent = _enter()
        t0 = time.time()
        try:
            out = fn(*args, **kwargs)
        finally:
            _exit()
        rec = {"id": sid, "name": name, "start": t0, "end": time.time(),
               "parent": parent, "pid": os.getpid()}
        if counts is not None:
            rec.update(counts(args, kwargs, out))
        _emit(trace_dir, rec)
        return out

    return traced


# ------------------------------------------------------- per-span counters


def _rows(args, kwargs, out) -> dict:
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _fetch_rows(args, kwargs, out) -> dict:
    import pyarrow.compute as pc

    ok = pc.sum(pc.equal(out.column("status"), 200)).as_py() or 0
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows, "ok": ok}


def _decode_rows(args, kwargs, out) -> dict:
    import pyarrow.compute as pc

    n = pc.sum(pc.binary_length(out.column("bytes"))).as_py() or 0
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows, "bytes": n}


def _keys(args, kwargs, out) -> dict:
    return {"rows_in": len(args[1]), "rows_out": int((~out).sum())}


def _shards(args, kwargs, out) -> dict:
    return {"rows_out": out.k}


def _dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def _commit_bytes(args, kwargs, out) -> dict:
    from distributed_web_crawling_system_ray.pipelines.checkpoint import round_dir

    return {"bytes": _dir_bytes(round_dir(args[0], args[1]))}


def _payload_bytes(args, kwargs, out) -> dict:
    import pyarrow.parquet as pq

    out_dir = args[1]
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir) if f.endswith(".parquet")]
    return {
        "rows_out": sum(pq.read_metadata(f).num_rows for f in files),
        "bytes": sum(os.path.getsize(f) for f in files),
    }


def _files_read(args, kwargs, out) -> dict:
    paths = args[0] if args else kwargs.get("paths", kwargs.get("source", []))
    paths = [paths] if isinstance(paths, (str, os.PathLike)) else paths
    if not isinstance(paths, (list, tuple)):
        return {}  # a buffer or file object: nothing on disk to count
    paths = [p for p in paths if isinstance(p, (str, os.PathLike))]
    return {"files": len(paths),
            "bytes": sum(_dir_bytes(p) if os.path.isdir(p) else os.path.getsize(p)
                         for p in paths)}


def _groups(args, kwargs, out) -> dict:
    return {"rows_out": len(out)}


def _out_rows(args, kwargs, out) -> dict:
    return {"rows_out": out.num_rows}


def install(trace_dir: str):
    """Rebind the traced entry points; returns a function that undoes it."""
    import pyarrow.parquet as pq
    import ray.data

    from distributed_web_crawling_system_ray.pipelines import (
        bulk,
        crawl,
        dataops,
        search_index,
    )
    from distributed_web_crawling_system_ray.sources import storage
    from distributed_web_crawling_system_ray.state.seen import SeenPool

    targets = [
        # (owner, attribute, span name, counter)
        (crawl, "fetch_pages", "stages.fetch.fetch_pages", _fetch_rows),
        (bulk, "fetch_pages", "stages.fetch.fetch_pages", _fetch_rows),
        (crawl, "extract_links", "stages.fetch.extract_links", _rows),
        (crawl, "decode_images", "stages.fetch.decode_images", _decode_rows),
        (bulk, "decode_images", "stages.fetch.decode_images", _decode_rows),
        (crawl, "schedule_hosts_batch", "state.scheduler.schedule", _rows),
        (bulk, "schedule_hosts_batch", "state.scheduler.schedule", _rows),
        (crawl, "commit_round", "pipelines.checkpoint.commit", _commit_bytes),
        (SeenPool, "check_and_add", "state.seen.check_and_add", _keys),
        (SeenPool, "snapshot", "state.seen.snapshot", None),
        (storage, "write_payload", "sources.storage.write_payload", _payload_bytes),
        (search_index, "parse_query", "pipelines.search.parse_query", _groups),
        (ray.data, "read_parquet", "io.read", _files_read),
        (pq, "read_table", "io.read", _files_read),
        (dataops, "doc_near_dup_pairs", "pipelines.dataops.doc.pairs", _out_rows),
        (dataops, "image_phash_near_dup", "pipelines.dataops.image.pairs", _out_rows),
        (dataops, "emb_near_dup_pairs", "pipelines.dataops.emb.pairs", _out_rows),
    ]
    undo = []
    for owner, attr, name, counts in targets:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(orig, name, trace_dir, counts))
        undo.append((owner, attr, orig))
    create = SeenPool.__dict__["create"]
    SeenPool.create = classmethod(
        _wrap(create.__func__, "state.seen.create", trace_dir, _shards)
    )
    undo.append((SeenPool, "create", create))

    def uninstall() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return sorted(spans, key=lambda s: s["start"])


def assign_parents(spans: list[dict], ops: list[dict]) -> None:
    """Spans recorded in workers have no parent in-process: give each
    parentless span the op whose window holds its start."""
    for s in spans:
        if s["parent"] is None:
            for i, op in enumerate(ops):
                if op["start"] <= s["start"] <= op["end"]:
                    s["parent"] = f"op{i}"
                    break


# ------------------------------------------------------- per-layer metrics

# name -> (unit, better); every traced run prints all of them, with 0 for a
# layer the workload does not exercise.
PER_LAYER = {
    "pipelines.crawl.round_s": ("s", "lower"),
    "pipelines.crawl.pre_round_s": ("s", "lower"),
    "pipelines.crawl.driver_cpu_s": ("s", "lower"),
    "pipelines.crawl.rounds": ("count", "lower"),
    "state.seen.actors": ("count", "lower"),
    "state.seen.actor_init_s": ("s", "lower"),
    "state.seen.check_and_add_s": ("s", "lower"),
    "state.seen.keys_checked": ("count", "lower"),
    "state.seen.admit_ratio": ("ratio", "higher"),
    "state.seen.contains_s": ("s", "lower"),
    "state.seen.contains_calls": ("count", "lower"),
    "state.seen.snapshot_s": ("s", "lower"),
    "pipelines.checkpoint.commit_s": ("s", "lower"),
    "pipelines.checkpoint.bytes": ("B", "lower"),
    "state.scheduler.schedule_s": ("s", "lower"),
    "state.scheduler.rows": ("count", "lower"),
    "stages.fetch.fetch_pages_s": ("s", "lower"),
    "stages.fetch.pages": ("count", "lower"),
    "stages.fetch.ok_ratio": ("ratio", "higher"),
    "stages.fetch.extract_links_s": ("s", "lower"),
    "stages.fetch.links": ("count", "lower"),
    "stages.fetch.decode_images_s": ("s", "lower"),
    "stages.fetch.images": ("count", "lower"),
    "stages.fetch.decode_bytes_in": ("B", "lower"),
    "sources.storage.write_payload_s": ("s", "lower"),
    "sources.storage.bytes_per_row": ("B", "lower"),
    "pipelines.bulk.window_s": ("s", "lower"),
    "pipelines.bulk.outside_window_s": ("s", "lower"),
    "pipelines.search.parse_query_s": ("s", "lower"),
    "pipelines.search.dnf_groups": ("count", "lower"),
    "pipelines.search_index.generations": ("count", "lower"),
    "pipelines.search_index.index_mb": ("MB", "lower"),
    "pipelines.search_index.files_read_per_query": ("count", "lower"),
    "pipelines.search_index.bytes_read_per_query": ("B", "lower"),
    "pipelines.search_index.update_docs_per_s": ("docs/s", "higher"),
    "pipelines.search_index.compact_s": ("s", "lower"),
    "pipelines.search_index.build_s": ("s", "lower"),
    "pipelines.search_index.search_p50_ms": ("ms", "lower"),
    "pipelines.search_index.search_p90_ms": ("ms", "lower"),
    "pipelines.search_index.upsert_p50_ms": ("ms", "lower"),
    "pipelines.dataops.doc.op_s": ("s", "lower"),
    "pipelines.dataops.doc.pairs_s": ("s", "lower"),
    "pipelines.dataops.doc.cc_s": ("s", "lower"),
    "pipelines.dataops.doc.pairs": ("count", "lower"),
    "pipelines.dataops.doc.candidates": ("count", "lower"),
    "pipelines.dataops.doc.verify_yield": ("ratio", "higher"),
    "pipelines.dataops.image.op_s": ("s", "lower"),
    "pipelines.dataops.image.pairs_s": ("s", "lower"),
    "pipelines.dataops.image.cc_s": ("s", "lower"),
    "pipelines.dataops.image.pairs": ("count", "lower"),
    "pipelines.dataops.emb.op_s": ("s", "lower"),
    "pipelines.dataops.emb.pairs_s": ("s", "lower"),
    "pipelines.dataops.emb.cc_s": ("s", "lower"),
    "pipelines.dataops.emb.pairs": ("count", "lower"),
    "pipelines.dataops.driver_rss_growth_mb": ("MB", "lower"),
    "ray.tasks": ("count", "lower"),
    "ray.workers_started": ("count", "lower"),
    "ray.worker_busy_s": ("s", "lower"),
    "ray.worker_cpu_s": ("s", "lower"),
    "ray.daemon_cpu_s": ("s", "lower"),
    "ray.driver_cpu_s": ("s", "lower"),
    "ray.idle_s": ("s", "lower"),
    "host.steal_s": ("s", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "bench.cpu_residual_ratio": ("ratio", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}


def _med(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class _OpView:
    """Spans and timeline events that fall inside one op's window."""

    def __init__(self, op: dict, spans: list[dict], events: list[dict]):
        self.op = op
        lo, hi = op["start"], op["end"]
        self.spans = [s for s in spans if lo <= s["start"] <= hi]
        self.events = [e for e in events if lo <= e["ts"] / 1e6 <= hi]

    def total(self, name: str, field: str | None = None) -> float:
        """Summed duration (or ``field``) of the spans called ``name``."""
        return sum(
            (s["end"] - s["start"]) if field is None else s.get(field, 0)
            for s in self.spans
            if s["name"] == name
        )

    def events_of(self, cat: str) -> list[dict]:
        return [e for e in self.events if e["cat"] == cat]


def layer_metrics(
    wl, ops_untraced, ops_traced, spans, events, calib_ms, ncpu
) -> dict:
    """Per-layer metrics of one traced run: name -> value."""
    m = {name: 0.0 for name in PER_LAYER}
    prim = [op for op in ops_traced.ops if op["kind"] == wl.primary]
    views = [_OpView(op, spans, events) for op in prim]

    # ---- crawl driver loop and its state layers
    if wl.name == "crawl":
        rounds = [w for op in prim for w in op["info"]["round_walls"]]
        m["pipelines.crawl.round_s"] = _med(rounds)
        m["pipelines.crawl.pre_round_s"] = _med(
            op["wall"] - sum(op["info"]["round_walls"]) for op in prim
        )
        m["pipelines.crawl.driver_cpu_s"] = _med(op["acct"]["driver"] for op in prim)
        m["pipelines.crawl.rounds"] = _med(op["info"]["rounds"] for op in prim)
    seen_init = []
    for v in views:
        creates = [s for s in v.spans if s["name"] == "state.seen.create"]
        inits = v.events_of("task::UrlSeenShard.__init__")
        if creates and inits:
            seen_init.append(
                max((e["ts"] + e["dur"]) / 1e6 for e in inits) - creates[0]["start"]
            )
    m["state.seen.actors"] = _med(v.total("state.seen.create", "rows_out") for v in views)
    m["state.seen.actor_init_s"] = _med(seen_init)
    m["state.seen.check_and_add_s"] = _med(v.total("state.seen.check_and_add") for v in views)
    m["state.seen.keys_checked"] = _med(
        v.total("state.seen.check_and_add", "rows_in") for v in views
    )
    m["state.seen.admit_ratio"] = _ratio(
        sum(v.total("state.seen.check_and_add", "rows_out") for v in views),
        sum(v.total("state.seen.check_and_add", "rows_in") for v in views),
    )
    m["state.seen.contains_s"] = _med(
        sum(e["dur"] for e in v.events_of("task::UrlSeenShard.contains")) / 1e6
        for v in views
    )
    m["state.seen.contains_calls"] = _med(
        len(v.events_of("task::UrlSeenShard.contains")) for v in views
    )
    m["state.seen.snapshot_s"] = _med(v.total("state.seen.snapshot") for v in views)
    m["pipelines.checkpoint.commit_s"] = _med(v.total("pipelines.checkpoint.commit") for v in views)
    m["pipelines.checkpoint.bytes"] = _med(
        v.total("pipelines.checkpoint.commit", "bytes") for v in views
    )

    # ---- fetch / decode / write stages (crawl and sustained)
    m["state.scheduler.schedule_s"] = _med(v.total("state.scheduler.schedule") for v in views)
    m["state.scheduler.rows"] = _med(v.total("state.scheduler.schedule", "rows_in") for v in views)
    m["stages.fetch.fetch_pages_s"] = _med(v.total("stages.fetch.fetch_pages") for v in views)
    m["stages.fetch.pages"] = _med(v.total("stages.fetch.fetch_pages", "rows_in") for v in views)
    m["stages.fetch.ok_ratio"] = _ratio(
        sum(v.total("stages.fetch.fetch_pages", "ok") for v in views),
        sum(v.total("stages.fetch.fetch_pages", "rows_out") for v in views),
    )
    m["stages.fetch.extract_links_s"] = _med(v.total("stages.fetch.extract_links") for v in views)
    m["stages.fetch.links"] = _med(v.total("stages.fetch.extract_links", "rows_out") for v in views)
    m["stages.fetch.decode_images_s"] = _med(v.total("stages.fetch.decode_images") for v in views)
    m["stages.fetch.images"] = _med(v.total("stages.fetch.decode_images", "rows_out") for v in views)
    m["stages.fetch.decode_bytes_in"] = _med(
        v.total("stages.fetch.decode_images", "bytes") for v in views
    )
    m["sources.storage.write_payload_s"] = _med(
        v.total("sources.storage.write_payload") for v in views
    )
    m["sources.storage.bytes_per_row"] = _ratio(
        sum(v.total("sources.storage.write_payload", "bytes") for v in views),
        sum(v.total("sources.storage.write_payload", "rows_out") for v in views),
    )
    if wl.name == "sustained":
        m["pipelines.bulk.window_s"] = _med(op["info"]["window_s"] for op in prim)
        m["pipelines.bulk.outside_window_s"] = _med(
            op["wall"] - op["info"]["window_s"] for op in prim
        )

    # ---- search read and write paths
    if wl.name == "search":
        m["pipelines.search.parse_query_s"] = _med(
            v.total("pipelines.search.parse_query") for v in views
        )
        m["pipelines.search.dnf_groups"] = _med(
            v.total("pipelines.search.parse_query", "rows_out") for v in views
        )
        m["pipelines.search_index.generations"] = statistics.mean(
            op["info"]["generations"] for op in prim
        )
        m["pipelines.search_index.index_mb"] = _med(
            op["info"]["index_mb"] for op in ops_traced.of("upsert")
        )
        m["pipelines.search_index.files_read_per_query"] = _med(
            v.total("io.read", "files") for v in views
        )
        m["pipelines.search_index.bytes_read_per_query"] = _med(
            v.total("io.read", "bytes") for v in views
        )
        ups = ops_traced.of("upsert")
        m["pipelines.search_index.update_docs_per_s"] = _ratio(
            sum(op["work"] for op in ups), sum(op["wall"] for op in ups)
        )
        m["pipelines.search_index.compact_s"] = _med(op["wall"] for op in ops_traced.of("compact"))
        m["pipelines.search_index.build_s"] = wl.build_s
        for name, (value, _) in wl.named(ops_traced).items():
            m["pipelines.search_index." + name] = value

    # ---- dataops pair family
    if wl.name == "neardup":
        for mod in ("doc", "image", "emb"):
            pre = f"pipelines.dataops.{mod}."
            pair_s = [v.total(pre + "pairs") for v in views]
            op_s = [op["info"][mod + "_s"] for op in prim]
            m[pre + "op_s"] = _med(op_s)
            m[pre + "pairs_s"] = _med(pair_s)
            m[pre + "cc_s"] = _med(o - p for o, p in zip(op_s, pair_s))
            m[pre + "pairs"] = _med(v.total(pre + "pairs", "rows_out") for v in views)
        m["pipelines.dataops.doc.candidates"] = wl.candidates
        m["pipelines.dataops.doc.verify_yield"] = _ratio(
            m["pipelines.dataops.doc.pairs"], wl.candidates
        )
    if prim:
        m["pipelines.dataops.driver_rss_growth_mb"] = (
            prim[-1]["acct"]["rss_end"] - prim[0]["acct"]["rss_start"]
        )

    # ---- Ray runtime and host, per primary op
    first_seen: dict = {}  # worker id -> time of its first timeline event
    for e in events:
        first_seen[e["tid"]] = min(first_seen.get(e["tid"], e["ts"]), e["ts"])
    m["ray.tasks"] = _med(len(v.events_of("task:execute")) for v in views)
    m["ray.workers_started"] = _med(
        sum(v.op["start"] <= t / 1e6 <= v.op["end"] for t in first_seen.values())
        for v in views
    )
    m["ray.worker_busy_s"] = _med(
        sum(e["dur"] for e in v.events_of("task:execute")) / 1e6 for v in views
    )
    for key, name in (("workers", "ray.worker_cpu_s"), ("daemons", "ray.daemon_cpu_s"),
                      ("driver", "ray.driver_cpu_s"), ("idle", "ray.idle_s"),
                      ("steal", "host.steal_s")):
        m[name] = _med(op["acct"][key] for op in prim)
    m["host.calib_ms"] = calib_ms
    m["bench.cpu_residual_ratio"] = _ratio(
        sum(op["acct"]["residual"] for op in prim),
        sum(op["acct"]["wall"] * ncpu for op in prim),
    )
    base = [op["wall"] for op in ops_untraced.ops if op["kind"] == wl.primary]
    m["bench.trace_overhead_ratio"] = _ratio(
        sum(op["wall"] for op in prim) / max(1, len(prim)), sum(base) / max(1, len(base))
    ) - 1.0 if base and prim else 0.0
    return m
