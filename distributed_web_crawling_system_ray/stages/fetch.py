"""Fetch + decode actor-pool stages and the link/image extraction transforms.

Reference analogs:
- fetch: ``crawl_url`` GET with a per-process ``requests.Session``
  (``crawler/crawler_node.py:79-83,299-302``) — here the per-actor "session"
  is a ``WebStore`` handle opened once in ``__init__`` (the sandbox's network
  is the closed synthetic web; on a real deployment this class is where an
  HTTP client pool goes).
- link extraction: ``soup.find_all('a', href=True)`` + urljoin + fragment
  strip + scheme filter in document order (``crawler/crawler_node.py:307-316``).
- decode: the payload graft — bytes -> pixels -> (w, h, fmt, phash) per
  BASELINE.json input_hint (reference stores raw bodies,
  ``crawler/crawler_node.py:246-284``).

All stages are Arrow-in/Arrow-out ``map_batches`` bodies; the only per-row
Python is URL string parsing and per-image decode (inherently per-item work).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from distributed_web_crawling_system_ray.functions.canon import (
    canonicalize,
    host_of,
    md5_hex,
    url_hash,
)
from distributed_web_crawling_system_ray.functions.codec import decode_image
from distributed_web_crawling_system_ray.functions.phash import phash64
from distributed_web_crawling_system_ray.oracle import RANK_BYTES


def _resolve_store(
    fixture_dir,
    store_refs,
    store_backend: str = "synthetic",
    user_agent: str = "RayCrawlBot/1.0",
    timeout_s: float = 10.0,
):
    from distributed_web_crawling_system_ray.stages.cache import (
        get_http_store,
        get_shared_store,
        get_store,
    )

    if store_backend == "http":
        return get_http_store(user_agent, timeout_s)
    if store_refs is not None:
        return get_shared_store(*store_refs)
    return get_store(fixture_dir)


def fetch_pages(
    batch: pa.Table,
    *,
    fixture_dir: str | None = None,
    store_refs=None,
    real_time: bool = False,
    rt_epoch: float | None = None,
    rt_offsets_ref=None,
    store_backend: str = "synthetic",
    user_agent: str = "RayCrawlBot/1.0",
    timeout_s: float = 10.0,
) -> pa.Table:
    """Fetch stage: scheduled frontier rows -> fetch results, one per input
    row and in input order.

    Task-based with a per-worker store handle (stages/cache.py) — the
    reference's load-once-per-worker ``requests.Session`` semantics
    (crawler/crawler_node.py:79-83) without per-round actor-pool startup.

    ``real_time`` replays the virtual politeness schedule against the wall
    clock: ``rt_epoch`` is a wall-clock (``time.time``) base anchored ONCE
    driver-side at run start and shared by every worker, and each row sleeps
    to its own ``fetch_at_ms`` slot (rows are fetched in slot order; the
    output keeps the input order).  No row fetches before
    ``rt_epoch + slot``; inter-fetch spacing is exact while the pipeline
    keeps up and approximate under backlog (a delayed fetch is not
    re-propagated to other workers' slots).  Off by default — the
    virtual schedule already proves politeness and fetch workers shouldn't
    sleep (the reference's own optimizer flags its worker sleeps,
    performance_optimizer.py:529-537).
    """
    store = _resolve_store(fixture_dir, store_refs, store_backend, user_agent, timeout_s)
    if real_time:
        if rt_epoch is None:  # standalone use: anchor at first call per worker
            rt_epoch = time.time()
        # per-host slot offsets (resume rebase, pipelines/crawl.py): a host's
        # wall-due time is rt_epoch + (slot - offset[host]); offsets are the
        # clocks restored from the prior run, zero on a fresh crawl
        offsets: dict[str, int] = {}
        if rt_offsets_ref is not None:
            from distributed_web_crawling_system_ray.stages.cache import (
                get_object,
            )

            offsets = get_object(rt_offsets_ref)
        slots = batch.column("fetch_at_ms").to_numpy(zero_copy_only=False)
        if offsets and "host" in batch.column_names:
            slots = slots - np.fromiter(
                (offsets.get(h, 0) for h in batch.column("host").to_pylist()),
                dtype=np.int64,
                count=batch.num_rows,
            )
        canons = batch.column("canon").to_pylist()
        res: dict[str, list] = {
            k: [None] * batch.num_rows
            for k in ("status", "final_url", "outlinks", "image_refs")
        }
        # replay in slot order; results land back at their input rows
        for i in np.argsort(slots, kind="stable").tolist():
            wait = rt_epoch + float(slots[i]) / 1000.0 - time.time()
            if wait > 0:
                time.sleep(wait)
            one = store.fetch_batch([canons[i]])
            for k in res:
                res[k][i] = one[k][0]
    else:
        canons = batch.column("canon").to_pylist()
        res = store.fetch_batch(canons)
    statuses = np.asarray(res["status"], dtype=np.int16)
    ok = statuses == 200
    errors = [None if o else f"status {s}" for o, s in zip(ok, res["status"])]
    keep = ["url", "canon", "url_hash", "host", "depth", "rank_path"]
    out = batch.select([k for k in keep if k in batch.column_names])
    return (
        out.append_column("status", pa.array(statuses, pa.int16()))
        .append_column("final_url", pa.array(res["final_url"], pa.string()))
        .append_column("outlinks", pa.array(res["outlinks"], pa.list_(pa.string())))
        .append_column(
            "image_refs", pa.array(res["image_refs"], pa.list_(pa.string()))
        )
        .append_column("error", pa.array(errors, pa.string()))
    )


def extract_links(batch: pa.Table) -> pa.Table:
    """Fetch results -> one row per raw outlink, canonicalized, in document
    order; drops non-http(s) and already-pre-dedups within the batch keeping
    the minimum rank_path per url_hash (the combiner before the partition-wise
    dedup shuffle).  ``src`` is the input row the kept rank came from."""
    finals = batch.column("final_url").to_pylist()
    outlinks = batch.column("outlinks").to_pylist()
    depths = batch.column("depth").to_pylist()
    ranks = batch.column("rank_path").to_pylist()
    urls: list[str] = []
    canons: list[str] = []
    hashes: list[int] = []
    hosts: list[str] = []
    cdepths: list[int] = []
    cranks: list[bytes] = []
    srcs: list[int] = []
    best: dict[int, int] = {}  # url_hash -> row index of min rank_path
    for r in range(batch.num_rows):
        base = finals[r]
        d = depths[r] + 1
        rp = ranks[r]
        for pos, href in enumerate(outlinks[r]):
            c = canonicalize(href, base)
            if c is None:
                continue
            h = url_hash(c)
            crp = rp + pos.to_bytes(RANK_BYTES, "big")
            j = best.get(h)
            if j is not None:
                if (cdepths[j], cranks[j]) > (d, crp):
                    cdepths[j] = d
                    cranks[j] = crp
                    srcs[j] = r
                continue
            best[h] = len(urls)
            urls.append(href)
            canons.append(c)
            hashes.append(h)
            hosts.append(host_of(c))
            cdepths.append(d)
            cranks.append(crp)
            srcs.append(r)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "canon": pa.array(canons, pa.string()),
            "url_hash": pa.array(np.asarray(hashes, dtype=np.uint64), pa.uint64()),
            "host": pa.array(hosts, pa.string()),
            "depth": pa.array(cdepths, pa.int32()),
            "rank_path": pa.array(cranks, pa.binary()),
            "src": pa.array(srcs, pa.int32()),
        }
    )


def dedup_min_rank(group: pa.Table) -> pa.Table:
    """Partition-wise deterministic first-seen: one row per url_hash, the one
    with minimum (depth, rank_path) — reproduces the oracle's earliest-
    discovery tie-break regardless of block arrival order.

    Vectorized: sort by (url_hash, depth, rank_path), then the first row per
    hash in sorted order IS the minimum; ``np.unique`` finds it without a
    Python loop (this also runs driver-side on whole-round candidate sets).
    """
    if group.num_rows == 0:
        return group
    t = group.sort_by(
        [("url_hash", "ascending"), ("depth", "ascending"), ("rank_path", "ascending")]
    )
    keys = t.column("url_hash").to_numpy(zero_copy_only=False)
    _, first = np.unique(keys, return_index=True)
    return t.take(pa.array(np.sort(first), pa.int64()))


def dedup_first_by_hash(group: pa.Table) -> pa.Table:
    """Partition-wise set-dedup: one row per url_hash, first occurrence.
    For image candidates (rows with equal url_hash are identical), order
    within the partition cannot change the output set."""
    keys = group.column("url_hash").to_numpy(zero_copy_only=False)
    _, first_idx = np.unique(keys, return_index=True)
    return group.take(pa.array(np.sort(first_idx), pa.int64()))


def extract_image_candidates(batch: pa.Table) -> pa.Table:
    """Fetch results -> one row per image ref (canonical), batch-deduped.

    Payload-discovery edge (FIXTURES.md web_pages.image_refs).  No rank is
    needed: image output is a set keyed by image_id, so first-arrival races
    between rounds'/batches' shard RPCs cannot change the result.  ``src``
    is the first input row that referenced the image.
    """
    finals = batch.column("final_url").to_pylist()
    refs = batch.column("image_refs").to_pylist()
    seen: set[int] = set()
    canons: list[str] = []
    hashes: list[int] = []
    hosts: list[str] = []
    srcs: list[int] = []
    for r in range(batch.num_rows):
        base = finals[r]
        for href in refs[r]:
            c = canonicalize(href, base)
            if c is None:
                continue
            h = url_hash(c)
            if h in seen:
                continue
            seen.add(h)
            canons.append(c)
            hashes.append(h)
            hosts.append(host_of(c))
            srcs.append(r)
    return pa.table(
        {
            "canon": pa.array(canons, pa.string()),
            "url_hash": pa.array(np.asarray(hashes, dtype=np.uint64), pa.uint64()),
            "host": pa.array(hosts, pa.string()),
            "src": pa.array(srcs, pa.int32()),
        }
    )


def decode_images(
    batch: pa.Table,
    *,
    fixture_dir: str | None = None,
    store_refs=None,
    store_backend: str = "synthetic",
    user_agent: str = "RayCrawlBot/1.0",
    timeout_s: float = 10.0,
) -> pa.Table:
    """Decode stage: image candidate rows -> PAYLOAD rows.

    Fetches bytes from the store (memory-mapped parquet, shared page cache
    across workers), decodes, computes (w, h, fmt) from the actual pixels and
    the 64-bit perceptual hash, and carries the caption.  image_id =
    md5(canonical image URL) — the reference's content-addressing scheme
    (crawler/crawler_node.py:253).  Missing URLs (dangling refs) and
    undecodable payloads are dropped, as the reference drops failed fetches
    (master/master_node.py:176-178).
    """
    store = _resolve_store(fixture_dir, store_refs, store_backend, user_agent, timeout_s)
    ids: list[str] = []
    blobs: list[bytes] = []
    ws: list[int] = []
    hs: list[int] = []
    fmts: list[str] = []
    caps: list[str] = []
    phs: list[int] = []
    got = store.get_images_batch(batch.column("canon").to_pylist())
    for c, blob, caption in zip(got["canon"], got["bytes"], got["caption"]):
        try:
            pixels, fmt = decode_image(blob)
        except Exception:
            continue  # undecodable payload == failed fetch
        ids.append(md5_hex(c))
        blobs.append(blob)
        hs.append(pixels.shape[0])
        ws.append(pixels.shape[1])
        fmts.append(fmt)
        caps.append(caption)
        phs.append(phash64(pixels))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "phash": pa.array(phs, pa.int64()),
        }
    )
