"""The BFS crawl: one bounded, acyclic round per frontier level, run as three
waves of plain Ray tasks.

Restates the whole reference master/worker system (SURVEY §3.1-3.3) as an
iterative sequence of rounds.  S is the cluster's CPU count
(``_shard_count``, read once per run): a URL row belongs to host shard
``url_hash(host) % S`` and an image candidate to piece ``url_hash % S``.

    R(k, s)  dedup + schedule, one task per host shard: the min-(depth,
             rank_path) row per url_hash of shard s's link pieces from every
             F(k-1) task, its deferred rows and its injected rows (on
             resume: the committed frontier files, filtered to the shard).
             It writes that frontier, then schedules its hosts (robots gate
             + virtual-time politeness slots from the round's clock
             broadcast) and writes its schedule part.  It returns a summary
             (verdict counts, each fetched host's next free slot), its
             ALLOWED rows and its DEFERRED rows.
    F(k, b)  fetch -> extract, one task per ``fetch_batch_size`` slice of
             the round's ALLOWED rows: it fetches them, extracts links and
             image refs below the depth cap, drops the known ones (the pure
             seen-set ``contains`` anti-joins) and the robots-disallowed
             images, and returns a meta (200 count, the url_hash keys of its
             candidates), its link pieces (one per host shard) and its image
             pieces (one per image piece).
    W(k, p)  decode -> write, one task per image piece holding a new image:
             the first row per url_hash of piece p across F(k), decoded and
             written as payload parts ``part-{p}-{i}``, one per
             ``decode_batch_size`` slice.

Host grouping is needed in R only: the politeness slots are in virtual time,
so a host's R task is its single politeness authority, and F batches are cut
from R's counts and stay balanced whatever the host skew.

The driver holds url_hash keys and per-host summaries, never a row table.
Per round it gathers R(k)'s summaries and advances the host clocks, then
submits F(k) and R(k+1) behind it: R(k+1) reads F(k)'s link pieces, R(k)'s
deferred rows and the clocks after round k, none of which waits for round
k's admission.  It then gathers F(k)'s metas, submits W(k-1) and admits the
metas' keys into both seen sets (``check_and_add``, once per round, after
every task that reads the sets; F(k+1) is submitted after it).  Rounds run
two deep, with no barrier at the payload:

    driver:  R(k) summaries, submit F(k) + R(k+1), commit k-2 | F(k) metas,
             submit W(k-1), admit k | R(k+1) summaries, submit F(k+1) +
             R(k+2), commit k-1 | ...
    workers: R(k) | W(k-2) | F(k) | R(k+1) | W(k-1) | F(k+1) | R(k+2) | ...

``commit_round(k)`` runs once W(k) and R(k+1) have returned, with the
seen-set views, clocks and metrics held from the end of round k
(``_PendingRound``).  Commits go in round order, and every pending round
commits before ``run_crawl`` returns.  Fetch order is fixed by the schedule
slots and images are admitted before W runs, so the FIFO order, the seen
sets and the payload do not depend on when W runs.

Retry safety: F calls ``contains`` only, on the seen-set refs captured when
it was submitted, and the sets change on the driver only, each change
putting new refs, so a retried F reads what its first attempt read; R reads
immutable inputs and W a fixed set of pieces, and both
write their files through ``.tmp`` + ``os.replace`` under deterministic
names.  So a re-executed task rewrites the same files and returns the same
values.

The feedback loop (extracted URLs re-entering the queue,
``master/master_node.py:167-173``) lives in this driver loop; each round is
acyclic.  Termination = empty frontier (v1 semantics: *loop while queue
non-empty*, ``archive/master_node.py:111``) or the round budget.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from distributed_web_crawling_system_ray.config import CrawlConfig
from distributed_web_crawling_system_ray.functions.canon import (
    canonicalize,
    host_of,
    url_hash,
)
from distributed_web_crawling_system_ray.oracle import RANK_BYTES
from distributed_web_crawling_system_ray.pipelines.checkpoint import (
    commit_round,
    latest_round,
    round_dir,
)
from distributed_web_crawling_system_ray.pipelines.exchange import (
    _gather, _shard_count, _split, _submit,
)
from distributed_web_crawling_system_ray.sources import storage
from distributed_web_crawling_system_ray.stages.cache import get_policies, web_refs
from distributed_web_crawling_system_ray.stages.fetch import (
    decode_images,
    dedup_first_by_hash,
    dedup_min_rank,
    extract_image_candidates,
    extract_links,
    fetch_pages,
)
from distributed_web_crawling_system_ray.state.scheduler import (
    ALLOWED,
    DEFERRED,
    DISALLOWED,
    schedule_hosts_batch,
)
from distributed_web_crawling_system_ray.state.seen import SeenPool

BASE_COLS = ["url", "canon", "url_hash", "host", "depth", "rank_path"]
IMAGE_COLS = ["canon", "url_hash", "host"]


def _host_shard(hosts, S: int) -> np.ndarray:
    """Each row's host shard, ``url_hash(host) % S``; each distinct host is
    hashed once."""
    uniq = pc.unique(hosts)
    shard = np.array([url_hash(h) % S for h in uniq.to_pylist()], dtype=np.int64)
    return shard[pc.index_in(hosts, value_set=uniq).to_numpy(zero_copy_only=False)]


def _write_table(t: pa.Table, path: str) -> None:
    """Write ``t`` to ``path`` through ``.tmp`` + ``os.replace``, so a
    retried task replaces the same file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(t, path + ".tmp")
    os.replace(path + ".tmp", path)


def _fetch_args(counts: list[int], refs: list, step: int) -> list[tuple]:
    """F's arguments: the rows of the R outputs ``refs`` (``counts[s]``
    rows each), taken in shard order and cut into ``step``-row batches.
    Each is ``(spec, *parts)``: one (offset, length) per R output it reads
    (``_gather``)."""
    args, spec, parts, room = [], [], [], step
    for n, ref in zip(counts, refs):
        o = 0
        while o < n:
            take = min(room, n - o)
            spec.append((o, take))
            parts.append(ref)
            o, room = o + take, room - take
            if not room:
                args.append((spec, *parts))
                spec, parts, room = [], [], step
    if spec:
        args.append((spec, *parts))
    return args


def _write_parts(images: pa.Table, decode, out_dir: str, p: int, step: int) -> int:
    """W's sink: ``decode`` each ``step``-row slice of ``images`` and write
    it as payload part ``part-{p}-{i}`` of ``out_dir``; returns the rows
    written."""
    return sum(
        storage.write_payload_part(decode(images.slice(o, step)), out_dir, p, i)
        for i, o in enumerate(range(0, images.num_rows, step))
    )


def _empty_frontier() -> pa.Table:
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "canon": pa.array([], pa.string()),
            "url_hash": pa.array([], pa.uint64()),
            "host": pa.array([], pa.string()),
            "depth": pa.array([], pa.int32()),
            "rank_path": pa.array([], pa.binary()),
        }
    )


def _frontier_file(k: int, first: int, s: int) -> str:
    """Where R(k, s) writes round k's frontier piece, relative to the work
    dir: in round k-1's directory, which ``commit_round(k-1)`` lists as its
    new frontier and a resume keeps once committed.  The first round of a
    run has no uncommitted round before it and uses its own directory."""
    if k == first:
        return os.path.join(round_dir("", k), f"frontier-{s:05d}.parquet")
    return os.path.join(round_dir("", k - 1), f"new_frontier-{s:05d}.parquet")


def _restore(work_dir: str, last: int, seen, image_seen) -> tuple:
    """Resume from committed round ``last``: restore both seen sets; return
    its clocks, every committed round's metrics and its new frontier's
    files."""
    rdl = round_dir(work_dir, last)
    seen.restore(os.path.join(rdl, "seen"))
    image_seen.restore(os.path.join(rdl, "image_seen"))
    with open(os.path.join(rdl, "clocks.json")) as f:
        clocks = {k: int(v) for k, v in json.load(f).items()}
    metrics = []
    for k in range(last + 1):
        with open(os.path.join(round_dir(work_dir, k), "metrics.json")) as f:
            metrics.append(json.load(f))
    with open(os.path.join(rdl, "new_frontier_manifest.json")) as f:
        files = [os.path.join(work_dir, n) for n in json.load(f)]
    return clocks, metrics, files


def _stores(fixture_dir: str, cfg: CrawlConfig) -> tuple[dict, ray.ObjectRef]:
    """The store arguments of ``fetch_pages``/``decode_images``, and the
    robots table's ref.  The synthetic web goes through the object store
    once per process and fixture (``web_refs``): all workers on a node share
    ONE zero-copy Arrow buffer.  The http backend needs no table broadcast —
    each worker holds a requests.Session (sources/httpstore.py); robots
    still come from ``fixture_dir``."""
    if cfg.store_backend == "http":
        store_refs = None
        robots = pq.read_table(os.path.join(fixture_dir, "robots.parquet"))
        robots_ref = ray.put(robots)
    else:
        store_refs = web_refs(fixture_dir)
        robots_ref = store_refs[1]
    store_kwargs = {
        "store_refs": store_refs,
        "store_backend": cfg.store_backend,
        "user_agent": cfg.user_agent,
        "timeout_s": cfg.fetch_timeout_s,
    }
    return store_kwargs, robots_ref


@dataclass
class CrawlResult:
    out_dir: str
    work_dir: str
    rounds: int
    metrics: list[dict] = field(default_factory=list)

    def payload_dataset(self) -> "ray.data.Dataset":
        return storage.read_payload(self.out_dir)

    def frontier_history(self) -> pa.Table:
        """Union of all rounds' frontiers == the final URL-seen set with
        (depth, rank_path) lineage.  Each round's manifest lists the files
        of its frontier."""
        tables = []
        for k in range(self.rounds):
            with open(
                os.path.join(round_dir(self.work_dir, k), "frontier_manifest.json")
            ) as f:
                names = json.load(f)
            tables.extend(
                pq.read_table(os.path.join(self.work_dir, n)).select(BASE_COLS)
                for n in names
            )
        return pa.concat_tables(tables) if tables else None

    def schedule_history(self) -> pa.Table:
        """Every round's schedule rows: one part per host shard that had
        rows."""
        tables = [
            pq.read_table(p)
            for k in range(self.rounds)
            for p in sorted(
                glob.glob(
                    os.path.join(round_dir(self.work_dir, k), "schedule-*.parquet")
                )
            )
        ]
        return pa.concat_tables(tables) if tables else None


@dataclass
class _PendingRound:
    """A round between its admission and its commit.  It holds F's refs
    until W is submitted, then W's refs, and the ``commit_round`` arguments
    as of the end of the round: ``SeenPool.frozen`` views of both seen sets,
    a copy of the clocks and its metrics, whose ``images_written`` is W's
    row count."""

    rnd: int
    fetch: list | None
    pieces: np.ndarray  # the image pieces that hold an admitted image
    payload_dir: str
    commit: dict
    w: list | None = None

    def submit(self, decode_write, S: int, writers: list) -> None:
        """Submit W: one ``decode_write`` task per image piece in
        ``pieces``, over that piece of every F task."""
        if self.w is None:
            self.w = _submit(
                decode_write,
                [
                    (self.payload_dir, p, *[f[1 + S + p] for f in self.fetch])
                    for p in self.pieces.tolist()
                ],
            )
            writers.extend(self.w)
            self.fetch = None

    def finish(self, work_dir: str) -> None:
        """Wait for W, then commit the round."""
        self.commit["metrics"]["images_written"] = int(sum(ray.get(self.w)))
        commit_round(work_dir, self.rnd, **self.commit)


def _new_rows(urls: list[str], ranks: list[bytes], depth: int, seen) -> pa.Table:
    """Frontier rows at ``depth`` for ``urls``, ranked ``ranks``: each URL
    canonicalizes (or is dropped), the first URL of each url_hash is kept,
    and those ``seen`` does not hold are admitted (``check_and_add``) and
    returned."""
    rows: dict[int, tuple] = {}
    for url, rank in zip(urls, ranks):
        c = canonicalize(url)
        if c is not None:
            rows.setdefault(url_hash(c), (url, c, rank))
    hashes = np.array(list(rows), dtype=np.uint64)
    urls, canons, ranks = (
        (list(c) for c in zip(*rows.values())) if rows else ([], [], [])
    )
    tbl = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "canon": pa.array(canons, pa.string()),
            "url_hash": pa.array(hashes, pa.uint64()),
            "host": pa.array([host_of(c) for c in canons], pa.string()),
            "depth": pa.array(np.full(len(rows), depth, np.int32), pa.int32()),
            "rank_path": pa.array(ranks, pa.binary()),
        }
    )
    return tbl.filter(pa.array(~seen.check_and_add(hashes), pa.bool_()))


def seed_frontier(fixture_dir: str, seen: SeenPool) -> pa.Table:
    """Round-0 frontier from the seeds table: canonicalize, first-seen dedup
    (duplicates and fragment variants collapse), rank = seed_rank bytes.

    Reference analog: seed enqueue with dedup (master/master_node.py:62-67,
    archive/master_node.py:26-44).  Seeds are assumed driver-sized.
    """
    seeds = pq.read_table(os.path.join(fixture_dir, "seeds.parquet")).to_pydict()
    rows = sorted(zip(seeds["seed_rank"], seeds["url"]))
    return _new_rows(
        [u for _, u in rows],
        [int(r).to_bytes(RANK_BYTES, "big") for r, _ in rows],
        0,
        seen,
    )


def ingest_injected_urls(work_dir: str, seen, rnd: int) -> pa.Table:
    """Consume ``work_dir/inject/*.txt`` into frontier rows.

    Mirrors the reference's ``/add_urls`` dedup-then-enqueue
    (master/master_node.py:212-220): each URL canonicalizes, passes the
    seen-set ``check_and_add`` (idempotent — re-posting a known URL is a
    no-op), and enters round ``rnd`` at depth=rnd with a rank that sorts
    after organically-discovered rows (0xFF-prefixed).  Files are consumed
    (renamed ``.done``) so ingestion never duplicates across resumes; a crash
    between consumption and the commit of the round before ``rnd`` drops
    that batch (re-post to re-ingest) — still strictly better than the
    reference's at-most-once delivery (SQS delete-before-process, SURVEY
    §4.3).
    """
    inject_dir = os.path.join(work_dir, "inject")
    files = sorted(
        f for f in os.listdir(inject_dir) if f.endswith(".txt")
    ) if os.path.isdir(inject_dir) else []
    if not files:
        return _empty_frontier()
    urls: list[str] = []
    for fn in files:
        p = os.path.join(inject_dir, fn)
        with open(p) as f:
            urls.extend(line.strip() for line in f if line.strip())
        os.replace(p, p + ".done")
    ranks = [b"\xff" + k.to_bytes(RANK_BYTES, "big") for k in range(len(urls))]
    return _new_rows(urls, ranks, rnd, seen)


def run_crawl(
    fixture_dir: str,
    cfg: CrawlConfig | None = None,
    work_dir: str | None = None,
    resume: bool = False,
) -> CrawlResult:
    """Run a full crawl; returns handles to the payload table + lineage.

    ``work_dir`` layout (the checkpoint, see ``checkpoint.py``):
      work_dir/checkpoint/round=K/  frontier manifest, schedule parts,
        round K+1's frontier pieces + manifest, seen/, image_seen/,
        clocks.json, metrics.json, _SUCCESS
      work_dir/payload/round=K/part-{p}-{i}.parquet
    """
    writers: list = []  # refs of the submitted R and W tasks (they write files)
    try:
        return _crawl(fixture_dir, cfg or CrawlConfig(), work_dir, resume, writers)
    except BaseException:
        # let every R and W task end before the error leaves, so none
        # writes a file after a resume has wiped its round
        if writers:
            ray.wait(writers, num_returns=len(writers))
        raise


def _crawl(
    fixture_dir: str,
    cfg: CrawlConfig,
    work_dir: str | None,
    resume: bool,
    writers: list,
) -> CrawlResult:
    """``run_crawl``'s body.  Round k's W and commit wait while round k+1
    is scheduled and fetched; at most two rounds are uncommitted, and
    commits go in round order."""
    if work_dir is None:
        work_dir = tempfile.mkdtemp(prefix="raycrawl_")
    ckpt_root = os.path.join(work_dir, "checkpoint")
    out_dir = os.path.join(work_dir, "payload")
    last = latest_round(ckpt_root) if resume else None
    for root in (ckpt_root, out_dir):
        # A fresh start (resume=True with no committed round included)
        # wipes everything; a resume wipes the rounds after the last commit.
        # Either way no file of a crashed attempt survives beside the files
        # the re-run writes.
        if last is None:
            shutil.rmtree(root, ignore_errors=True)
        else:
            for d in os.listdir(root):
                if int(d.split("=")[1]) > last:
                    shutil.rmtree(os.path.join(root, d))
        os.makedirs(root, exist_ok=True)

    S = _shard_count()
    seen = SeenPool.create(cfg.seen_shards)
    image_seen = SeenPool.create(max(2, cfg.seen_shards // 2))
    store_kwargs, robots_ref = _stores(fixture_dir, cfg)

    if last is not None:
        clocks, metrics, files = _restore(work_dir, last, seen, image_seen)
        start, fresh = last + 1, _empty_frontier()
    else:
        clocks, metrics, files = {}, [], []
        start, fresh = 0, seed_frontier(fixture_dir, seen)

    # wall-clock base for real-time politeness replay: anchored ONCE here on
    # the driver and shared by all fetch workers.  A resume rebases PER HOST
    # (rt_offsets): each host's slots count from its own restored clock, so
    # its first resumed fetch is due ~now and within-host gaps are kept.
    rt = cfg.real_time_politeness
    fetch_kwargs = {
        **store_kwargs,
        "real_time": rt,
        "rt_epoch": time.time() if rt else None,
        "rt_offsets_ref": ray.put(dict(clocks)) if rt and clocks else None,
    }
    max_depth = cfg.max_depth

    def reduce_schedule(k: int, s: int, clocks: dict, files: list, *pieces):
        """R(k, s).  A closure, so that cloudpickle ships it by value with
        this module's current ``schedule_hosts_batch`` binding."""
        for path in files:
            t = pq.read_table(path).select(BASE_COLS)
            pieces += (t.filter(pa.array(_host_shard(t.column("host"), S) == s)),)
        frontier = dedup_min_rank(pa.concat_tables(pieces))
        _write_table(frontier, os.path.join(work_dir, _frontier_file(k, start, s)))
        if k >= cfg.max_rounds:  # written for the commit's manifest only
            return (np.zeros(3, np.int64), {}), None, None
        sched = schedule_hosts_batch(
            frontier,
            robots=robots_ref,
            clocks=clocks,
            per_host_round_budget=cfg.per_host_round_budget,
        )
        if sched.num_rows:
            part = f"schedule-{s:05d}.parquet"
            _write_table(sched, os.path.join(round_dir(work_dir, k), part))
        verdict = sched.column("verdict").to_numpy(zero_copy_only=False)
        allowed = sched.filter(pa.array(verdict == ALLOWED))
        last_at = allowed.group_by("host").aggregate([("fetch_at_ms", "max")])
        policies = get_policies(robots_ref)
        next_free = {
            h: at + policies.delay_ms(h)
            for h, at in zip(
                last_at.column("host").to_pylist(),
                last_at.column("fetch_at_ms_max").to_pylist(),
            )
        }
        deferred = sched.filter(pa.array(verdict == DEFERRED)).select(BASE_COLS)
        return (np.bincount(verdict, minlength=3), next_free), allowed, deferred

    def fetch_extract(spec: list, *parts):
        """F over one batch of ALLOWED rows.  A page AT the depth cap is
        fetched but yields neither links nor images (oracle.crawl_oracle's
        max_depth semantics).  Unlike the oracle, which marks a
        robots-disallowed image ref seen at first reference, disallowed
        refs are never admitted and are re-gated on every re-reference; the
        verdict is stable, so the payload is the same and only
        ``image_seen`` (exactly the admitted candidates) differs.

        PURE: it calls ``contains`` only.  Ray may re-execute a task after
        a failure or object loss, and a retry that saw its first attempt's
        admissions would filter its own rows out.  A closure, so that
        cloudpickle ships it by value with this module's current
        ``fetch_pages``/``extract_links`` bindings."""
        batch = _gather(spec, parts)
        fetched = fetch_pages(batch, **fetch_kwargs)
        status = fetched.column("status").to_numpy(zero_copy_only=False)
        depth = batch.column("depth").to_numpy(zero_copy_only=False)
        pages = fetched.filter(pa.array(depth < max_depth))
        links = extract_links(pages)
        keys = links.column("url_hash").to_numpy(zero_copy_only=False)
        links = links.filter(pa.array(~seen.contains(keys)))
        images = extract_image_candidates(pages)
        keys = images.column("url_hash").to_numpy(zero_copy_only=False)
        ok = ~image_seen.contains(keys) & get_policies(robots_ref).allowed_mask(
            images.column("host").to_pylist(), images.column("canon").to_pylist()
        )
        images = images.filter(pa.array(ok))
        link_keys = links.column("url_hash").to_numpy(zero_copy_only=False)
        image_keys = images.column("url_hash").to_numpy(zero_copy_only=False)
        meta = {
            "n_ok": int((status == 200).sum()),
            "links": link_keys,
            "images": image_keys,
        }
        return (
            meta,
            *_split(links.select(BASE_COLS), _host_shard(links.column("host"), S), S),
            *_split(images.select(IMAGE_COLS), image_keys % np.uint64(S), S),
        )

    def decode_write(out: str, p: int, *pieces) -> int:
        """W over image piece ``p`` of every F task.  A closure for the
        same reason as ``fetch_extract``."""
        images = dedup_first_by_hash(pa.concat_tables(pieces))
        decode = lambda t: decode_images(t, **store_kwargs)  # noqa: E731
        return _write_parts(images, decode, out, p, cfg.decode_batch_size)

    def shards(t: pa.Table) -> list[pa.Table]:
        """A driver-held table's rows by host shard."""
        return _split(t, _host_shard(t.column("host"), S), S)

    def submit_reduce(k: int, files: list, pieces: list[list]) -> list:
        """R(k): one task per host shard s over ``pieces[s]``."""
        clocks_ref = ray.put(clocks)
        refs = _submit(
            reduce_schedule,
            [(k, s, clocks_ref, files, *pieces[s]) for s in range(S)],
            num_returns=3,
        )
        writers.extend(r[0] for r in refs)
        return refs

    pending: list[_PendingRound] = []

    def commit_to(n: int) -> None:
        """Commit the oldest pending rounds until ``n`` are left."""
        while len(pending) > n:
            pending[0].submit(decode_write, S, writers)
            pending[0].finish(work_dir)
            del pending[0]

    fresh = pa.concat_tables([fresh, ingest_injected_urls(work_dir, seen, start)])
    reduce = submit_reduce(start, files, [[t] for t in shards(fresh)])
    rnd = start
    while True:
        t0 = time.time()
        writers[:] = ray.wait(writers, num_returns=len(writers), timeout=0)[1]
        summaries = ray.get([r[0] for r in reduce])
        counts = np.sum([c for c, _ in summaries], axis=0)
        if rnd >= cfg.max_rounds or not counts.sum():
            break
        for _, next_free in summaries:
            clocks.update(next_free)
        rd = round_dir(work_dir, rnd)
        os.makedirs(rd, exist_ok=True)
        with open(os.path.join(rd, "frontier_manifest.json"), "w") as f:
            json.dump([_frontier_file(rnd, start, s) for s in range(S)], f)
        payload_dir = os.path.join(out_dir, f"round={rnd}")
        os.makedirs(payload_dir, exist_ok=True)

        # F(k), and R(k+1) behind it: R(k+1) reads F(k)'s link pieces, R(k)'s
        # deferred rows and the clocks after round k, none of which waits
        # for round k's admission
        allowed = [int(c[ALLOWED]) for c, _ in summaries]
        args = _fetch_args(allowed, [r[1] for r in reduce], cfg.fetch_batch_size)
        fetch = _submit(fetch_extract, args, num_returns=1 + 2 * S)
        # --- URL ingest between rounds (reference /add_urls endpoint,
        # master/master_node.py:212-220,260-265 / SURVEY S3): work_dir/inject/
        # *.txt joins the next round, deduped through the same seen set.  F(k)
        # holds the seen-set refs of its submission, so it is not affected; an
        # injected URL that F(k) also finds loses R(k+1)'s min-rank dedup.
        injected = shards(ingest_injected_urls(work_dir, seen, rnd + 1))
        next_reduce = submit_reduce(
            rnd + 1,
            [],
            [[*(f[1 + s] for f in fetch), reduce[s][2], injected[s]] for s in range(S)],
        )
        commit_to(1)
        metas = ray.get([f[0] for f in fetch])
        # W(k-1) now, queued behind R(k+1): a worker runs it while the driver
        # admits round k and gathers R(k+1)'s summaries
        for p in pending:
            p.submit(decode_write, S, writers)

        # exactly-once first-seen admission: every key passed the exact
        # contains() anti-join, and only the ingest above mutates the seen
        # sets mid-round, so each distinct key is new or injected.  W reads
        # neither set, so admitting before it runs changes nothing it writes.
        keys = {
            kind: np.unique(
                np.concatenate([np.zeros(0, np.uint64)] + [m[kind] for m in metas])
            )
            for kind in ("links", "images")
        }
        seen.check_and_add(keys["links"])
        image_seen.check_and_add(keys["images"])
        n_ok = sum(m["n_ok"] for m in metas)
        m = {
            "round": rnd,
            "urls_scheduled": int(counts.sum()),
            "urls_fetched": int(counts[ALLOWED]),  # every ALLOWED row is fetched
            "urls_failed": int(counts[ALLOWED]) - n_ok,
            "urls_disallowed": int(counts[DISALLOWED]),
            "urls_deferred": int(counts[DEFERRED]),
            "links_new": len(keys["links"]),
            "images_written": None,  # W's row count, filled in at the commit
            "wall_s": round(time.time() - t0, 3),
        }
        metrics.append(m)
        commit = {  # the state at the end of this round
            "new_frontier_files": [_frontier_file(rnd + 1, start, s) for s in range(S)],
            "clocks": dict(clocks),
            "metrics": m,
            "seen": seen.frozen(),
            "image_seen": image_seen.frozen(),
        }
        pieces = np.unique(keys["images"] % np.uint64(S))
        pending.append(_PendingRound(rnd, fetch, pieces, payload_dir, commit))
        reduce, rnd = next_reduce, rnd + 1
    commit_to(0)
    return CrawlResult(out_dir=out_dir, work_dir=work_dir, rounds=rnd, metrics=metrics)
