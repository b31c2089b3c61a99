"""The four benchmark workloads.

Each workload drives only the package's public entry points from one driver
thread, in a closed loop: the next op starts when the previous one returned.
A workload has four phases:

- ``prepare``: seeded inputs and oracles (cached or untimed, not in setup_s);
- ``setup``: the program's own set-up (timed into setup_s);
- ``warmup``: one discarded op of the timed kind (timed into setup_s);
- ``cycle``: one fixed seeded op sequence; the runner repeats whole cycles
  until the run's ``--seconds`` are used up.

Every op's output is checked outside its timed region; a mismatch marks the
op failed.  Outputs of an op are deleted after its check, before the next op.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Input sizes per scale.  "full" is sized so one run of every workload fits
# the one-core time budget; "tiny" is the smoke test's scale.
SIZES = {
    "full": {
        "web_pages": 2000,
        "warm_pages": 60,  # the crawl's warm-up op crawls a smaller web
        "bulk_repeat": 2,
        "search_docs": 1000,
        "search_pool": 300,
        "search_q": 34,  # queries between upserts (102 per cycle)
        "search_k": 3,  # upserts between compactions
        "search_b": 50,  # docs per upsert batch
        "nd_docs": 2500,
        "nd_vecs": 1000,
        "nd_imgs": 12500,
    },
    "tiny": {
        "web_pages": 60,
        "warm_pages": 30,
        "bulk_repeat": 2,
        "search_docs": 1000,
        "search_pool": 40,
        "search_q": 5,
        "search_k": 2,
        "search_b": 10,
        "nd_docs": 1000,
        "nd_vecs": 400,
        "nd_imgs": 5000,
    },
}


def payload_ids(out_dir: str) -> list[str]:
    """``image_id`` of every payload row written under ``out_dir``."""
    ids: list[str] = []
    for d, _, files in os.walk(out_dir):
        for f in sorted(files):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(d, f), columns=["image_id"])
                ids.extend(t.column(0).to_pylist())
    return ids


class Ops:
    """Log of timed ops.  ``hook`` (tracing) runs around each op, outside
    its timed region."""

    def __init__(self):
        self.ops: list[dict] = []
        self.hook = None

    def run(self, kind: str, fn, *args, **kwargs):
        pre = self.hook.before() if self.hook else None
        w0 = time.time()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        rec = {"kind": kind, "start": w0, "end": w0 + wall, "wall": wall,
               "ok": True, "work": 0, "info": {}}
        if self.hook:
            rec["acct"] = self.hook.after(pre)
        self.ops.append(rec)
        return out, rec

    def of(self, kind: str) -> list[dict]:
        return [r for r in self.ops if r["kind"] == kind]


def walls(recs: list[dict]) -> list[float]:
    return [r["wall"] for r in recs]


def pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the median for a single value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Workload:
    name = ""
    primary = ""  # the op kind op_p50_ms and work_per_s are taken over
    work_unit = ""

    def __init__(self, seed: int, scale: str, cache_dir: str, work_dir: str):
        self.seed = seed
        self.size = SIZES[scale]
        self.cache_dir = cache_dir
        self.work_dir = work_dir
        self._n = 0

    def fresh_dir(self, tag: str) -> str:
        self._n += 1
        d = os.path.join(self.work_dir, f"{tag}{self._n}")
        shutil.rmtree(d, ignore_errors=True)
        return d

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        raise NotImplementedError

    def cycle(self, ops: Ops) -> None:
        raise NotImplementedError

    def named(self, ops: Ops) -> dict:
        """The workload's own end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    def after_trace(self) -> None:
        """Counts the traced run takes once, outside every op."""

    def e2e(self, ops: Ops) -> tuple[float, float]:
        """(op_p50_ms, work_per_s) over the primary op kind."""
        recs = ops.of(self.primary)
        return (
            pct(walls(recs), 50) * 1000,
            sum(r["work"] for r in recs) / sum(walls(recs)),
        )


# --------------------------------------------------------------------- crawl


class Crawl(Workload):
    name = "crawl"
    primary = "crawl"
    work_unit = "URLs fetched"

    def prepare(self) -> None:
        from distributed_web_crawling_system_ray.oracle import crawl_oracle
        from distributed_web_crawling_system_ray.sources.synthweb import WebStore

        from perfbench import inputs

        self.webs = {}
        for key in ("warm_pages", "web_pages"):
            web = inputs.web(self.cache_dir, self.size[key], self.seed)
            oracle = crawl_oracle(WebStore(web))
            self.webs[key] = (
                web,
                oracle.seen,
                [o["canon_url"] for o in oracle.order],
                set(oracle.images),
            )

    def _crawl(self, key: str):
        from distributed_web_crawling_system_ray.config import CrawlConfig
        from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

        web = self.webs[key][0]
        return run_crawl(web, CrawlConfig(), work_dir=self.fresh_dir("crawl"))

    def check(self, result, key: str) -> bool:
        _, want_seen, want_order, want_images = self.webs[key]
        from distributed_web_crawling_system_ray.state.scheduler import ALLOWED

        hist = result.frontier_history()
        seen = {
            c: (d, r)
            for c, d, r in zip(
                hist.column("canon").to_pylist(),
                hist.column("depth").to_pylist(),
                hist.column("rank_path").to_pylist(),
            )
        }
        sched = result.schedule_history()
        allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
        order = [
            c
            for _, _, c in sorted(
                zip(
                    allowed.column("depth").to_pylist(),
                    allowed.column("rank_path").to_pylist(),
                    allowed.column("canon").to_pylist(),
                )
            )
        ]
        ids = payload_ids(result.out_dir)
        fetched = sum(m["urls_fetched"] for m in result.metrics)
        return (
            seen == want_seen
            and order == want_order
            and len(ids) == len(set(ids))
            and set(ids) == want_images
            and fetched == len(want_order)
        )

    def warmup(self) -> None:
        result = self._crawl("warm_pages")
        self.warm_ok = self.check(result, "warm_pages")
        shutil.rmtree(result.work_dir)

    def cycle(self, ops: Ops) -> None:
        result, rec = ops.run("crawl", self._crawl, "web_pages")
        rec["work"] = sum(m["urls_fetched"] for m in result.metrics)
        rec["info"] = {"rounds": result.rounds, "round_walls": [m["wall_s"] for m in result.metrics]}
        rec["ok"] = self.check(result, "web_pages")
        shutil.rmtree(result.work_dir)

    def named(self, ops: Ops) -> dict:
        return {"crawl_urls_per_s": (self.e2e(ops)[1], "URLs/s")}


# ----------------------------------------------------------------- sustained


class Sustained(Workload):
    name = "sustained"
    primary = "bulk"
    work_unit = "payload rows written"

    def prepare(self) -> None:
        from distributed_web_crawling_system_ray.functions.canon import (
            canonicalize,
            host_of,
            md5_hex,
        )
        from distributed_web_crawling_system_ray.sources.synthweb import WebStore
        from distributed_web_crawling_system_ray.state.robots import RobotsPolicies

        from perfbench import inputs

        self.web = inputs.web(self.cache_dir, self.size["web_pages"], self.seed)
        # Expected payload, derived once from the web tables: every page URL
        # is fetched `repeat` times (no seen-set on this path); each
        # robots-allowed 200 page yields its robots-allowed, existing image
        # refs.  The written row count also depends on how pages fall into
        # fetch batches (image refs are deduped within a batch), so the
        # tables bound it and the warm-up op's count pins it exactly.
        store = WebStore(self.web)
        robots = RobotsPolicies.from_table(store.robots_table())
        ids: list[str] = []
        for url in pq.read_table(
            os.path.join(self.web, "web_pages.parquet"), columns=["url"]
        ).column(0).to_pylist():
            c = canonicalize(url)
            if c is None or not robots.allows(host_of(c), c):
                continue
            res = store.fetch(c)
            if res["status"] != 200:
                continue
            refs = {canonicalize(h, res["final_url"]) for h in res["image_refs"]}
            for ic in refs - {None}:
                if robots.allows(host_of(ic), ic) and store.get_image(ic) is not None:
                    ids.append(md5_hex(ic))
        self.repeat = self.size["bulk_repeat"]
        self.max_rows = self.repeat * len(ids)
        self.want_ids = set(ids)
        self.want_rows = None  # set by the warm-up op

    def _bulk(self, warmup: bool):
        from distributed_web_crawling_system_ray.config import CrawlConfig
        from distributed_web_crawling_system_ray.pipelines.bulk import bulk_fetch_decode

        return bulk_fetch_decode(
            self.web,
            CrawlConfig(),
            out_dir=self.fresh_dir("bulk"),
            repeat=self.repeat,
            warmup=warmup,
        )

    def check(self, r: dict) -> bool:
        ids = set(payload_ids(r["out_dir"]))
        n = r["images_written"]
        if self.want_rows is None:
            self.want_rows = n
        return ids == self.want_ids and len(ids) <= n <= self.max_rows and (
            n == self.want_rows
        )

    def warmup(self) -> None:
        r = self._bulk(warmup=True)
        self.warm_ok = self.check(r)
        shutil.rmtree(r["out_dir"])

    def cycle(self, ops: Ops) -> None:
        r, rec = ops.run("bulk", self._bulk, False)
        rec["work"] = r["images_written"]
        rec["info"] = {"window_s": r["wall_s"]}
        rec["ok"] = self.check(r)
        shutil.rmtree(r["out_dir"])

    def named(self, ops: Ops) -> dict:
        return {"sustained_rows_per_s": (self.e2e(ops)[1], "rows/s")}


# -------------------------------------------------------------------- search


def _query_strings(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct query strings, cycling through the five Whoosh forms:
    bare terms, field-restricted, phrase, nested boolean, wildcard."""
    from distributed_web_crawling_system_ray.sources.scaleup import _VOCAB

    vocab = [w for w in _VOCAB if len(w) > 2]

    def w() -> str:
        return vocab[int(rng.integers(len(vocab)))]

    def wild(x: str) -> str:
        if rng.random() < 0.5:
            return x[: max(2, len(x) // 2)] + "*"
        i = int(rng.integers(1, len(x)))
        return x[:i] + "?" + x[i + 1 :]

    forms = [
        lambda: f"{w()} {w()}",
        lambda: f"title:{w()} content:{w()}",
        lambda: f'content:"{w()} {w()}"' if rng.random() < 0.5 else f'"{w()} {w()}"',
        lambda: f"({w()} OR {w()}) AND ({w()} OR title:{w()}) AND NOT {w()}",
        lambda: f"{wild(w())} AND {w()}",
    ]
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        q = forms[len(out) % len(forms)]()
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


class Search(Workload):
    name = "search"
    primary = "query"
    work_unit = "queries answered"
    K = 10

    def prepare(self) -> None:
        from perfbench import inputs

        n, pool = self.size["search_docs"], self.size["search_pool"]
        d = inputs.corpus(self.cache_dir, self.seed, n + pool)
        tbl = pq.read_table(
            os.path.join(d, "documents.parquet"), columns=["doc_id", "text", "source"]
        )
        self.docs = tbl.slice(0, n)
        self.pool = tbl.slice(n)
        self.rng = np.random.default_rng(self.seed)
        self.next_id = n
        self.live = n

    def setup(self) -> None:
        from distributed_web_crawling_system_ray.pipelines.search_index import (
            SearchIndex,
        )

        t0 = time.perf_counter()
        self.index = SearchIndex.create(
            os.path.join(self.work_dir, "index"), stem=True
        )
        self.index.update(self.docs)
        self.build_s = time.perf_counter() - t0

    def check_rows(self, t) -> bool:
        """At most K hits, best first (a query can match nothing, e.g. when
        its NOT term is one of its positive terms)."""
        scores = t.column("score").to_pylist()
        return t.num_rows <= self.K and scores == sorted(scores, reverse=True)

    def warmup(self) -> None:
        self.warm_ok = self.check_rows(self.index.search("customer join", k=self.K))

    def _batch(self):
        """B docs from the pool: half re-use live doc_ids, half are new."""
        import pyarrow as pa

        b = self.size["search_b"]
        rows = self.rng.choice(self.pool.num_rows, size=b, replace=False)
        old = self.rng.choice(self.size["search_docs"], size=b // 2, replace=False)
        new = np.arange(self.next_id, self.next_id + b - b // 2)
        self.next_id += len(new)
        picked = self.pool.take(pa.array(rows))
        ids = np.concatenate([old, new]).astype(np.int64)
        return picked.set_column(0, "doc_id", pa.array(ids, pa.int64())), len(new)

    def cycle(self, ops: Ops) -> None:
        q, k = self.size["search_q"], self.size["search_k"]
        strings = _query_strings(self.rng, k * (q - 1))
        for u in range(k):
            block = strings[u * (q - 1) : (u + 1) * (q - 1)]
            first = None
            # the block's last query repeats its first at the same index
            # state: the two answers must be identical
            for i, s in enumerate(block + block[:1]):
                gens = len(self.index.meta["generations"])
                t, rec = ops.run("query", self.index.search, s, self.K)
                rec["work"] = 1
                rec["info"] = {"generations": gens, "query": s}
                rec["ok"] = self.check_rows(t)
                if i == 0:
                    first = t
                elif i == len(block):
                    rec["ok"] = rec["ok"] and t.equals(first)
            batch, n_new = self._batch()
            _, rec = ops.run("upsert", self.index.update, batch)
            self.live += n_new
            stats = self.index.stats()
            rec["work"] = batch.num_rows
            rec["info"] = {"index_mb": stats["index_size_bytes"] / 2**20}
            rec["ok"] = stats["document_count"] == self.live
        probes = strings[:3]
        before = [self.index.search(s, self.K) for s in probes]
        _, rec = ops.run("compact", self.index.compact)
        after = [self.index.search(s, self.K) for s in probes]
        rec["ok"] = all(a.equals(b) for a, b in zip(before, after)) and (
            len(self.index.meta["generations"]) == 1
        )

    def named(self, ops: Ops) -> dict:
        qw = walls(ops.of("query"))
        return {
            "search_p50_ms": (pct(qw, 50) * 1000, "ms"),
            "search_p90_ms": (pct(qw, 90) * 1000, "ms"),
            "upsert_p50_ms": (pct(walls(ops.of("upsert")), 50) * 1000, "ms"),
        }


# ------------------------------------------------------------------- neardup

MODALITIES = (
    ("doc", "doc_dedup_clusters", "doc_id"),
    ("image", "image_phash_clusters", "image_id"),
    ("emb", "emb_dedup_clusters", "vec_id"),
)


def _fingerprint(tbl, id_col: str) -> str:
    t = tbl.sort_by(id_col)
    h = hashlib.md5()
    for col in (id_col, "cluster_id"):
        h.update(json.dumps(t.column(col).to_pylist()).encode())
    return h.hexdigest()


class NearDup(Workload):
    name = "neardup"
    primary = "pass"
    work_unit = "input rows deduplicated"

    def prepare(self) -> None:
        from distributed_web_crawling_system_ray.pipelines.dataops import (
            JACCARD_TAU,
            _shingles,
        )

        from perfbench import inputs

        s = self.size
        self.sf = inputs.corpus(
            self.cache_dir, self.seed, s["nd_docs"], s["nd_vecs"], s["nd_imgs"]
        )
        with open(os.path.join(self.sf, "planted.json")) as f:
            planted = json.load(f)
        texts = pq.read_table(
            os.path.join(self.sf, "documents.parquet"), columns=["text"]
        ).column(0).to_pylist()

        def jaccard(a: int, b: int) -> float:
            x, y = set(_shingles(texts[a])), set(_shingles(texts[b]))
            return len(x & y) / max(1, len(x | y))

        # a planted doc pair is a true near-dup only when the generator kept
        # it (long enough source) and the edit left Jaccard above the cut
        self.want_pairs = {
            "doc": [(a, b) for a, b in planted["docs"] if jaccard(a, b) >= JACCARD_TAU],
            "image": [(f"{a:032x}", f"{b:032x}") for a, b in planted["images"]],
            "emb": [],
        }
        self.rows = s["nd_docs"] + s["nd_vecs"] + s["nd_imgs"]
        self.prints: dict[str, str] = {}

    def _pass(self, out: dict) -> None:
        from distributed_web_crawling_system_ray.pipelines import dataops

        for mod, fn, _ in MODALITIES:
            t0 = time.perf_counter()
            out[mod] = getattr(dataops, fn)(self.sf)
            out[mod + "_s"] = time.perf_counter() - t0

    def check(self, out: dict) -> bool:
        ok = True
        for mod, _, id_col in MODALITIES:
            t = out[mod]
            label = dict(zip(t.column(id_col).to_pylist(), t.column("cluster_id").to_pylist()))
            ok &= all(
                a in label and label[a] == label.get(b)
                for a, b in self.want_pairs[mod]
            )
            fp = _fingerprint(t, id_col)
            ok &= self.prints.setdefault(mod, fp) == fp
        return ok

    def warmup(self) -> None:
        out: dict = {}
        self._pass(out)
        self.warm_ok = self.check(out)

    def cycle(self, ops: Ops) -> None:
        out: dict = {}
        _, rec = ops.run("pass", self._pass, out)
        rec["work"] = self.rows
        rec["info"] = {m + "_s": out[m + "_s"] for m, _, _ in MODALITIES}
        rec["ok"] = self.check(out)

    def after_trace(self) -> None:
        from distributed_web_crawling_system_ray.pipelines.dataops import (
            doc_lsh_candidates,
        )

        self.candidates = doc_lsh_candidates(self.sf).num_rows

    def named(self, ops: Ops) -> dict:
        recs = ops.of("pass")
        return {
            f"{m}_dedup_s": (statistics.median(r["info"][m + "_s"] for r in recs), "s")
            for m, _, _ in MODALITIES
        }


WORKLOADS = {w.name: w for w in (Crawl, Sustained, Search, NearDup)}
