"""CLI / ``ray job submit`` entry point.

Examples
--------
Run the BFS crawl on the t2 fixture::

    python -m distributed_web_crawling_system_ray.main crawl --scale t2 --work-dir /tmp/crawl

    ray job submit -- python -m distributed_web_crawling_system_ray.main crawl \
        --scale bench --work-dir /tmp/crawl --num-cpus 32

Resume after an interruption (same work dir)::

    python -m distributed_web_crawling_system_ray.main crawl --scale t2 \
        --work-dir /tmp/crawl --resume

Sustained fetch+decode throughput pass::

    python -m distributed_web_crawling_system_ray.main sustained --scale bench

Build / incrementally update a persistent search index, then query it
(the reference indexer's submit + ``/search`` surface,
``indexer/indexer_node.py:83-106,151-183``)::

    python -m distributed_web_crawling_system_ray.main index \
        --docs /root/testdata/sf0.01/documents.parquet --index-dir /tmp/idx
    python -m distributed_web_crawling_system_ray.main index \
        --docs new_batch.parquet --index-dir /tmp/idx          # upsert
    python -m distributed_web_crawling_system_ray.main search \
        --index-dir /tmp/idx --query "customer join window" -k 20
    python -m distributed_web_crawling_system_ray.main search \
        --index-dir /tmp/idx --query "customer join" --mode and
    python -m distributed_web_crawling_system_ray.main search \
        --index-dir /tmp/idx --query "title:customer AND window" --mode query
    python -m distributed_web_crawling_system_ray.main search \
        --index-dir /tmp/idx --query "-" --mode stats

Replaces the reference's three CLI surfaces (master/crawler/indexer argparse,
``master/master_node.py:276-289`` etc.) with one job entry; a job owns its
Ray session (guarded init) as the driver contract requires.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray(num_cpus: int | None) -> bool:
    """Init Ray iff no session exists; returns whether this CLI owns it.

    A pre-existing session (pytest fixture, embedding application) is reused
    and NOT shut down on exit — only a session this entry point created is.
    """
    import ray

    owned = not ray.is_initialized()
    if owned:
        kwargs = dict(
            address="local", include_dashboard=False, logging_level="ERROR"
        )
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return owned


def _count(v: str) -> int:
    """A non-negative int: a negative ``-k`` would drop answers."""
    k = int(v)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="distributed_web_crawling_system_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc_ = sub.add_parser("crawl", help="run the BFS crawl over a fixture scale")
    pc_.add_argument("--scale", default="t2", choices=["t1", "t2", "bench"])
    pc_.add_argument("--work-dir", default=None)
    pc_.add_argument("--resume", action="store_true")
    pc_.add_argument("--num-cpus", type=int, default=None)
    pc_.add_argument("--max-rounds", type=int, default=64)
    pc_.add_argument("--per-host-budget", type=int, default=1 << 31)
    pc_.add_argument("--real-time-politeness", action="store_true")

    ps = sub.add_parser("sustained", help="one-pass fetch+decode throughput")
    ps.add_argument("--scale", default="bench", choices=["t1", "t2", "bench"])
    ps.add_argument("--out-dir", default=None)
    ps.add_argument("--num-cpus", type=int, default=None)

    pi = sub.add_parser(
        "index", help="build or incrementally update a persistent search index"
    )
    src_group = pi.add_mutually_exclusive_group(required=True)
    src_group.add_argument("--docs", help="parquet with (doc_id, text[, source])")
    src_group.add_argument(
        "--from-payload",
        help="crawl/bulk payload output dir: index every crawled caption "
        "(the reference's crawler->indexer seam; content-addressed doc_ids "
        "upsert across re-crawls)",
    )
    pi.add_argument("--index-dir", required=True)
    pi.add_argument("--compact", action="store_true", help="merge generations")
    pi.add_argument(
        "--stem", action="store_true",
        help="build a STEMMED index (v3 StemmingAnalyzer contract; both "
        "index and query sides stem — queries detect this automatically). "
        "Only honored at creation; updates reuse the index's setting.",
    )
    pi.add_argument("--num-cpus", type=int, default=None)

    pq_ = sub.add_parser("search", help="query a persistent search index")
    pq_.add_argument("--index-dir", required=True)
    pq_.add_argument("--query", required=True, help="space-separated terms")
    pq_.add_argument("-k", type=_count, default=20)
    pq_.add_argument(
        "--mode", default="topk",
        choices=["topk", "and", "df", "bm25f", "query", "stats"],
        help="topk = scored TF-IDF; and = posting-list AND; df = term dfs; "
        "bm25f = field-weighted BM25F with stored result fields; "
        "query = full query-string search (title:/content: prefixes, "
        "AND/OR/NOT — the reference's /search endpoint); stats = index "
        "status (document_count, size). "
        "Query terms stem automatically iff the index was built --stem.",
    )
    pq_.add_argument("--num-cpus", type=int, default=None)

    args = p.parse_args(argv)
    owned = _ensure_ray(getattr(args, "num_cpus", None))
    try:
        return _dispatch(args)
    finally:
        if owned:
            import ray

            ray.shutdown()


def _dispatch(args: argparse.Namespace) -> int:
    if args.cmd == "index":
        import os

        from distributed_web_crawling_system_ray.pipelines.search_index import (
            SearchIndex,
            index_crawl_payload,
        )

        if args.from_payload:
            idx = index_crawl_payload(
                args.from_payload, args.index_dir, stem=args.stem
            )
            stats = {"source": "payload"}
        else:
            if os.path.exists(os.path.join(args.index_dir, "meta.json")):
                idx = SearchIndex.open(args.index_dir)
            else:
                idx = SearchIndex.create(args.index_dir, stem=args.stem)
            stats = idx.update(args.docs)
        if args.compact:
            stats["compact"] = idx.compact()
        stats["live_docs"] = idx.meta["live_docs"]
        stats["generations"] = len(idx.meta["generations"])
        print(json.dumps(stats))
        return 0
    if args.cmd == "search":
        from distributed_web_crawling_system_ray.pipelines.search import tokenize
        from distributed_web_crawling_system_ray.pipelines.search_index import SearchIndex

        idx = SearchIndex.open(args.index_dir)
        if args.mode == "stats":
            print(json.dumps({"result": idx.stats()}))
            return 0
        if args.mode == "query":
            # the full query-string path parses the raw string itself
            out = idx.search(args.query, args.k).to_pylist()
            print(json.dumps({"query": args.query, "result": out}))
            return 0
        # raw v1 tokens; the index stems them itself iff it was built stemmed
        terms = tokenize(args.query)
        if args.mode == "topk":
            out = idx.topk(terms, args.k).to_pylist()
        elif args.mode == "bm25f":
            out = idx.topk_bm25f(terms, args.k).to_pylist()
        elif args.mode == "and":
            out = idx.and_terms(terms).column("doc_id").to_pylist()
        else:
            out = idx.query_df(terms)
        print(json.dumps({"terms": idx._prep_terms(terms), "result": out}))
        return 0

    from distributed_web_crawling_system_ray.config import CrawlConfig
    from distributed_web_crawling_system_ray.sources.synthweb import build_fixture

    fixture = build_fixture(args.scale)
    if args.cmd == "crawl":
        from distributed_web_crawling_system_ray.pipelines.crawl import run_crawl

        cfg = CrawlConfig(
            max_rounds=args.max_rounds,
            per_host_round_budget=args.per_host_budget,
            real_time_politeness=args.real_time_politeness,
        )
        res = run_crawl(fixture, cfg, work_dir=args.work_dir, resume=args.resume)
        print(
            json.dumps(
                {
                    "rounds": res.rounds,
                    "work_dir": res.work_dir,
                    "out_dir": res.out_dir,
                    "urls_fetched": sum(m["urls_fetched"] for m in res.metrics),
                    "images_written": sum(m["images_written"] for m in res.metrics),
                    "metrics": res.metrics,
                }
            )
        )
    else:
        from distributed_web_crawling_system_ray.pipelines.bulk import (
            bulk_fetch_decode,
        )

        print(json.dumps(bulk_fetch_decode(fixture, CrawlConfig(), args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
