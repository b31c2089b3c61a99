"""A Ray rebuild of the Trimbex Distributed-Web-Crawling-System.

A from-scratch URL-frontier + fetch scheduler on Ray:

- each BFS round is three waves of plain Ray tasks (``pipelines/crawl.py``):
  dedup + schedule per host shard, fetch + extract per fetch batch, decode
  + write per image piece; the driver holds url_hash keys and per-host
  summaries only,
- URL-seen dedup is an exact set: one sorted uint64 key array per shard in
  the object store,
- politeness / robots scheduling runs in the per-host-shard tasks, in
  virtual time,
- output is a partitioned (per-round) image+caption table
  (``image_id, bytes, w, h, fmt, caption, phash``), Lance when the ``lance``
  package is importable, Parquet otherwise,
- the training-data operators and the search index use Ray Data
  (``pipelines/dataops.py``, ``pipelines/search_index.py``).

The reference system (studied for semantics only, never copied) is
Trimbex/Distributed-Web-Crawling-System: a Flask+SQS+S3 master/worker crawler
(v3) and an MPI pipeline (v1, ``archive/``).  See SURVEY.md for the full
operator mapping.
"""

from distributed_web_crawling_system_ray.config import CrawlConfig


def _stabilize_fsspec_http() -> None:
    """Make ``fsspec.implementations.http`` import-stable.

    In containers without ``aiohttp`` that submodule FAILS to import; a
    failed import is removed from ``sys.modules`` and re-attempted on every
    Ray datasink/datasource path resolution (``_is_http_filesystem``).  Two
    driver threads issuing Dataset writes concurrently can race the
    per-module import lock into a partially-initialized module, which
    surfaces as a plain ``ImportError`` that escapes Ray's ``except
    ModuleNotFoundError`` guard and kills the write.  Registering a minimal
    stub once makes the import deterministic; ``isinstance`` checks against
    the stub class are always False, which is the correct answer for the
    local-filesystem paths this package uses (reading ``http://`` parquet
    would need real aiohttp).
    """
    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return
    except ImportError:
        pass
    import sys
    import types

    try:
        import fsspec.implementations as _fi
    except ImportError:  # no fsspec at all: Ray's guard handles it
        return
    stub = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:
        """isinstance guard only; constructing it means a caller genuinely
        wants HTTP filesystem support — fail with the ORIGINAL cause
        instead of an obscure AttributeError deep in fsspec."""

        def __init__(self, *a, **kw):
            raise ImportError(
                "fsspec HTTPFileSystem is unavailable: aiohttp is not "
                "installed (stubbed by distributed_web_crawling_system_ray for import "
                "stability under concurrent Ray datasink path resolution)"
            )

    stub.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = stub
    _fi.http = stub


_stabilize_fsspec_http()

__all__ = ["CrawlConfig"]
__version__ = "0.1.0"
