"""Plain Ray tasks, the exchange under the crawl and bulk rounds and every
above-bound near-dup plan: a map task returns S pieces (``num_returns``,
``_split``), and a reduce task takes its piece of each as a ref argument."""

import numpy as np
import pyarrow as pa
import ray


@ray.remote
def _call(fn, *args):
    """One plain Ray task running ``fn(*args)``."""
    return fn(*args)


def _submit(fn, args: list[tuple], num_returns: int = 1) -> list:
    """Submit ``fn(*a)`` for each ``a`` in ``args``, one Ray task each, in
    order; returns their refs (a list of ``num_returns`` refs per task when
    it is above 1).  ``fn`` is put once: a closure (the round bodies of
    ``run_crawl`` and of bulk.py) is pickled by value then, with the refs it
    captures and its module's current bindings."""
    if not args:
        return []
    ref = ray.put(fn)
    call = _call.options(num_returns=num_returns)
    return [call.remote(ref, *a) for a in args]


def _shard_count() -> int:
    """S, the piece count of every exchange: the cluster's CPU count."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _split(t: pa.Table, part: np.ndarray, n: int) -> list[pa.Table]:
    """The rows of ``t`` with ``part == p``, for p in 0..n-1, in order."""
    return [t.filter(pa.array(part == p)) for p in range(n)]


def _gather(spec: list, parts: tuple) -> pa.Table:
    """The ``spec`` (offset, length) slices of the tables ``parts``, as one."""
    return pa.concat_tables([t.slice(o, n) for t, (o, n) in zip(parts, spec)])
