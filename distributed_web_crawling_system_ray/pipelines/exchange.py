"""Plain Ray tasks, the exchange under the crawl and bulk rounds, every
above-bound near-dup plan and the index write (``SearchIndex.update`` and
``compact``): a map task returns S pieces (``num_returns``, ``_split``), and
a reduce task takes its piece of each as a ref argument.

A plan runs each of its steps where its input size puts it (``_map``,
``_run``): inline on the driver at or below the plan's bound (S = 1, no
task, no ``ray.put``), else one plain Ray task per argument tuple.  Both
sides call the same step functions, so they write the same outputs."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
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


def _map(fn, args: list[tuple], inline: bool, num_returns: int = 1) -> list:
    """The step ``fn(*a)`` for each ``a`` in ``args``: ``inline``, one call
    each on the driver, their values; else one plain Ray task each, their
    refs (``num_returns`` per task above 1), which stay in the object
    store."""
    if inline:
        return [fn(*a) for a in args]
    return _submit(fn, args, num_returns)


def _run(fn, args: list[tuple], inline: bool) -> list:
    """``fn(*a)`` for each ``a`` in ``args``, inline on the driver or one
    plain Ray task each (``_map``); their values either way."""
    out = _map(fn, args, inline)
    return out if inline else ray.get(out)


def _rows(path: str, columns, bound: int) -> tuple:
    """Where a step over the parquet file's ``columns`` runs, as ``(ref,
    cuts, S)``.  At most ``bound`` rows: ``ref`` is None and every step runs
    inline on the driver (S = 1).  Above: S is the session's CPU count,
    ``ref`` one task's read of the file (the fixtures are one row group, so
    rows split after the read, not in the reader) and ``cuts`` the bounds
    of its consecutive, non-empty slices."""
    n = pq.read_metadata(path).num_rows
    if n <= bound:
        return None, [0, n], 1
    S = _shard_count()
    ref = _submit(_read_columns, [(path, list(columns))])[0]
    return ref, sorted({n * s // S for s in range(S + 1)}), S


def _read_columns(path: str, columns: list) -> pa.Table:
    return pq.read_table(path, columns=columns)


def _driver_batches(path: str, columns):
    """A parquet file's record batches, read on the driver one at a time
    (1024 rows each, a Ray Data ``map_batches`` default), so an inline step
    never holds a whole text column."""
    f = pq.ParquetFile(path)
    for batch in f.iter_batches(batch_size=1024, columns=list(columns)):
        yield pa.Table.from_batches([batch])


def _on_slice(fn, t: pa.Table, lo: int, hi: int, *args):
    """``fn`` over rows [lo, hi) of ``t`` in 1024-row batches: a task's twin
    of the driver's ``_driver_batches``."""
    return fn((t.slice(o, min(1024, hi - o)) for o in range(lo, hi, 1024)), *args)


def _map_rows(fn, path: str, columns, rows: tuple, *args, num_returns: int = 1) -> list:
    """The map step ``fn(batches, *args)`` over ``_rows``'s ``rows``: one
    inline call over a streamed read (a list of its value), or one task per
    slice (their refs, which stay in the object store)."""
    ref, cuts, _ = rows
    if ref is None:
        return [fn(_driver_batches(path, columns), *args)]
    slices = [(fn, ref, lo, hi, *args) for lo, hi in zip(cuts, cuts[1:])]
    return _submit(_on_slice, slices, num_returns)
