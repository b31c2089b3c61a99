"""Driver-side host partitioning and the dedup exchange's hash partition.

The sustained bulk pass (``pipelines/bulk.py``) cuts its host-sorted URL set
at host boundaries: the invariant *every host lands wholly in one chunk*
lets the politeness scheduler run as a plain ``map_batches`` over
pre-partitioned blocks instead of a ``groupby(host)`` sort-shuffle
(measured ~10 s at bench scale).  Boundary detection is vectorized
(pyarrow compare + ``np.searchsorted``).  The crawl's driver-sized rounds
schedule the whole host-sorted frontier in one call on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def host_chunk_bounds(host_col: pa.ChunkedArray | pa.Array, target_rows: int) -> list[int]:
    """Chunk boundary offsets for a host-sorted column: the first host-change
    at-or-after each ``target_rows`` stride.  Returns ``[0, ..., n]``."""
    n = len(host_col)
    if n == 0:
        return [0]
    if isinstance(host_col, pa.ChunkedArray):
        host_col = host_col.combine_chunks()
    # positions where a new host starts (vectorized string compare)
    neq = pc.not_equal(host_col.slice(1), host_col.slice(0, n - 1))
    changes = np.flatnonzero(neq.to_numpy(zero_copy_only=False)) + 1
    bounds = [0]
    i = target_rows
    while i < n:
        k = np.searchsorted(changes, i)
        if k == len(changes):
            break
        j = int(changes[k])
        bounds.append(j)
        i = j + target_rows
    bounds.append(n)
    return bounds


def add_hash_partition(
    batch: pa.Table, *, P: int, key_col: str = "url_hash"
) -> pa.Table:
    """Append a bounded hash-partition column ``part = key % P`` — the
    map_batches half of the explicit ``groupby(part)`` dedup exchange used
    by the crawl frontier/payload branches and the bulk pass."""
    part = (
        batch.column(key_col).to_numpy(zero_copy_only=False) % np.uint64(P)
    ).astype(np.int32)
    return batch.append_column("part", pa.array(part, pa.int32()))
