"""The dedup exchange's hash partition, shared by the crawl's cluster
rounds and the cluster-scale bulk pass.  Driver-sized crawl rounds and
bulk passes schedule their host-sorted rows in one call on the driver and
need no partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


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
