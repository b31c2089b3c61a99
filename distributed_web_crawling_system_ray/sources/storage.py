"""Payload table sink/source: Lance when available, Parquet otherwise.

The north-star format for the image+caption payload is Lance
(BASELINE.json input_hint); this container does not ship the ``lance``
package, so the live (tested) path is partitioned Parquet with
``compression="none"`` (the bytes column is already image-compressed).
The Lance branch is the same call shape behind an import guard —
activating it changes no call sites.  Either way a payload partition
directory holds data parts (``*.parquet`` files or ``*.lance`` datasets),
and ``payload_files`` lists them.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - not installed in this container
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def write_payload(ds, out_dir: str) -> None:
    """Write a payload Dataset to ``out_dir`` (one partition directory).
    The crawl and the bulk pass write through ``write_payload_part``, so no
    pipeline calls it; ``perfbench/trace.py`` still wraps it by name."""
    if HAVE_LANCE:  # pragma: no cover
        ds.write_lance(os.path.join(out_dir, "data.lance"))
    else:
        ds.write_parquet(out_dir, compression="none")


def write_payload_part(table, out_dir: str, *part: int) -> int:
    """Write one payload part into ``out_dir`` and return its row count; an
    empty table writes nothing.  The part is named by its ``part`` numbers
    (``part-00003-00001`` for ``3, 1``).  A Parquet part is written to a
    ``.tmp`` path and moved into place with ``os.replace``, and a Lance part
    overwrites its own dataset, so a retried task rewrites the same part
    and never adds a second copy of its rows."""
    if table.num_rows:
        path = os.path.join(out_dir, "part-" + "-".join(f"{i:05d}" for i in part))
        if HAVE_LANCE:  # pragma: no cover
            lance.write_dataset(table, path + ".lance", mode="overwrite")
        else:
            import pyarrow.parquet as pq

            pq.write_table(table, path + ".tmp", compression="none")
            os.replace(path + ".tmp", path + ".parquet")
    return table.num_rows


def payload_files(root: str) -> list[str]:
    """All payload data files under a partitioned output root."""
    ext = ".lance" if HAVE_LANCE else ".parquet"
    out: list[str] = []
    for d in sorted(os.listdir(root)):
        if not d.startswith("round="):
            continue
        rd = os.path.join(root, d)
        out.extend(
            os.path.join(rd, f) for f in sorted(os.listdir(rd)) if f.endswith(ext)
        )
    return out


def read_payload(root: str):
    """Read the full partitioned payload as a Dataset."""
    import ray.data

    files = payload_files(root)
    if HAVE_LANCE and files:  # pragma: no cover
        dses = [ray.data.read_lance(p) for p in files]
        return dses[0].union(*dses[1:]) if len(dses) > 1 else dses[0]
    if not files:
        from distributed_web_crawling_system_ray.schema import PAYLOAD

        return ray.data.from_arrow(PAYLOAD.empty_table())
    return ray.data.read_parquet(files)
