"""Arrow schemas for the crawl engine.

The reference carries ad-hoc JSON dicts between processes (URL task
``master/master_node.py:84-92``, crawl result ``crawler/crawler_node.py:189-212``,
document POST ``crawler/crawler_node.py:340-366``).  Here every hop is a typed
Arrow schema so blocks move zero-copy through the Ray object store.
"""

from __future__ import annotations

import pyarrow as pa

# Output payload table, per BASELINE.json input_hint.  image_id =
# md5(canonical image URL) hex — the reference's content-addressing scheme
# (crawler/crawler_node.py:253: S3 key = md5(url)).
PAYLOAD = pa.schema(
    [
        pa.field("image_id", pa.string()),
        pa.field("bytes", pa.binary()),
        pa.field("w", pa.int32()),
        pa.field("h", pa.int32()),
        pa.field("fmt", pa.string()),
        pa.field("caption", pa.string()),
        pa.field("phash", pa.int64()),
    ]
)

# Per-round, per-partition metrics (reference counters
# master/master_node.py:35-41, crawler/crawler_node.py:85-91 made durable).
METRICS = pa.schema(
    [
        pa.field("round", pa.int32()),
        pa.field("urls_scheduled", pa.int64()),
        pa.field("urls_fetched", pa.int64()),
        pa.field("urls_failed", pa.int64()),
        pa.field("urls_disallowed", pa.int64()),
        pa.field("links_extracted", pa.int64()),
        pa.field("links_new", pa.int64()),
        pa.field("images_written", pa.int64()),
        pa.field("wall_s", pa.float64()),
    ]
)
