"""Training-data operators over the documents / embeddings tables.

Beyond the reference's own operator set (SURVEY §2), these are the operations
a large-scale training-data pipeline needs: vectorized ``map_batches`` +
explicit hash-partition shuffles + broadcast small sides.  The near-dup
family (MinHash, SimHash, phash and embedding pairs, and their clusters)
runs one plan at every size: a sign step per slice of rows and a join step
per set of bands or blocks.  Up to ``DOC_DRIVER_ROWS`` docs,
``IMAGE_DRIVER_ROWS`` images or ``EMB_BLOCK_ROWS`` vectors they run inline
on the driver over pyarrow reads; above, the same functions run as plain
Ray tasks (``exchange``), and neither side runs a Ray Data execution.
Near-dup via phash is the reference's own declared future work
(``system_architecture_v3.md:319``).

Operator inventory (queries()-key -> method):
- doc_exact_dedup        exact dedup: content hash -> hash-partition -> first
- doc_token_count        whitespace tokenization count
- doc_fingerprint        document fingerprint (md5 of normalized text)
- doc_quality_counts     quality signals (token/stopword/long-token counts)
- doc_near_dup_pairs     MinHash+LSH candidates -> exact 3-gram Jaccard >= tau
- doc_simhash_pairs      SimHash banding -> Hamming <= k pairs
- doc_langid             n-gram/stopword language-ID heuristic
- docs_by_lang           grouped aggregate (count + sum of chars)
- emb_near_dup_pairs     embedding cosine near-dup (>= tau), block matmul
- ann_topk               brute-force cosine top-k vs broadcast query matrix
- ann_topk_lsh           hyperplane-LSH bucketed ANN (the scale path)
- emb_label_counts       grouped aggregate over labels

Determinism: every hash is keyed — blake2b-64 (or md5) once per distinct
token of a batch, and a chained ``_mix64(h ^ x_j)`` folding token hashes
into MinHash shingles and MinHash values into bands — no Python ``hash()``.
Float outputs are excluded from SQL-checked results (only ids/integers are
returned) so driver-side value-hash comparison is robust.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

# ---------------------------------------------------------------- helpers

STOPWORDS = ("the", "a", "of", "to", "and", "in", "is", "on", "for", "with")


def _from_pandas(df) -> pa.Table:
    """``pa.Table.from_pandas`` minus the ``b'pandas'`` schema metadata: that
    metadata dict makes the Arrow schema UNHASHABLE, which defeats Ray Data's
    block-schema dedup and spams "Failed to hash the schemas" on every block
    unify (visible in every r2 bench log tail)."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(
        None
    )


_WS = re.compile(r"\s+")


def _read_pq(path, **kw) -> "ray.data.Dataset":
    """read_parquet with the ``b'pandas'`` schema metadata stripped AT THE
    READ.  Testdata parquet written by pandas embeds a metadata dict in the
    Arrow schema, making block schemas unhashable — Ray then warns "Failed
    to hash the schemas" on every block unify, including inside the
    ReadParquet operator itself (where a post-read strip map is too late).
    Passing a cleaned schema makes every produced block metadata-free."""
    first = path if isinstance(path, str) else path[0]
    sch = pq.read_schema(first)
    cols = kw.get("columns")
    if cols:
        sch = pa.schema([sch.field(c) for c in cols])
    return ray.data.read_parquet(path, schema=sch.remove_metadata(), **kw)


def _docs_path(sf_dir: str) -> str:
    return os.path.join(sf_dir, "documents.parquet")


def _docs(sf_dir: str, columns=("doc_id", "text")) -> "ray.data.Dataset":
    return _read_pq(_docs_path(sf_dir), columns=list(columns))


def _emb(sf_dir: str, columns=("vec_id", "embedding")) -> "ray.data.Dataset":
    return _read_pq(
        os.path.join(sf_dir, "embeddings.parquet"), columns=list(columns)
    )


def _h64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


def _token_codes(texts: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """``str.split`` of each text of a batch, dictionary-encoded: per-text token
    counts, each token's code in text order, and the distinct tokens by code."""
    words = [t.split() for t in texts]
    enc = pa.array([w for ws in words for w in ws], pa.string()).dictionary_encode()
    n_tok = np.fromiter(map(len, words), np.int64, len(words))
    return n_tok, enc.indices.to_numpy().astype(np.intp), enc.dictionary.to_pylist()


def _to_table(ds_or_tbl) -> pa.Table:
    if isinstance(ds_or_tbl, pa.Table):
        return ds_or_tbl
    # materialize() first: to_arrow_refs() on a lazy Dataset probes the
    # schema with a limit-1 plan that RE-EXECUTES the whole upstream
    # pipeline (observed in ray-data logs — doubled every query's wall time)
    mat = ds_or_tbl.materialize()
    parts = [t for t in ray.get(mat.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts) if parts else None


def hash_partition_apply(ds, key_col: str, fn, P: int = 64):
    """Explicit hash-partition shuffle: groupby(key_hash % P) -> fn(partition).

    The generic 'co-locate by key without per-key task overhead' pattern used
    for exact dedup and pair-bucket joins (P bounded tasks instead of
    one-task-per-distinct-key)."""

    def _part(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col)
        if pa.types.is_unsigned_integer(keys.type) or pa.types.is_integer(keys.type):
            part = (
                keys.to_numpy(zero_copy_only=False).astype(np.uint64)
                % np.uint64(P)
            ).astype(np.int32)
        else:
            part = np.fromiter(
                (_h64(k) % P for k in keys.to_pylist()),
                dtype=np.int32,
                count=batch.num_rows,
            )
        return batch.append_column("_part", pa.array(part, pa.int32()))

    return (
        ds.map_batches(_part, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(lambda g: fn(g.drop(["_part"])), batch_format="pyarrow")
    )


# ---------------------------------------------------------------- text ops


def doc_exact_dedup(sf_dir: str) -> pa.Table:
    """Exact dedup: md5(text) -> hash-partition -> keep min doc_id per hash.

    Reference analog: upsert-by-unique-key in the Whoosh writer
    (indexer/indexer_node.py:91-97, SURVEY D3) generalized to content hash.
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text_hash": pa.array(hashes, pa.string()),
            }
        )

    def keep_first(part: pa.Table) -> pa.Table:
        # Arrow-native grouped min (first == min doc_id under the sort)
        g = part.group_by("text_hash").aggregate([("doc_id", "min")])
        return pa.table(
            {"doc_id": g.column("doc_id_min"), "text_hash": g.column("text_hash")}
        )

    ds = _docs(sf_dir).map_batches(add_hash, batch_format="pyarrow")
    return _to_table(hash_partition_apply(ds, "text_hash", keep_first))


def doc_token_count(sf_dir: str) -> pa.Table:
    def count(batch: pa.Table) -> pa.Table:
        n = [len(t.split()) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_tokens": pa.array(n, pa.int64())}
        )

    return _to_table(_docs(sf_dir).map_batches(count, batch_format="pyarrow"))


# BPE-ish pre-tokenization: letter runs / digit runs / single punctuation —
# the RE2-compatible core of GPT-2's pre-tokenizer split (no lookarounds, so
# Python re and DuckDB produce identical counts; real BPE merge tables would
# run on top of these pieces).
_BPE_SPLIT = re.compile(r"[a-z]+|[0-9]+|[^a-z0-9\s]")


def doc_token_count_bpe(sf_dir: str) -> pa.Table:
    """Subword-style token count: BPE pre-tokenizer piece count per doc —
    the 'how many tokens will the model see' estimator (whitespace counting
    under-counts punctuation-heavy text)."""

    def count(batch: pa.Table) -> pa.Table:
        n = [
            len(_BPE_SPLIT.findall(t.lower()))
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "n_pieces": pa.array(n, pa.int64())}
        )

    return _to_table(_docs(sf_dir).map_batches(count, batch_format="pyarrow"))


def doc_fingerprint(sf_dir: str) -> pa.Table:
    """Document fingerprint: md5 of whitespace-normalized lowercased text —
    the content-address scheme (crawler/crawler_node.py:253) applied to
    normalized content instead of URL."""

    def fp(batch: pa.Table) -> pa.Table:
        # collapse whitespace FIRST, then strip single edge spaces — keeps
        # python and SQL (trim(regexp_replace(lower(text),'\s+',' ','g')))
        # byte-identical regardless of edge whitespace kind
        out = [
            hashlib.md5(_WS.sub(" ", t.lower()).strip(" ").encode("utf-8")).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(out, pa.string())}
        )

    return _to_table(_docs(sf_dir).map_batches(fp, batch_format="pyarrow"))


WINNOW_WINDOW = 4  # k-gram hashes per winnowing window


def doc_winnow_fingerprints(sf_dir: str) -> pa.Table:
    """Winnowing fingerprints (Schleimer et al., SIGMOD'03): per doc, hash
    every 3-token shingle, slide a window of WINNOW_WINDOW hashes, keep each
    window's minimum — the selected-hash SET is the document fingerprint
    (guaranteed to share entries with any doc that shares a long-enough
    substring).  This is the rolling-window fingerprint primitive for
    plagiarism/near-dup detection at guaranteed-coverage granularity,
    complementing the probabilistic MinHash path.

    Hashes are md5-hex STRINGS min'd lexicographically so DuckDB reproduces
    the selection exactly (a production build swaps in a Rabin-Karp rolling
    integer hash — only the per-gram hash changes, the winnowing shape is
    identical).  Docs with fewer than WINNOW_WINDOW shingles emit nothing.
    Output: one (doc_id, fp) row per selected hash.
    """
    w = WINNOW_WINDOW

    def winnow(batch: pa.Table) -> pa.Table:
        out_d: list[int] = []
        out_f: list[str] = []
        for did, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            grams = [
                hashlib.md5(s.encode("utf-8")).hexdigest() for s in _shingles(text)
            ]
            if len(grams) < w:
                continue
            fps = {min(grams[i : i + w]) for i in range(len(grams) - w + 1)}
            out_d.extend([did] * len(fps))
            out_f.extend(sorted(fps))
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "fp": pa.array(out_f, pa.string()),
            }
        )

    return _to_table(_docs(sf_dir).map_batches(winnow, batch_format="pyarrow"))


def doc_quality_counts(sf_dir: str) -> pa.Table:
    """Quality-signal counts: tokens, stopwords, long tokens (>6 chars).
    Integer-valued so the SQL oracle comparison is float-free; a downstream
    quality *score* is any weighting of these."""
    stop = set(STOPWORDS)

    def q(batch: pa.Table) -> pa.Table:
        n_tok, n_stop, n_long = [], [], []
        for t in batch.column("text").to_pylist():
            toks = t.split()
            n_tok.append(len(toks))
            n_stop.append(sum(1 for x in toks if x in stop))
            n_long.append(sum(1 for x in toks if len(x) > 6))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_stopwords": pa.array(n_stop, pa.int64()),
                "n_long_tokens": pa.array(n_long, pa.int64()),
            }
        )

    return _to_table(_docs(sf_dir).map_batches(q, batch_format="pyarrow"))


def docs_by_lang(sf_dir: str) -> pa.Table:
    """Grouped aggregate (SURVEY G4 analog: grouped count/size)."""
    from ray.data.aggregate import Count, Sum

    out = (
        _docs(sf_dir, columns=("doc_id", "lang", "n_chars"))
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
    )
    return _to_table(out)


# ------------------------------------------------------- near-dup: minhash

SHINGLE_K = 3
N_PERM = 128
N_BANDS = 32  # 32 bands x 4 rows
JACCARD_TAU = 0.8

_PERM_SEEDS = np.arange(1, N_PERM + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def _shingles(text: str) -> list[str]:
    w = text.split()
    return [" ".join(w[i : i + SHINGLE_K]) for i in range(len(w) - SHINGLE_K + 1)]


def _mix64(x: np.ndarray) -> np.ndarray:
    """murmur3's 64-bit finalizer, IN PLACE: every caller passes a temporary."""
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


_MINHASH_CHUNK = 512  # shingles per (N_PERM, chunk) signature temporary: 512 KiB


def _minhash_band_matrix(batch: pa.Table) -> np.ndarray:
    """(n, N_BANDS) uint64 LSH band hashes of a ``(doc_id, text)`` batch,
    which both ``doc_lsh_candidates`` paths sign per batch.  A shingle's
    hash folds its SHINGLE_K token hashes (``_h64``, once per distinct
    token) with a chained ``_mix64(h ^ t_j)``, a band's hash its MinHash
    values; per permutation, a doc's MinHash is the min of
    ``_mix64(h ^ seed)`` over its shingles (all-max with none)."""
    n_tok, codes, vocab = _token_codes(batch.column("text").to_pylist())
    tok_h = np.fromiter(map(_h64, vocab), np.uint64, len(vocab))[codes]
    n_sh = np.maximum(n_tok - (SHINGLE_K - 1), 0)
    sh_start = np.cumsum(n_sh) - n_sh
    # each shingle's first token: its doc's token offset + its rank in the doc
    first = np.repeat(np.cumsum(n_tok) - n_tok - sh_start, n_sh) + np.arange(n_sh.sum())
    sh_h = np.zeros(len(first), dtype=np.uint64)
    for j in range(SHINGLE_K):
        sh_h = _mix64(sh_h ^ tok_h[first + j])
    sigs = np.full((len(n_tok), N_PERM), np.iinfo(np.uint64).max, dtype=np.uint64)
    docs = np.flatnonzero(n_sh)  # reduceat needs strictly increasing offsets
    starts = sh_start[docs]
    for lo in range(0, len(sh_h), _MINHASH_CHUNK):
        # the chunk's docs: the one holding shingle lo, then each starting in it
        a, b = np.searchsorted(starts, [lo, lo + _MINHASH_CHUNK - 1], "right")
        m = _mix64(_PERM_SEEDS[:, None] ^ sh_h[None, lo : lo + _MINHASH_CHUNK])
        part = np.minimum.reduceat(m, np.maximum(starts[a - 1 : b], lo) - lo, axis=1)
        sigs[docs[a - 1 : b]] = np.minimum(sigs[docs[a - 1 : b]], part.T)
    r = sigs.reshape(len(n_tok), N_BANDS, N_PERM // N_BANDS)
    h = np.zeros(r.shape[:2], dtype=np.uint64)
    for j in range(r.shape[2]):
        h = _mix64(h ^ r[:, :, j])
    return h


# The near-dup bounds for docs and images: an input of at most this many
# rows runs each op's sign and join steps inline on the driver over a
# streamed pyarrow read; a larger one runs the same functions as plain Ray
# tasks (``_rows``).  Inline vs task plan, warm s, prefixes of the sf1
# fixture on a 4-vCPU host: in a 1-CPU session the task plan takes 0.8-1.35x
# the inline wall at every size up to sf1 (50k docs: 2.9 vs 2.5 s), so no
# crossover lies at or below the bound; in a 4-CPU session the task plan
# wins from about 3k docs (3,125: 0.10 vs 0.23 s; 50k: 1.1 vs 3.2 s).
# Above 50k docs, unmeasured.
DOC_DRIVER_ROWS = 50_000
# Images (``image_phash_near_dup``), same runs: 1-CPU session 0.99-1.3x up
# to 250k (2.2 vs 1.7 s there); 4-CPU session, the task plan wins between
# 15.6k (0.046 vs 0.036 s) and 62.5k images (0.17 vs 0.42 s; 250k: 0.56 vs
# 1.7 s).
IMAGE_DRIVER_ROWS = 250_000


def _num_rows(path: str) -> int:
    return pq.read_metadata(path).num_rows


def _driver_batches(path: str, columns):
    """A parquet file's record batches, read on the driver one at a time —
    the pyarrow twin of ``_read_pq(path, columns=...).map_batches`` (and
    its 1024-row default batch), so a driver path never holds a whole text
    column."""
    f = pq.ParquetFile(path)
    for batch in f.iter_batches(batch_size=1024, columns=list(columns)):
        yield pa.Table.from_batches([batch])


def _rows(path: str, columns, bound: int) -> tuple:
    """Where a near-dup op over the parquet file's ``columns`` runs, as
    ``(ref, cuts, S)``.  At most ``bound`` rows: ``ref`` is None and every
    step runs inline on the driver (S = 1).  Above: S is the session's CPU
    count, ``ref`` one task's read of the file (the fixtures are one row
    group, so rows split after the read, not in the reader) and ``cuts``
    the bounds of its consecutive, non-empty slices."""
    n = _num_rows(path)
    if n <= bound:
        return None, [0, n], 1
    from distributed_web_crawling_system_ray.pipelines import exchange

    S = exchange._shard_count()
    ref = exchange._submit(_read_columns, [(path, list(columns))])[0]
    return ref, sorted({n * s // S for s in range(S + 1)}), S


def _read_columns(path: str, columns: list) -> pa.Table:
    return pq.read_table(path, columns=columns)


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
    from distributed_web_crawling_system_ray.pipelines import exchange

    slices = [(fn, ref, lo, hi, *args) for lo, hi in zip(cuts, cuts[1:])]
    return exchange._submit(_on_slice, slices, num_returns)


def _run(fn, args: list[tuple], rows: tuple) -> list:
    """``fn(*a)`` for each ``a`` in ``args``: inline on the driver when
    ``rows`` runs there, else one plain Ray task each; their values."""
    if rows[0] is None:
        return [fn(*a) for a in args]
    from distributed_web_crawling_system_ray.pipelines import exchange

    return ray.get(exchange._submit(fn, args))


def _sign_join(sign, join, n_keys: int, path: str, columns, rows: tuple, *args) -> pa.Table:
    """A banded join over ``rows``: the sign step ``sign(batches, *args)``
    per slice, then join piece t of min(S, ``n_keys``) runs ``join(keys,
    *signed)`` over the bands or blocks ``keys`` = c ≡ t (mod S), reading
    every sign output (as refs above the bound).  A pair leaves only the
    lowest band or block it collides in, so the pieces' pair tables are
    disjoint."""
    signed = _map_rows(sign, path, columns, rows, *args)
    S = rows[2]
    joins = [(range(t, n_keys, S), *signed) for t in range(min(S, n_keys))]
    return pa.concat_tables(_run(join, joins, rows))


def _pairs(a, b, id_type: pa.DataType = pa.int64()) -> pa.Table:
    return pa.table({"a": pa.array(a, id_type), "b": pa.array(b, id_type)})


def _sorted_pairs(out, id_type: pa.DataType = pa.int64()) -> pa.Table:
    """A pair table sorted by (a, b); ``None`` (no rows) becomes empty."""
    out = _pairs([], [], id_type) if out is None else out
    return out.sort_by([("a", "ascending"), ("b", "ascending")])


def _band_candidates(c: int, ids: np.ndarray, band: np.ndarray):
    """Band ``c``'s candidate pairs as row indices ``(i, j)`` into ``ids``
    and ``band`` (the rows' (n, N_BANDS) band matrix), ``ids[i] < ids[j]``.

    A candidate is two rows with equal band-c hashes whose docs agree on no
    band below c: a pair that does is emitted from that lower band, so each
    pair leaves the band join exactly once.  Buckets are runs of a
    vectorized sort by band hash; only multi-member runs reach Python.  A
    bucket whose members all equal its first member on some band below c
    is skipped before any pair is built (every pair in it collides lower);
    in the buckets left, the lower-band test runs per pair."""
    bh = band[:, c]
    order = np.lexsort((ids, bh))
    bh_s = bh[order]
    starts = np.flatnonzero(np.r_[True, bh_s[1:] != bh_s[:-1]])
    sizes = np.diff(np.r_[starts, len(bh_s)])
    starts, sizes = starts[sizes > 1], sizes[sizes > 1]
    if c and len(starts):
        offs = np.cumsum(sizes) - sizes  # run k's members: pos[offs[k]:][:sizes[k]]
        pos = np.repeat(starts - offs, sizes) + np.arange(int(sizes.sum()))
        same = band[order[pos], :c] == band[order[np.repeat(starts, sizes)], :c]
        lower = np.logical_and.reduceat(same, offs, axis=0).any(axis=1)
        starts, sizes = starts[~lower], sizes[~lower]
    i_out, j_out = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s, k in zip(starts.tolist(), sizes.tolist()):
        ii, jj = np.triu_indices(k, k=1)  # ids ascend within a run
        i_out.append(order[s + ii])
        j_out.append(order[s + jj])
    i, j = np.concatenate(i_out), np.concatenate(j_out)
    if c:
        keep = (band[i, :c] != band[j, :c]).all(axis=1)
        i, j = i[keep], j[keep]
    return i, j


_DOC_COLS = ("doc_id", "text")


def _doc_bands(batches) -> tuple[np.ndarray, np.ndarray]:
    """The LSH sign step: the doc ids of ``batches`` and their
    ``_minhash_band_matrix`` rows."""
    ids, band = [np.zeros(0, np.int64)], [np.zeros((0, N_BANDS), np.uint64)]
    for batch in batches:
        ids.append(batch.column("doc_id").to_numpy(zero_copy_only=False))
        band.append(_minhash_band_matrix(batch))
    return np.concatenate(ids), np.concatenate(band)


def _lsh_join(bands, *signed) -> pa.Table:
    """The LSH join step: ``_band_candidates`` of every band in ``bands``
    over all the signed ``(ids, band matrix)`` pieces, as doc id pairs."""
    ids, band = map(np.concatenate, zip(*signed))
    i, j = map(np.concatenate, zip(*[_band_candidates(c, ids, band) for c in bands]))
    return _pairs(ids[i], ids[j])


def _lsh_candidates(path: str, rows: tuple) -> pa.Table:
    return _sorted_pairs(_sign_join(_doc_bands, _lsh_join, N_BANDS, path, _DOC_COLS, rows))


def doc_lsh_candidates(sf_dir: str) -> pa.Table:
    """Candidate pairs (a < b) sharing at least one LSH band bucket, one row
    per pair (from the lowest band the two docs collide in), sorted.  The
    docs are signed per slice and joined per band (``_sign_join``): on the
    driver up to ``DOC_DRIVER_ROWS`` docs, in plain Ray tasks above."""
    path = _docs_path(sf_dir)
    return _lsh_candidates(path, _rows(path, _DOC_COLS, DOC_DRIVER_ROWS))


def _jaccard_verified(a: np.ndarray, b: np.ndarray, ids: list, texts: list):
    """The pairs ``(a[k], b[k])`` whose 3-gram shingle sets have Jaccard
    >= JACCARD_TAU, in input order; ``ids``/``texts`` hold every member's
    text.  The one verify kernel of both ``doc_near_dup_pairs`` paths."""
    sh = {d: set(_shingles(t)) for d, t in zip(ids, texts)}
    keep = np.zeros(len(a), dtype=bool)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        sa, sb = sh[x], sh[y]
        if sa or sb:
            inter = len(sa & sb)
            keep[k] = inter / (len(sa) + len(sb) - inter) >= JACCARD_TAU
    return a[keep], b[keep]


def _route_texts(batches, need: tuple, S: int):
    """The verify map step: each ``(doc_id, text)`` row of ``batches`` that a
    candidate pair references, once per verify piece whose pairs reference
    it, split into the S pieces (one table when S is 1, as ``num_returns``
    takes it).  ``need`` maps the referenced doc ids (sorted) to their
    pieces as a CSR: ``flat[offs[k]:offs[k + 1]]`` are ``ids[k]``'s."""
    from distributed_web_crawling_system_ray.pipelines.exchange import _split

    ids, offs, flat = need
    value_set = pa.array(ids)
    kept, piece = [], []
    for batch in batches:
        batch = batch.filter(pc.is_in(batch.column("doc_id"), value_set=value_set))
        pos = np.searchsorted(ids, batch.column("doc_id").to_numpy(zero_copy_only=False))
        starts, counts = offs[pos], offs[pos + 1] - offs[pos]
        # ragged ranges: row r's pieces are flat[starts[r]:][:counts[r]]
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        kept.append(batch.take(pa.array(np.repeat(np.arange(len(pos)), counts))))
        piece.append(flat[np.repeat(starts, counts) + within])
    pieces = _split(pa.concat_tables(kept), np.concatenate(piece), S)
    return pieces if S > 1 else pieces[0]


def _verify(a: np.ndarray, b: np.ndarray, *pieces) -> pa.Table:
    """The verify reduce step: the pairs ``(a[k], b[k])`` of one piece that
    pass ``_jaccard_verified`` against the texts its route pieces hold."""
    t = pa.concat_tables(pieces)
    return _pairs(
        *_jaccard_verified(a, b, t.column("doc_id").to_pylist(), t.column("text").to_pylist())
    )


def doc_near_dup_pairs(sf_dir: str) -> pa.Table:
    """MinHash+LSH candidates verified by exact 3-gram Jaccard >= 0.8.

    The output is exactly 'all pairs with true Jaccard >= tau' (the SQL
    oracle brute-forces the same) — with 32x4 banding the probability of LSH
    missing a tau-level pair is < 1e-6 per pair.  Candidates come from
    ``doc_lsh_candidates``, duplicate-free by construction.

    The verify runs where the candidates ran.  Pair ``(a, b)`` belongs to
    piece ``a % S``; a map step per slice (``_route_texts``) keeps only the
    texts some pair references and routes each to every piece whose pairs
    reference it, and one reduce per piece runs ``_verify``.  On the driver
    (S = 1) that is one streamed read keeping the referenced texts: the
    driver never holds the corpus text, and above the bound it gets no text
    at all, only pair tables.
    """
    path = _docs_path(sf_dir)
    rows = _rows(path, _DOC_COLS, DOC_DRIVER_ROWS)
    cands = _lsh_candidates(path, rows)
    if cands.num_rows == 0:
        return cands
    a = cands.column("a").to_numpy(zero_copy_only=False)
    b = cands.column("b").to_numpy(zero_copy_only=False)
    S = rows[2]
    piece = (a.astype(np.uint64) % np.uint64(S)).astype(np.int64)
    # each referenced doc id -> the pieces that need its text, as a CSR
    memb = np.unique(np.stack([np.concatenate([a, b]), np.tile(piece, 2)], axis=1), axis=0)
    ids, counts = np.unique(memb[:, 0], return_counts=True)
    need = (ids, np.concatenate([[0], np.cumsum(counts)]), memb[:, 1])
    routed = _map_rows(_route_texts, path, _DOC_COLS, rows, need, S, num_returns=S)
    routed = [r if S > 1 else [r] for r in routed]
    by_piece = np.argsort(piece, kind="stable")
    offs = np.searchsorted(piece[by_piece], np.arange(S + 1))
    verify = [
        (a[by_piece[lo:hi]], b[by_piece[lo:hi]], *[r[k] for r in routed])
        for k, (lo, hi) in enumerate(zip(offs, offs[1:]))
    ]
    return _sorted_pairs(pa.concat_tables(_run(_verify, verify, rows)))


# ------------------------------------------------------- near-dup: simhash

SIMHASH_HAMMING_MAX = 3
# 4 x 16-bit bands: Hamming <= 3 pairs share >= 1 exact band (pigeonhole)
_SIMHASH_BANDS = 4
_SIMHASH_MASKS = np.uint64(0xFFFF) << (
    np.uint64(16) * np.arange(_SIMHASH_BANDS, dtype=np.uint64)
)

# byte -> popcount lookup for vectorized 64-bit Hamming distance
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _block_keys(sigs: np.ndarray, mask) -> np.ndarray:
    """The two whole bytes of each uint64 signature under ``mask`` as one
    compact uint16 block key: one key is one masked value, and a stable
    sort by a 16-bit key is a radix sort.  Every block mask of the family
    is two whole bytes (two phash bands, or one 16-bit SimHash band)."""
    sel = [k for k in range(8) if (int(mask) >> (8 * k)) & 0xFF]
    assert len(sel) == 2 and all((int(mask) >> (8 * k)) & 0xFF == 0xFF for k in sel)
    u8 = sigs.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.ascontiguousarray(u8[:, sel]).view("<u2").ravel()


def _keyed_hamming_id_pairs(
    keys: np.ndarray,
    sigs: np.ndarray,
    ids: np.ndarray,
    max_ham: int,
    lower_masks: np.ndarray = np.zeros(0, np.uint64),
) -> tuple[np.ndarray, np.ndarray]:
    """All (min_id, max_id) pairs sharing a blocking key with signature
    Hamming distance <= ``max_ham`` — one block of the banded-Hamming join.
    A pair whose XOR also clears one of ``lower_masks`` (the masks of the
    blocks before this one) is dropped: it collides in a lower block and is
    emitted there, so each pair leaves the join exactly once.

    One call processes every key bucket of a block vectorized (a call per
    (block, key) bucket would be millions of tiny calls at 10x scale,
    measured as the r5 sf1 hot spot): rows sort by (key, sig) as a stable
    sort by key over rows in sig order (sorted here unless they arrive so,
    as on the driver path).  Identical (key, sig) runs collapse to one row
    (hot-bucket defense, exact); distinct-sig candidates within a key
    emerge from a d-distance sweep over the unique rows
    (``ukey[t] == ukey[t+d]``), each sweep a single vectorized XOR +
    popcount-lookup pass.  The sweep depth is the largest per-key unique-sig
    count — the same O(sum u_k^2) work as per-bucket all-pairs, without the
    per-bucket call overhead."""
    empty = (np.zeros(0, dtype=ids.dtype), np.zeros(0, dtype=ids.dtype))
    n = len(keys)
    if n < 2:
        return empty
    if (sigs[1:] < sigs[:-1]).any():
        by_sig = np.argsort(sigs, kind="stable")
        keys, sigs, ids = keys[by_sig], sigs[by_sig], ids[by_sig]
    order = np.argsort(keys, kind="stable")
    k_s, s_s, id_s = keys[order], sigs[order], ids[order]
    chg = np.flatnonzero((k_s[1:] != k_s[:-1]) | (s_s[1:] != s_s[:-1])) + 1
    ustart = np.concatenate([[0], chg]).astype(np.int64)
    uend = np.concatenate([chg, [n]]).astype(np.int64)
    ukey, usig, usize = k_s[ustart], s_s[ustart], uend - ustart
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    # (1) identical-sig clusters: Hamming 0, all member pairs qualify; their
    # XOR clears every mask, so only the lowest block emits them
    if len(lower_masks) == 0:
        for g in np.flatnonzero(usize > 1):
            m = id_s[ustart[g] : uend[g]]
            ii, jj = np.triu_indices(len(m), k=1)
            a, b = _ordered_id_pairs_direct(m[ii], m[jj])
            a_out.append(a)
            b_out.append(b)
    # (2) distinct-sig pairs within a key: d-distance sweep over unique
    # rows.  Each pass touches ONLY rows whose run extends d further (rows
    # pre-sorted by distance-to-run-end), so total candidate work is
    # exactly sum over keys of u_k*(u_k-1)/2 — one hot key (r5 review:
    # e.g. a zero band pair shared by thousands of flat images) costs its
    # own pairs, not a full-block scan per distance step.
    u = len(ukey)
    if u > 1:
        kchg = np.flatnonzero(ukey[1:] != ukey[:-1]) + 1
        rstart_k = np.concatenate([[0], kchg]).astype(np.int64)
        rlen = np.diff(np.concatenate([rstart_k, [u]]))
        run_of = np.repeat(np.arange(len(rlen)), rlen)
        gap = rlen[run_of] - (np.arange(u) - rstart_k[run_of])  # to run end
        order_g = np.argsort(-gap, kind="stable")
        gap_desc = gap[order_g]
        for d in range(1, int(gap_desc[0])):
            # rows with gap > d, i.e. (row, row+d) stays within one key run
            k_d = int(np.searchsorted(-gap_desc, -d, side="left"))
            if k_d == 0:
                break
            idx = order_g[:k_d]
            xor = usig[idx] ^ usig[idx + d]
            ham = _POPCNT8[xor.view(np.uint8).reshape(len(idx), 8)].sum(
                axis=1, dtype=np.uint8
            )
            keep = ham <= max_ham
            if len(lower_masks):  # on the few close pairs only
                keep[keep] = ((xor[keep, None] & lower_masks) != 0).all(axis=1)
            ok = idx[keep]
            if len(ok) == 0:
                continue
            oj = ok + d
            simple = (usize[ok] == 1) & (usize[oj] == 1)
            if simple.any():
                a, b = _ordered_id_pairs_direct(
                    id_s[ustart[ok[simple]]], id_s[ustart[oj[simple]]]
                )
                a_out.append(a)
                b_out.append(b)
            for g, h in zip(ok[~simple], oj[~simple]):
                mi, mj = id_s[ustart[g] : uend[g]], id_s[ustart[h] : uend[h]]
                a, b = _ordered_id_pairs_direct(
                    np.repeat(mi, len(mj)), np.tile(mj, len(mi))
                )
                a_out.append(a)
                b_out.append(b)
    if not a_out:
        return empty
    return np.concatenate(a_out), np.concatenate(b_out)


def _ordered_id_pairs_direct(a: np.ndarray, b: np.ndarray):
    """(min, max) ordering for paired id arrays, dropping self-pairs (the
    same id arriving twice in one bucket)."""
    keep = a != b
    a, b = a[keep], b[keep]
    # elementwise (min, max) via where: np.minimum lacks a str-dtype loop
    swap = a > b
    return np.where(swap, b, a), np.where(swap, a, b)


def _hamming_sign(batches, sig_batch) -> pa.Table | None:
    """The banded-Hamming sign step: ``sig_batch`` per batch, concatenated
    (None with no batch)."""
    parts = [sig_batch(t) for t in batches]
    return pa.concat_tables(parts) if parts else None


def _hamming_join(masks, max_ham: int, id_col: str, id_type, blocks, *signed) -> pa.Table:
    """The banded-Hamming join step over the blocks ``blocks`` of ``masks``:
    the rows of every signed piece sort by signature once, and
    ``_keyed_hamming_id_pairs`` runs per block with the lower blocks' masks;
    the kernel pairs row positions, and the ids stay in Arrow until the
    end."""
    signed = [t for t in signed if t is not None]
    if not signed:
        return _pairs([], [], id_type)
    rows = pa.concat_tables(signed)
    sig = rows.column("sig").to_numpy()
    by_sig = np.argsort(sig, kind="stable")
    sig = sig[by_sig]
    ab = [
        _keyed_hamming_id_pairs(_block_keys(sig, masks[c]), sig, by_sig, max_ham, masks[:c])
        for c in blocks
    ]
    ids = rows.column(id_col).cast(id_type)
    a, b = (ids.take(x) for x in map(np.concatenate, zip(*ab)))
    swap = pc.greater(a, b)
    out = pa.table({"a": pc.if_else(swap, b, a), "b": pc.if_else(swap, a, b)})
    return out.filter(pc.not_equal(out["a"], out["b"]))


def _banded_hamming_join(
    path: str,
    bound: int,
    columns,
    sig_batch,
    id_col: str,
    id_type: pa.DataType,
    masks: np.ndarray,
    max_ham: int,
) -> pa.Table:
    """All (a, b) id pairs, a < b, whose uint64 signatures differ in at most
    ``max_ham`` bits — the one banded-Hamming join behind
    ``doc_simhash_pairs`` and ``image_phash_near_dup``.  ``sig_batch`` maps
    a batch of the parquet file's ``columns`` to ``(id_col, sig)`` rows
    (``_hamming_sign``); ``_hamming_join`` runs per block (``_sign_join``),
    on the driver up to ``bound`` rows, in plain Ray tasks above.

    Each entry of ``masks`` is one block; the caller picks them
    pigeonhole-exact, so every qualifying pair agrees on some mask.  A
    row's key in block c is its masked bits (``_block_keys``), and a pair
    is emitted only from the lowest block it collides in (identical
    signatures: block 0).  Duplicate-free candidate generation is a
    partitioning rule here, not a post-hoc dedup (*Distributed Streaming
    Set Similarity Join*, ICDE 2020): no pair list is deduped anywhere."""
    rows = _rows(path, columns, bound)
    join = lambda blocks, *signed: _hamming_join(  # noqa: E731
        masks, max_ham, id_col, id_type, blocks, *signed
    )
    return _sorted_pairs(
        _sign_join(_hamming_sign, join, len(masks), path, columns, rows, sig_batch), id_type
    )


def _h64_md5(s: str) -> int:
    """md5 high-64 token hash for SimHash — chosen over blake2b so the
    WHOLE simhash computation is DuckDB-expressible (md5 + hex-literal
    cast), making doc_simhash_pairs a hash-checked query.  Banding recall
    is pigeonhole-EXACT for Hamming <= 3, so the hash choice cannot lose
    pairs."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


def _simhash_sigs(batch: pa.Table) -> pa.Table:
    """``(doc_id, sig)`` of a ``(doc_id, text)`` batch: SimHash bit i is set
    when over half of the doc's tokens set bit i of their ``_h64_md5``
    (run once per distinct token): their +-1 sign sum is positive."""
    n_tok, codes, vocab = _token_codes(batch.column("text").to_pylist())
    hs = np.fromiter(map(_h64_md5, vocab), dtype=np.uint64, count=len(vocab))
    bits = ((hs >> np.arange(64, dtype=np.uint64)[:, None]) & np.uint64(1)).astype(np.int64)
    docs = np.flatnonzero(n_tok)
    offs = (np.cumsum(n_tok) - n_tok)[docs]
    ones = np.zeros((len(n_tok), 64), dtype=np.int64)
    for b in range(64):
        ones[docs, b] = np.add.reduceat(bits[b][codes], offs)
    sig = np.packbits(2 * ones > n_tok[:, None], axis=1, bitorder="little").view("<u8")
    return pa.table({"doc_id": batch.column("doc_id"), "sig": pa.array(sig.ravel())})


def doc_simhash_pairs(sf_dir: str) -> pa.Table:
    """SimHash near-dup: 64-bit simhash over tokens; pairs with Hamming <= 3
    from the banded-Hamming join on four 16-bit bands (pigeonhole: <= 3
    differing bits leave at least one of 4 bands identical)."""
    return _banded_hamming_join(
        _docs_path(sf_dir),
        DOC_DRIVER_ROWS,
        ("doc_id", "text"),
        _simhash_sigs,
        "doc_id",
        pa.int64(),
        _SIMHASH_MASKS,
        SIMHASH_HAMMING_MAX,
    )


# ---------------------------------------------------------------- lang-id

_LANG_PROFILES = {
    "en": ("the", "and", "of", "is", "to", "a", "in", "that", "with", "for"),
    "es": ("el", "la", "de", "que", "y", "en", "los", "un", "por", "con"),
    "de": ("der", "die", "und", "das", "ist", "ein", "mit", "von", "zu", "den"),
    "fr": ("le", "la", "et", "les", "des", "un", "une", "du", "est", "dans"),
}
_CJK = re.compile(r"[一-鿿]")


def doc_langid(sf_dir: str) -> pa.Table:
    """Language-ID heuristic: CJK charset check, else stopword-profile
    scoring with deterministic tie-break (profile order).  A standalone
    deterministic transform (the fixture's texts share one vocabulary, so
    accuracy against the lang column is not the contract — determinism is)."""
    profiles = {k: set(v) for k, v in _LANG_PROFILES.items()}
    order = list(_LANG_PROFILES.keys())

    def lid(batch: pa.Table) -> pa.Table:
        preds = []
        for t in batch.column("text").to_pylist():
            if _CJK.search(t):
                preds.append("zh")
                continue
            toks = t.lower().split()
            scores = {k: sum(1 for x in toks if x in p) for k, p in profiles.items()}
            best = max(order, key=lambda k: scores[k])
            preds.append(best if scores[best] > 0 else "unknown")
        return pa.table(
            {"doc_id": batch.column("doc_id"), "lang_pred": pa.array(preds, pa.string())}
        )

    return _to_table(_docs(sf_dir).map_batches(lid, batch_format="pyarrow"))


# ----------------------------------------------------------- embeddings

# the testdata embeddings are near-isotropic (max pairwise cosine ~0.51), so
# the near-dup threshold sits inside the actual upper tail to be non-vacuous
COSINE_TAU = 0.45
ANN_K = 10
ANN_N_QUERIES = 10


def _unit_rows(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """``(vec_id, unit-norm float64 rows)`` of a ``(vec_id, embedding)``
    table: the list column's values flattened to (n, d), no per-row Python."""
    emb = tbl.column("embedding").combine_chunks()
    flat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    m = flat.reshape(len(emb), len(flat) // max(1, len(emb)))
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False)
    return ids, m / np.linalg.norm(m, axis=1, keepdims=True)


def _query_matrix(sf_dir: str, n: int = ANN_N_QUERIES) -> tuple[np.ndarray, np.ndarray]:
    """The n lowest-vec_id query rows WITHOUT loading the table: a local
    min-k over the (pruned) vec_id column per batch + tiny driver merge,
    then a pushdown-filtered read of exactly those n embedding rows."""

    def local_min(batch: pa.Table) -> pa.Table:
        v = np.sort(batch.column("vec_id").to_numpy(zero_copy_only=False))[:n]
        return pa.table({"vec_id": pa.array(v, pa.int64())})

    parts = [
        t
        for t in ray.get(
            _emb(sf_dir, columns=("vec_id",))
            .map_batches(local_min, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if t.num_rows
    ]
    if not parts:  # empty embeddings table
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.float64)
    qids = np.sort(
        np.concatenate(
            [p.column("vec_id").to_numpy(zero_copy_only=False) for p in parts]
        )
    )[:n]
    qtbl = _to_table(
        ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filter=pa.compute.field("vec_id").isin(qids.tolist()),
        )
    )
    ids = np.asarray(qtbl.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.asarray(qtbl.column("embedding").to_pylist(), dtype=np.float64)
    order = np.argsort(ids)
    return ids[order], mat[order]


def ann_topk(sf_dir: str) -> pa.Table:
    """Brute-force cosine top-k: per batch, matmul against a broadcast query
    matrix; per-batch local top-k then a tiny global merge per query.

    Output (query_id, neighbor_id) pairs — rank-free so the comparison is
    order-insensitive.  Queries = the ANN_N_QUERIES lowest vec_ids, loaded
    via a pruned filtered read (the corpus never touches the driver).
    """
    qids, q = _query_matrix(sf_dir)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    q_ref = ray.put((qids, qn))

    def local_topk(batch: pa.Table) -> pa.Table:
        from distributed_web_crawling_system_ray.stages.cache import get_object

        qids_, qn_ = get_object(q_ref)
        vids, mn = _unit_rows(batch)
        sims = qn_ @ mn.T  # (Q, batch)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids_)):
            s = sims[qi].copy()
            s[vids == qids_[qi]] = -np.inf  # exclude self
            k = min(ANN_K, len(vids))
            # total order (-sim, vec_id): identical local and global tie-break
            order = np.lexsort((vids, -s))[:k]
            for t in order:
                if np.isfinite(s[t]):
                    out_q.append(int(qids_[qi]))
                    out_v.append(int(vids[t]))
                    out_s.append(float(s[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(ANN_K)
        return _from_pandas(df[["query_id", "vec_id"]])

    out = (
        _emb(sf_dir)
        .map_batches(local_topk, batch_format="pyarrow", batch_size=2048)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )
    return _to_table(out)


def ann_topk_lsh(sf_dir: str) -> pa.Table:
    """Hyperplane-LSH bucketed ANN — the scale path for similarity search.

    Random-hyperplane signatures; candidates = vectors sharing a bucket with
    the query under any of the independent tables; exact cosine re-rank of
    candidates.  Recall vs brute force is asserted in pytest, so this entry
    is rows-only checked by the driver.  6 bits x 12 tables is tuned for the
    near-isotropic testdata (weak similarities need shallow buckets); real
    clustered embeddings would use deeper codes.
    """
    rng = np.random.default_rng(42)
    n_tables, n_bits = 12, 6
    qids, qmat = _query_matrix(sf_dir)
    dim = qmat.shape[1]
    planes = rng.standard_normal((n_tables, n_bits, dim))
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    q_sig = (np.einsum("tbd,qd->tqb", planes, qn) > 0).astype(np.uint32)
    q_keys = (q_sig << np.arange(n_bits, dtype=np.uint32)).sum(axis=2)  # (T, Q)
    bcast = ray.put((qids, qn, planes, q_keys))

    def bucket_candidates(batch: pa.Table) -> pa.Table:
        from distributed_web_crawling_system_ray.stages.cache import get_object

        qids_, qn_, planes_, q_keys_ = get_object(bcast)
        vids, mn = _unit_rows(batch)
        sig = (np.einsum("tbd,nd->tnb", planes_, mn) > 0).astype(np.uint32)
        keys = (sig << np.arange(sig.shape[2], dtype=np.uint32)).sum(axis=2)  # (T, n)
        out_q, out_v, out_s = [], [], []
        for t in range(keys.shape[0]):
            for qi in range(len(qids_)):
                hit = np.flatnonzero(keys[t] == q_keys_[t, qi])
                for h in hit:
                    if vids[h] == qids_[qi]:
                        continue
                    out_q.append(int(qids_[qi]))
                    out_v.append(int(vids[h]))
                    out_s.append(float(qn_[qi] @ mn[h]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas().drop_duplicates(["query_id", "vec_id"])
        df = df.nlargest(min(ANN_K, len(df)), "sim")
        return _from_pandas(df[["query_id", "vec_id"]])

    out = (
        _emb(sf_dir)
        .map_batches(bucket_candidates, batch_format="pyarrow", batch_size=2048)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )
    return _to_table(out)


# The embedding near-dup bound: a corpus of at most this many vectors
# self-joins inline on the driver, a larger one in S blocks, one plain Ray
# task per block pair.  Inline vs task plan, warm s, as for DOC_DRIVER_ROWS:
# 1-CPU session, a tie from 5k to 20k vectors (20k: 1.45 vs 1.41 s); 4-CPU
# session, the task plan wins between 1,250 (0.037 vs 0.012 s) and 5,000
# vectors (0.14 vs 0.16 s; 20k: 0.45 vs 1.5 s).
EMB_BLOCK_ROWS = 8192
_EMB_MM_CHUNK = 1024  # inner matmul row-chunk: bounds the sims temp


IVF_NLIST = 8
IVF_NPROBE = 4
IVF_TRAIN_SAMPLE = 4096
IVF_KMEANS_ITERS = 10


def _ivf_centroids(sf_dir: str, nlist: int = IVF_NLIST) -> np.ndarray:
    """Coarse quantizer: seeded Lloyd k-means on a bounded training sample
    (the classic IVF recipe — the sample is the only data the driver holds;
    ``limit`` stops the read after the first blocks)."""
    sample = _to_table(_emb(sf_dir).limit(IVF_TRAIN_SAMPLE))
    _, mn = _unit_rows(sample)
    rng = np.random.default_rng(17)
    cent = mn[rng.choice(len(mn), size=min(nlist, len(mn)), replace=False)]
    for _ in range(IVF_KMEANS_ITERS):
        assign = np.argmax(mn @ cent.T, axis=1)  # cosine assignment
        for c in range(len(cent)):
            mask = assign == c
            if mask.any():
                v = mn[mask].mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    return cent


def ann_topk_ivf(sf_dir: str, nprobe: int = IVF_NPROBE) -> pa.Table:
    """IVF-style bucketed ANN — the cluster-pruned scale path for similarity
    search (complements the hyperplane-LSH path): vectors are assigned to
    their nearest coarse centroid inside ``map_batches``; only vectors whose
    list is among each query's ``nprobe`` closest lists are scored (exact
    cosine re-rank), then per-query local top-k + tiny merge.

    With ``nprobe == IVF_NLIST`` every list is probed and the result equals
    brute force exactly — pytest pins that identity plus recall at
    ``nprobe = nlist/2`` (rows-only for the driver, like ann_topk_lsh).
    """
    cent = _ivf_centroids(sf_dir)
    qids, qmat = _query_matrix(sf_dir)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    # per query: the nprobe nearest lists
    q_lists = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    bcast = ray.put((qids, qn, cent, q_lists))

    def probe(batch: pa.Table) -> pa.Table:
        from distributed_web_crawling_system_ray.stages.cache import get_object

        qids_, qn_, cent_, q_lists_ = get_object(bcast)
        vids, mn = _unit_rows(batch)
        assign = np.argmax(mn @ cent_.T, axis=1)  # list id per vector
        sims = qn_ @ mn.T  # (Q, n)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(qids_)):
            probe_mask = np.isin(assign, q_lists_[qi])
            probe_mask &= vids != qids_[qi]
            idx = np.flatnonzero(probe_mask)
            if len(idx) == 0:
                continue
            s = sims[qi, idx]
            k = min(ANN_K, len(idx))
            order = np.lexsort((vids[idx], -s))[:k]
            for t in order:
                out_q.append(int(qids_[qi]))
                out_v.append(int(vids[idx[t]]))
                out_s.append(float(s[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        df = group.to_pandas().sort_values(
            ["sim", "vec_id"], ascending=[False, True]
        ).head(ANN_K)
        return _from_pandas(df[["query_id", "vec_id"]])

    out = (
        _emb(sf_dir)
        .map_batches(probe, batch_format="pyarrow", batch_size=2048)
        .groupby("query_id")
        .map_groups(merge, batch_format="pyarrow")
    )
    return _to_table(out)


def _cosine_pairs(ia: np.ndarray, na: np.ndarray, ib, nb, same: bool):
    """(min id, max id) pairs with cosine >= COSINE_TAU between unit rows
    ``na`` (ids ``ia``) and ``nb`` (ids ``ib``), the matmul row-chunked to
    bound the sims temporary.  ``same``: one block against itself — each
    chunk meets only the rows from its own first row on, and keeps the
    strict upper triangle (no self-pairs, each pair once).  Otherwise the
    blocks are disjoint and each cross pair appears once.  The one kernel
    of both ``emb_near_dup_pairs`` paths."""
    a_out, b_out = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for off in range(0, len(ia), _EMB_MM_CHUNK):
        lo = off if same else 0
        x, y = np.nonzero(na[off : off + _EMB_MM_CHUNK] @ nb[lo:].T >= COSINE_TAU)
        va, vb = ia[off + x], ib[lo + y]
        if same:
            keep = (x < y) & (va != vb)
            va, vb = va[keep], vb[keep]
        a_out.append(np.minimum(va, vb))
        b_out.append(np.maximum(va, vb))
    return np.concatenate(a_out), np.concatenate(b_out)


def _block_pair(t: pa.Table, i: tuple, j: tuple) -> pa.Table:
    """``_cosine_pairs`` between the unit rows [i0, i1) and [j0, j1) of the
    ``(vec_id, embedding)`` table ``t``: one block against itself when
    ``i == j``."""
    ia, na = _unit_rows(t.slice(i[0], i[1] - i[0]))
    ib, nb = (ia, na) if i == j else _unit_rows(t.slice(j[0], j[1] - j[0]))
    return _pairs(*_cosine_pairs(ia, na, ib, nb, i == j))


def emb_near_dup_pairs(sf_dir: str) -> pa.Table:
    """Embedding-cosine near-dup: ALL pairs with cosine >= COSINE_TAU.

    A BLOCKED EXACT SELF-JOIN: ``_block_pair`` per pair of blocks (i <= j).
    Up to ``EMB_BLOCK_ROWS`` vectors the driver reads the table and runs
    the one block against itself; above that, the corpus is the S slices of
    one task's read (``_rows``), never on the driver, and one plain Ray task
    per block pair reads its two blocks from that table.  Total work is
    inherently O(N^2) for an *exact* threshold at this tau: the testdata is
    near-isotropic (max pairwise cosine ~0.51), so tau=0.45 sits where
    hyperplane-LSH recall-1 would need more candidate comparisons than
    brute force (per-plane agreement p=0.65: 40+ tables of 4 bits to push
    per-pair miss below 1e-3).
    ``ann_topk_lsh`` is the hyperplane-LSH path for the top-k form.
    """
    path = os.path.join(sf_dir, "embeddings.parquet")
    cols = ["vec_id", "embedding"]
    rows = _rows(path, cols, EMB_BLOCK_ROWS)
    ref, cuts, _ = rows
    t = pq.read_table(path, columns=cols) if ref is None else ref
    blocks = list(zip(cuts, cuts[1:]))
    pairs = [(t, x, y) for k, x in enumerate(blocks) for y in blocks[k:]]
    return _sorted_pairs(pa.concat_tables(_run(_block_pair, pairs, rows)))


def emb_label_counts(sf_dir: str) -> pa.Table:
    from ray.data.aggregate import Count

    out = (
        _emb(sf_dir, columns=("vec_id", "label"))
        .groupby("label")
        .aggregate(Count(alias_name="n"))
    )
    return _to_table(out)


# ------------------------------------------------------- events / windows
# Ray Data has no event-time windowing primitives (guide: streaming-shaped
# workloads); windows are expressed as keyed groupbys over integer window
# ids, with per-batch partial aggregation before the shuffle (the combiner
# pattern).  Sessionization is groupby(user).map_groups over the sorted
# group — the reference has no windowing at all (SURVEY §2.9: processing-
# time only), so these are training-data extensions.

WINDOW_S = 3600
SESSION_GAP_S = 1800


def _events(sf_dir: str, columns) -> "ray.data.Dataset":
    return _read_pq(
        os.path.join(sf_dir, "events.parquet"), columns=list(columns)
    )


def _window_ids(batch: pa.Table) -> np.ndarray:
    ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    return ts // (WINDOW_S * 1_000_000)  # timestamp[us] -> hour bucket


def events_tumbling_counts(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour windows per event_type: partial counts per batch,
    then a small groupby over the partials (pre-aggregation combiner)."""

    def partial(batch: pa.Table) -> pa.Table:
        wid = _window_ids(batch)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_id": pa.array(wid, pa.int64()),
            }
        )
        g = t.group_by(["event_type", "window_id"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "window_id": g.column("window_id"),
                "n": g.column("count_all"),
            }
        )

    from ray.data.aggregate import Sum

    out = (
        _events(sf_dir, ("ts", "event_type"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(Sum("n", alias_name="n"))
    )
    return _to_table(out)


def events_hourly_active_users(sf_dir: str) -> pa.Table:
    """Distinct users per 1-hour window: batch-level pair dedup, hash-
    partitioned global dedup, then a count per window."""

    def pairs(batch: pa.Table) -> pa.Table:
        wid = _window_ids(batch)
        t = pa.table(
            {
                "window_id": pa.array(wid, pa.int64()),
                "user_id": batch.column("user_id"),
            }
        )
        return t.group_by(["window_id", "user_id"]).aggregate([])

    def dedup(part: pa.Table) -> pa.Table:
        return part.group_by(part.column_names).aggregate([])

    from ray.data.aggregate import Count

    ds = _events(sf_dir, ("ts", "user_id")).map_batches(pairs, batch_format="pyarrow")
    ds = hash_partition_apply(ds, "user_id", dedup, P=32)
    out = ds.groupby("window_id").aggregate(Count(alias_name="n_users"))
    return _to_table(out)


def events_user_sessions(sf_dir: str) -> pa.Table:
    """Sessionization: per user, sorted by (ts, event_id), a session break is
    a gap > 30 min.  groupby(user_id).map_groups over the sorted group — the
    ordering assumption (full user history in one group) is what the keyed
    shuffle guarantees."""

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["ts", "event_id"])
        gaps = g["ts"].diff().dt.total_seconds()  # unit-agnostic (ns vs us)
        n = int(1 + (gaps > SESSION_GAP_S).sum())
        return pd.DataFrame({"user_id": [g["user_id"].iloc[0]], "n_sessions": [n]})

    out = (
        _events(sf_dir, ("ts", "user_id", "event_id"))
        .groupby("user_id")
        .map_groups(sessions, batch_format="pandas")
    )
    return _to_table(out)


def events_type_value_stats(sf_dir: str) -> pa.Table:
    """Grouped aggregate with integer-safe value sums (cents)."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_type": batch.column("event_type").to_pylist(),
                "cents": np.round(
                    batch.column("value").to_numpy(zero_copy_only=False) * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby("event_type", as_index=False).agg(
            n=("cents", "size"), sum_cents=("cents", "sum")
        )
        return _from_pandas(g)

    from ray.data.aggregate import Sum

    out = (
        _events(sf_dir, ("event_type", "value"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_cents", alias_name="sum_cents"))
    )
    return _to_table(out)


# ------------------------------------------------- multimodal: image table
# Operators over the image+caption table (the fixture's images.parquet at
# the sf-mapped scale).  phash near-dup is the reference's declared future
# work (system_architecture_v3.md:319) made first-class.

PHASH_HAMMING_MAX = 6
# 8 x 8-bit bands, blocked on band PAIRS: pigeonhole-exact only for
# Hamming <= bands - 2 (with k <= 6 flips across 8 bands, >= 2 bands stay
# clean, so every qualifying pair shares a two-band key; at k = 7 the
# flips can touch 7 bands leaving no clean PAIR)
_PHASH_BANDS = 8
assert PHASH_HAMMING_MAX <= _PHASH_BANDS - 2, "band-pair blocking bound"


def _images_path(sf_dir: str) -> str:
    # an sf_dir carrying its own images table (e.g. the synthesized sf1
    # scale-evidence fixture) wins over the crawl-fixture mapping
    direct = os.path.join(sf_dir, "images.parquet")
    if os.path.exists(direct):
        return direct
    from distributed_web_crawling_system_ray.api import scale_for
    from distributed_web_crawling_system_ray.sources.synthweb import build_fixture

    return os.path.join(build_fixture(scale_for(sf_dir)), "images.parquet")


def _images_ds(sf_dir: str, columns) -> "ray.data.Dataset":
    return _read_pq(_images_path(sf_dir), columns=list(columns))


# the C(8,2)=28 two-band blocks of the phash join, as uint64 masks
_PHASH_MASKS = np.array(
    [
        (0xFF << (8 * i)) | (0xFF << (8 * j))
        for i in range(_PHASH_BANDS)
        for j in range(i + 1, _PHASH_BANDS)
    ],
    dtype=np.uint64,
)


def image_phash_near_dup(sf_dir: str) -> pa.Table:
    """Image near-dup pairs: 64-bit phash, Hamming <= 6, from the
    banded-Hamming join on band PAIRS.

    Blocking is pigeonhole-exact on band PAIRS: with 8 x 8-bit bands and
    <= 6 differing bits, at least TWO bands are untouched, so every
    qualifying pair shares one of the C(8,2)=28 16-bit two-band masks.
    Single-band 8-bit keys (rounds 2-4) collide at rate n/256 per bucket,
    turning the exact verify quadratic at 10x bench scale (228s of CPU at
    250k images, measured); 16-bit pair keys cut bucket occupancy 256x for
    a 3.5x fan-out — the same pigeonhole upgrade the SimHash text path
    uses, one level deeper.  The SQL oracle brute-forces xor/bit_count."""

    def sigs(batch: pa.Table) -> pa.Table:
        ph = batch.column("phash").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "sig": pa.array(ph.astype(np.int64).view(np.uint64)),
            }
        )

    return _banded_hamming_join(
        _images_path(sf_dir),
        IMAGE_DRIVER_ROWS,
        ("image_id", "phash"),
        sigs,
        "image_id",
        pa.string(),
        _PHASH_MASKS,
        PHASH_HAMMING_MAX,
    )


def image_stats_by_fmt(sf_dir: str) -> pa.Table:
    """Grouped count/size by format — SURVEY G4 (storage-prefix stats,
    monitor.py:165-204) over the image table."""

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "fmt": batch.column("fmt").to_pylist(),
                "pixels": (
                    batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
                    * batch.column("h").to_numpy(zero_copy_only=False)
                ),
                # binary_length reads list offsets only — no blob copies
                "nbytes": pc.binary_length(batch.column("bytes")).to_numpy(
                    zero_copy_only=False
                ),
            }
        )
        g = df.groupby("fmt", as_index=False).agg(
            n=("pixels", "size"),
            sum_pixels=("pixels", "sum"),
            sum_bytes=("nbytes", "sum"),
        )
        return _from_pandas(g)

    from ray.data.aggregate import Sum

    out = (
        _images_ds(sf_dir, ("fmt", "w", "h", "bytes"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("fmt")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_pixels", alias_name="sum_pixels"),
            Sum("sum_bytes", alias_name="sum_bytes"),
        )
    )
    return _to_table(out)


def image_features_table(sf_dir: str) -> pa.Table:
    """Decode-side features over the image table (REAL multimodal stage);
    rows-only checked by the driver — dims/phash equality vs the stored
    columns is pytest-asserted (the per-row payload invariant)."""
    from distributed_web_crawling_system_ray.stages.multimodal import image_features

    out = _images_ds(sf_dir, ("image_id", "bytes")).map_batches(
        image_features, batch_format="pyarrow", batch_size=256
    )
    return _to_table(out)


def image_thumbnails(sf_dir: str) -> pa.Table:
    """PNG thumbnails via the resize stage (REAL multimodal stage); returns
    (image_id, tw, th) metadata (binary thumbs stay out of the compare)."""
    from distributed_web_crawling_system_ray.stages.multimodal import resize_images

    out = _images_ds(sf_dir, ("image_id", "bytes")).map_batches(
        resize_images, batch_format="pyarrow", batch_size=256
    )
    tbl = _to_table(out)
    return tbl.select(["image_id", "tw", "th"]) if tbl is not None else None


# ------------------------------------------------------ relational joins
# The reference has no relational joins (SURVEY §2.4 — its 'joins' are
# lookups); these demonstrate the two Dataset-level join patterns the
# training-data pipelines reuse: broadcast-small-side and explicit
# partitioned hash join.  Money is floored to integer cents on BOTH sides
# (floor over identically-ordered float64 products is engine-stable;
# round() is not — DuckDB rounds half away from zero, numpy half to even).


def _tpch(sf_dir: str, name: str, columns) -> "ray.data.Dataset":
    return _read_pq(
        os.path.join(sf_dir, f"{name}.parquet"), columns=list(columns)
    )


def orders_by_region(sf_dir: str) -> pa.Table:
    """Broadcast join: orders -> customer -> nation -> region, grouped by
    region name.  The dimension chain (customer x nation x region, ~1.5k
    rows) is ray.put once; the fact table streams through map_batches."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    n2r = dict(
        zip(nat.column("n_nationkey").to_pylist(), nat.column("n_regionkey").to_pylist())
    )
    r2n = dict(
        zip(reg.column("r_regionkey").to_pylist(), reg.column("r_name").to_pylist())
    )
    cust_region = {
        c: r2n[n2r[n]]
        for c, n in zip(
            cust.column("c_custkey").to_pylist(), cust.column("c_nationkey").to_pylist()
        )
    }
    bcast = ray.put(cust_region)

    def partial(batch: pa.Table) -> pa.Table:
        from distributed_web_crawling_system_ray.stages.cache import get_object

        lookup = get_object(bcast)
        keys = batch.column("o_custkey").to_pylist()
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        cents = np.floor(price * 100).astype(np.int64)
        df = pd.DataFrame(
            {"r_name": [lookup[k] for k in keys], "cents": cents}
        )
        g = df.groupby("r_name", as_index=False).agg(
            n_orders=("cents", "size"), sum_cents=("cents", "sum")
        )
        return _from_pandas(g)

    from ray.data.aggregate import Sum

    out = (
        _tpch(sf_dir, "orders", ("o_custkey", "o_totalprice"))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Sum("n_orders", alias_name="n_orders"), Sum("sum_cents", alias_name="sum_cents"))
    )
    return _to_table(out)


REL_JOIN_BUCKETS = 32


def revenue_by_brand(sf_dir: str) -> pa.Table:
    """Explicit partitioned hash join: lineitem x part on partkey, bucketed
    by ``partkey % B`` on both sides, pairwise pandas merge inside each
    bucket group, then a grouped revenue aggregate.  The portable
    both-sides-large join pattern (guide: Joins and lookups)."""

    # both sides are projected onto one unified schema (union requires it):
    # (bucket, side, l_partkey, l_extendedprice, l_discount, p_partkey, p_brand)
    def to_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((key % REL_JOIN_BUCKETS).astype(np.int32), pa.int32()),
                "side": pa.array(["l"] * n, pa.string()),
                "l_partkey": batch.column("l_partkey"),
                "l_extendedprice": batch.column("l_extendedprice"),
                "l_discount": batch.column("l_discount"),
                "p_partkey": pa.nulls(n, pa.int64()),
                "p_brand": pa.nulls(n, pa.string()),
            }
        )

    def to_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        key = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array((key % REL_JOIN_BUCKETS).astype(np.int32), pa.int32()),
                "side": pa.array(["p"] * n, pa.string()),
                "l_partkey": pa.nulls(n, pa.int64()),
                "l_extendedprice": pa.nulls(n, pa.float64()),
                "l_discount": pa.nulls(n, pa.float64()),
                "p_partkey": batch.column("p_partkey"),
                "p_brand": batch.column("p_brand"),
            }
        )

    li = _tpch(sf_dir, "lineitem", ("l_partkey", "l_extendedprice", "l_discount")).map_batches(
        to_left, batch_format="pyarrow"
    )
    pt = _tpch(sf_dir, "part", ("p_partkey", "p_brand")).map_batches(
        to_right, batch_format="pyarrow"
    )

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group[group["side"] == "l"][
            ["l_partkey", "l_extendedprice", "l_discount"]
        ]
        right = group[group["side"] == "p"][["p_partkey", "p_brand"]]
        if left.empty or right.empty:
            return pd.DataFrame({"p_brand": [], "n_items": [], "revenue_cents": []})
        m = left.merge(right, left_on="l_partkey", right_on="p_partkey")
        cents = np.floor(
            m["l_extendedprice"].to_numpy() * (1 - m["l_discount"].to_numpy()) * 100
        ).astype(np.int64)
        m = m.assign(cents=cents)
        g = m.groupby("p_brand", as_index=False).agg(
            n_items=("cents", "size"), revenue_cents=("cents", "sum")
        )
        return g

    from ray.data.aggregate import Sum

    out = (
        li.union(pt)
        .groupby("bucket")
        .map_groups(join_bucket, batch_format="pandas")
        .groupby("p_brand")
        .aggregate(Sum("n_items", alias_name="n_items"), Sum("revenue_cents", alias_name="revenue_cents"))
    )
    return _to_table(out)


def _cc_labels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the pair graph ``a[k] -- b[k]``:
    ``(ids, labels)`` over the pair-member ids, each labeled with the min id
    of its component.  Type-generic: ids may be ints (docs, embeddings) or
    strings (image content hashes) — min is numeric or lexicographic
    accordingly, matching the SQL oracles.

    Ids are ranked with ``np.unique``, so the min rank is the min id.  Each
    round hooks the larger root of every edge that spans two roots under
    the smaller one (``np.minimum.at``), then shortcuts every node to its
    root by pointer jumping; it stops when no edge spans two roots.  A
    parent always has a smaller rank than its child, so the forest never
    cycles and a component's root is its min rank.  Every round is
    vectorized over all edges and nodes."""
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    u, v = inv[: len(a)], inv[len(a) :]
    parent = np.arange(len(ids))
    while True:
        ru, rv = parent[u], parent[v]
        span = ru != rv
        if not span.any():
            return ids, ids[parent]
        ru, rv = ru[span], rv[span]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


def _assign_cluster_labels(path: str, id_col: str, pairs: pa.Table) -> pa.Table:
    """(id, cluster_id) for every id in the parquet file's ``id_col``:
    pair members get their ``_cc_labels`` label (the min id of their
    component), every other id is a singleton labeled by itself.
    ``cluster_id`` keeps the id column's type (int64 docs/vectors, string
    image content hashes).  One path at every size: the output holds every
    id on the driver anyway, so the id column is read there with
    ``pq.read_table`` and labeled by ``pc.index_in``/``coalesce``, with no
    Ray Data execution.  Shared by all three *_clusters operators."""
    ids, labels = _cc_labels(
        pairs.column("a").to_numpy(zero_copy_only=False),
        pairs.column("b").to_numpy(zero_copy_only=False),
    )
    id_type = pairs.schema.field("a").type
    col = pq.read_table(path, columns=[id_col]).column(id_col)
    pos = pc.index_in(col, value_set=pa.array(ids, id_type))
    return pa.table(
        {id_col: col, "cluster_id": pc.coalesce(pa.array(labels, id_type).take(pos), col)}
    )


def doc_dedup_clusters(sf_dir: str) -> pa.Table:
    """Near-dup connected components: LSH-verified pairs -> ``_cc_labels``
    -> (doc_id, cluster_id=min id in component).

    Labels are computed ONLY for pair-member nodes (edge-set-sized — small by
    LSH construction) by the vectorized hook-and-shortcut kernel; every
    other doc is a singleton (label = own id), assigned over the doc_id
    column read on the driver (``_assign_cluster_labels``).  The pairs take
    ``doc_near_dup_pairs``'s path: on the driver up to
    ``DOC_DRIVER_ROWS`` docs, plain Ray tasks above.  SQL oracle:
    recursive CTE transitive closure.
    """
    return _assign_cluster_labels(
        _docs_path(sf_dir), "doc_id", doc_near_dup_pairs(sf_dir)
    )


def emb_dedup_clusters(sf_dir: str) -> pa.Table:
    """Embedding near-dup connected components: cosine-threshold pairs ->
    ``_cc_labels`` -> (vec_id, cluster_id = min member id) — the
    embedding-side analog of ``doc_dedup_clusters`` (keep one vector per
    semantic near-dup cluster), with the same label assignment."""
    return _assign_cluster_labels(
        os.path.join(sf_dir, "embeddings.parquet"),
        "vec_id",
        emb_near_dup_pairs(sf_dir),
    )


def image_phash_clusters(sf_dir: str) -> pa.Table:
    """Image near-dup connected components: phash band-pair pairs ->
    ``_cc_labels`` -> (image_id, cluster_id = lexicographic-min member id)
    — the image-side twin of ``doc_dedup_clusters``, the "keep one per
    near-dup cluster" primitive for image training corpora.  Node ids are
    content-hash STRINGS: min is lexicographic, matching the SQL oracle's
    min over VARCHAR."""
    return _assign_cluster_labels(
        _images_path(sf_dir), "image_id", image_phash_near_dup(sf_dir)
    )


SLIDE_STEP_S = 900  # 15-min slide over 1-hour windows


def events_sliding_active_users(sf_dir: str) -> pa.Table:
    """Sliding 1-hour windows every 15 min: each event contributes to the 4
    windows covering it (flat-map expansion), then distinct users per
    window — the standard replicate-into-windows expansion for sliding
    aggregates over a batch log."""
    k = WINDOW_S // SLIDE_STEP_S  # windows covering one event

    def expand(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        users = np.asarray(batch.column("user_id").to_pylist(), dtype=np.int64)
        slot = ts // (SLIDE_STEP_S * 1_000_000)  # 15-min slot index
        # window w (indexed by its start slot) covers slots [w, w+k)
        starts = np.concatenate([slot - i for i in range(k)])
        u = np.tile(users, k)
        t = pa.table(
            {
                "window_slot": pa.array(starts, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
            }
        )
        # Arrow-native distinct: group_by with no aggregates keeps unique keys
        return t.group_by(["window_slot", "user_id"]).aggregate([])

    def dedup(part: pa.Table) -> pa.Table:
        return part.group_by(part.column_names).aggregate([])

    from ray.data.aggregate import Count

    ds = _events(sf_dir, ("ts", "user_id")).map_batches(expand, batch_format="pyarrow")
    ds = hash_partition_apply(ds, "user_id", dedup, P=32)
    out = ds.groupby("window_slot").aggregate(Count(alias_name="n_users"))
    return _to_table(out)
