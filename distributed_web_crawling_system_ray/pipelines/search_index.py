"""Persistent, incrementally-updatable inverted index over parquet.

Rebuilds the reference's on-disk Whoosh index contract
(``indexer/indexer_node.py:83-106``: ``update_document`` upserts-by-key as
crawler submissions arrive; the index is built once and queried many times,
and new crawl rounds update it incrementally without a full rebuild) as a
**generation-segmented, hash-partitioned parquet postings store** (the
Lucene/Whoosh segment idea):

    index_dir/
      meta.json                      (commit record: format, generations, live count)
      gen=G/postings/part_P.parquet  (term, doc_id, tf, tf_title, dl, pos, pos_title,
                                      gen) sorted by (term, doc_id); P = hash(term) % n_parts
      gen=G/docs/dpart_P.parquet     (doc_id, n_tokens, dl, stored fields, gen)
                                      sorted by doc_id; P = doc_id % n_dparts
      gen=G/vocab.parquet            (the generation's sorted distinct terms)
      gen=G/doc_ids.parquet          (this submission's doc ids)
      gen=G/superseded.parquet       (ids re-indexed by G — their OLDER
                                      postings/doc rows are dead)

Upsert semantics: each ``update()`` call writes one new generation; a doc_id
present in an earlier generation is *superseded* — query-time readers keep a
row only when ``row.gen >= last_gen(doc_id)``.  The supersede map is bounded
by the number of RE-indexed docs (re-crawled pages), not the corpus;
``compact()`` folds all generations into one and empties it.

Scale shape:
- writes: one kernel, ``_postings``, tokenizes a batch once and returns its
  postings and doc rows.  A submission of at most ``DRIVER_WRITE_DOCS``
  docs runs it on the driver over a pyarrow read and writes the partitions
  with no Ray Data execution; a larger one runs it in ``map_batches`` and
  shuffles by partition (``groupby(part)``).  ``compact()`` merges
  partition P of every generation into partition P, on the driver or in
  Ray tasks by the same bound.  Every file has a deterministic name and is
  replaced atomically, so a retried task rewrites the identical file.
- queries touch ONLY the partitions that can contain the query terms —
  Q hash buckets out of n_parts, across generations — never the corpus and
  never the text column (snippets are stored at index time and fetched for
  the k winners only).  A handle keeps one reader per committed file it
  has touched (at most ``DRIVER_ROW_LIMIT`` rows in all), so a warm
  query reads no parquet file: each term is a ``searchsorted`` slice of
  each generation's file of its partition.  Every query, at every size,
  folds those slices on the driver one term at a time
  (``_term_rows``): a ranked query adds each term into one int64
  score per live doc of the doc directory (each live doc_id's latest docs
  file and row), so it holds O(live docs) plus one term's rows; the k
  winners' stored fields are read by row through the same directory.  No
  query runs a Ray Data execution.
- reader lifecycle: every table ``update()``/``compact()`` writes on the
  driver (postings and docs parts, vocab, supersede list) is held under its
  path as written, while it fits, and the first query through it decodes
  it into the reader a parquet read would build, positions included.  So the
  handle that wrote an index (``index_for`` serves it) answers from memory;
  a part written by a Ray task, and any file of a freshly opened handle,
  is read from parquet on first use.  ``compact()`` drops the readers of
  the generations it folds.  The doc directory is built on first use after
  each commit and names files, not readers, so the row bound holds.
- overlap detection on update: the submission's ids ``∩`` the doc
  directory's keys (built from the committed generations; a first build
  has none and builds no directory).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from distributed_web_crawling_system_ray.pipelines import exchange, search
from distributed_web_crawling_system_ray.pipelines.search import (
    _TOKEN,
    _stem,
    bm25f_contrib_vec,
    derive_crawl_date,
    derive_url,
    highlight,
    parse_query,
    BOOST_TITLE,
    IDF_SCALE,
    SNIPPET_CHARS,
    TITLE_CHARS,
    Wildcard,
)


# bump when the on-disk layout or scoring-relevant build logic changes: a
# stale-format cache must rebuild, never serve wrong hash-checked results,
# and ``SearchIndex.open`` refuses another format (3: positional postings;
# 4: term-sorted postings parts, doc_id-sorted docs parts, one vocab file
# per generation)
INDEX_FORMAT_VERSION = 4


def _tokenize(texts: list, stem: bool) -> tuple:
    """``search.tokenize(text, stem)`` of every text of several string
    arrays at once: the sorted distinct terms, and per array each token's
    text row and term code, in text order.  Whitespace holds no token
    character, so each whitespace-separated word tokenizes on its own:
    ``_TOKEN.findall(word.lower())`` and ``_stem`` run once per DISTINCT
    word, with Python's own ``lower`` (``İ``, the Kelvin sign and combining
    marks tokenize exactly as in ``search.tokenize``)."""
    splits = [pc.utf8_split_whitespace(t) for t in texts]
    words = [s.flatten() for s in splits]
    enc = pc.dictionary_encode(pa.concat_arrays(words))
    toks = [_TOKEN.findall(w.lower()) for w in enc.dictionary.to_pylist()]
    flat = [_stem(x) if stem else x for ts in toks for x in ts]
    terms, code = np.unique(np.asarray(flat, dtype=object), return_inverse=True)
    n_tok = np.fromiter(map(len, toks), np.int64, len(toks))
    word_codes = pa.ListArray.from_arrays(
        pa.array(np.r_[0, np.cumsum(n_tok)], pa.int32()), pa.array(code, pa.int64())
    )
    idx, out = enc.indices.to_numpy(zero_copy_only=False), []
    for s, w in zip(splits, words):
        at, idx = idx[: len(w)], idx[len(w) :]
        rows = np.repeat(pc.list_parent_indices(s).to_numpy(), n_tok[at])
        out.append((rows, word_codes.take(pa.array(at)).flatten().to_numpy()))
    return terms, out


def _postings(
    batch: pa.Table, stem: bool, n_parts: int, n_dparts: int
) -> tuple[pa.Table, pa.Table]:
    """The one index-write kernel: docs (unique ``doc_id``, ``text``[,
    ``source``]) -> ``(postings, docs)``.

    A postings row per (term, doc): ``tf`` (full-text term frequency),
    ``tf_title``, ``dl`` (BM25F weighted doc length, denormalized so scoring
    needs no second read), ``pos``/``pos_title`` (token positions per field,
    for phrase queries) and ``part``.  A doc row per doc: ``n_tokens``,
    ``dl``, the stored fields (the Whoosh stored=True set,
    indexer/indexer_node.py:63-70) and ``dpart``.

    In doc_id order the tokens come in (doc, position) order, so one stable
    sort by term code orders them by (term, doc_id, position): each field's
    ``tf`` is a run length and its ``pos`` a list array over the sorted
    positions.  ``_term_part`` runs once per distinct term."""
    batch = batch.take(pc.sort_indices(batch.column("doc_id")))
    ids = batch.column("doc_id").to_numpy()
    text = batch.column("text").combine_chunks().cast(pa.string())
    title = pc.utf8_slice_codeunits(text, 0, TITLE_CHARS)
    n = max(len(ids), 1)
    terms, fields = _tokenize([text, title], stem)
    small = np.uint16 if len(terms) <= 1 << 16 else np.int64  # radix sort
    counts, runs = [], []
    for row, code in fields:
        counts.append(np.bincount(row, minlength=len(ids)))
        pos = np.arange(len(row)) - (np.cumsum(counts[-1]) - counts[-1])[row]
        order = np.argsort(code.astype(small), kind="stable")
        key = (code * n + row)[order]
        first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        runs.append((key[first], np.diff(np.r_[first, len(key)]), pos[order]))
    keys = np.union1d(runs[0][0], runs[1][0])  # one postings row per (term, doc)
    code, doc = keys // n, keys % n
    dl = BOOST_TITLE * counts[1] + counts[0]
    part = np.fromiter((_term_part(t, n_parts) for t in terms), np.int32, len(terms))

    def field(run_key: np.ndarray, run_len: np.ndarray, pos: np.ndarray) -> tuple:
        tf = np.zeros(len(keys), np.int64)
        tf[np.searchsorted(keys, run_key)] = run_len
        offsets = pa.array(np.r_[0, np.cumsum(tf)], pa.int32())
        return tf, pa.ListArray.from_arrays(offsets, pa.array(pos, pa.int32()))

    (tf, pos), (tf_title, pos_title) = (field(*r) for r in runs)
    postings = pa.table(
        {
            "term": pa.array(terms, pa.string()).take(pa.array(code)),
            "doc_id": pa.array(ids[doc], pa.int64()),
            "tf": tf,
            "tf_title": tf_title,
            "dl": pa.array(dl[doc], pa.int64()),
            "pos": pos,
            "pos_title": pos_title,
            "part": pa.array(part[code], pa.int32()),
        }
    )
    src = ["unknown"] * len(ids)
    if "source" in batch.column_names:
        src = batch.column("source").combine_chunks().cast(pa.string())
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(counts[0], pa.int64()),
            "dl": pa.array(dl, pa.int64()),
            "snippet": pc.utf8_slice_codeunits(text, 0, SNIPPET_CHARS),
            "title": title,
            "domain": pa.array(src, pa.string()),
            "crawl_date": pa.array([derive_crawl_date(d) for d in ids.tolist()]),
            "dpart": pa.array(ids % n_dparts, pa.int32()),
        }
    )
    return postings, docs


def _term_part(term: str, n_parts: int) -> int:
    """Stable term -> partition hash (md5 low bits; Python hash() is salted
    per process and would scatter a term across partitions between runs)."""
    import hashlib

    return int.from_bytes(
        hashlib.md5(term.encode("utf-8")).digest()[:4], "big"
    ) % n_parts


def _atomic_write_table(tbl: pa.Table, path: str, keep=None) -> None:
    """Write ``tbl`` to ``path`` by atomic replace, then hand both to
    ``keep(path, tbl)`` when given (a driver-side handle keeps the table as
    that file's reader)."""
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)
    if keep is not None:
        keep(path, tbl)


# A submission of at most this many docs is indexed on the driver by
# update(), and an index of at most this many docs (summed over its
# generations) is compacted there: pyarrow reads, ``_postings`` and the part
# writes with no Ray Data execution.  Above it the Dataset plan calls the
# same kernel inside ``map_batches`` (update) or merges the partitions in
# Ray tasks (compact).  The bound is the largest input measured, in a 1-CPU
# session on a 1-vCPU host: sf1's 50k docs (stemmed, 1.22M postings rows)
# build in 1.5-1.8 s on the driver against 4.8-7.9 s for the Dataset plan,
# and compact (51k docs, 2 generations) in 1.3 s against 1.9-2.1 s.  The
# crossover above it, and on more than one real core, is unverified.
DRIVER_WRITE_DOCS = 50_000

# the order each partition file is written in: a postings file's term runs
# are contiguous, and a docs file is sorted by doc_id
_SORT_KEYS = {
    "postings": [("term", "ascending"), ("doc_id", "ascending")],
    "docs": [("doc_id", "ascending")],
}


def _part_path(gen_dir: str, kind: str, p: int) -> str:
    prefix = "part" if kind == "postings" else "dpart"
    return os.path.join(gen_dir, kind, f"{prefix}_{p:05d}.parquet")


def _write_part(
    t: pa.Table, gen_dir: str, kind: str, p: int, gen: int, keep=None
) -> pa.Table:
    """Write partition ``p`` of ``kind`` ("postings" or "docs") of
    generation ``gen`` in ``_SORT_KEYS`` order, by atomic replace (a retried
    task rewrites the identical file); an empty partition writes no file.
    Returns the distinct terms (postings) or ``(doc_id, dl)`` (docs)."""
    t = t.sort_by(_SORT_KEYS[kind]).append_column(
        "gen", pa.array(np.full(t.num_rows, gen, np.int32))
    )
    if t.num_rows:
        _atomic_write_table(t, _part_path(gen_dir, kind, p), keep)
    if kind == "postings":
        return pa.table({"term": pc.unique(t.column("term"))})
    return t.select(["doc_id", "dl"])


def _write_vocab(terms: list[pa.Table], gen_dir: str, keep) -> None:
    """The generation's one vocabulary file: its sorted distinct terms, the
    wildcard-expansion domain (vocab-sized, never index-sized)."""
    col = pa.chunked_array([t.column("term") for t in terms], pa.string())
    _atomic_write_table(
        pa.table({"term": pc.unique(col)}).sort_by("term"),
        os.path.join(gen_dir, "vocab.parquet"),
        keep,
    )


def _groups(t: pa.Table, key: str):
    """``(value, rows)`` per distinct ``key`` of a driver-held table, the
    rows in table order and without the key column."""
    k = t.column(key).to_numpy()
    order = np.argsort(k, kind="stable")
    t, k = t.drop_columns([key]).take(pa.array(order)), k[order]
    starts = np.flatnonzero(np.diff(k, prepend=k[:1] - 1))
    for lo, hi in zip(starts, np.r_[starts[1:], len(k)]):
        yield int(k[lo]), t.slice(lo, hi - lo)


def _collapse_dups(t: pa.Table) -> pa.Table:
    """One row per doc_id of a submission.  Whoosh ``update_document`` is
    last-write-wins per call, but a distributed batch has no defined row
    order, so the row with the lexicographically largest md5(text) wins:
    deterministic and content-based."""
    import hashlib

    ids = t.column("doc_id").to_numpy()
    if len(np.unique(ids)) == len(ids):
        return t
    th = np.asarray(
        [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t.column("text").to_pylist()]
    )
    # sort (doc_id asc, text-hash asc); the LAST row of each id run holds
    # the max hash
    order = np.lexsort((th, ids))
    _, first = np.unique(ids[order], return_index=True)
    keep = order[np.r_[first[1:], len(ids)] - 1]
    return t.take(pa.array(np.sort(keep)))


def _dl_sum(docs: list[pa.Table]) -> int:
    return sum(int(pc.sum(t.column("dl")).as_py() or 0) for t in docs)


def _submission(docs):
    """An ``update()`` submission as a driver-held Arrow table when it has
    at most ``DRIVER_WRITE_DOCS`` rows, else as a materialized Dataset.  A
    parquet path (file or directory) is counted by its footers, a table by
    its rows, a Dataset by its materialized blocks' metadata."""

    def cols(names) -> list[str]:
        return [c for c in ("doc_id", "text", "source") if c in names]

    if isinstance(docs, str):
        import pyarrow.dataset as pads

        src = pads.dataset(docs, format="parquet")
        if src.count_rows() <= DRIVER_WRITE_DOCS:
            return src.to_table(columns=cols(src.schema.names))
        docs = ray.data.read_parquet(docs, columns=cols(src.schema.names))
    elif isinstance(docs, pa.Table):
        docs = docs.select(cols(docs.column_names))
        if docs.num_rows <= DRIVER_WRITE_DOCS:
            return docs
        docs = ray.data.from_arrow(docs)
    docs = docs.materialize()
    if docs.count() > DRIVER_WRITE_DOCS:
        return docs
    parts = [t for t in ray.get(docs.to_arrow_refs()) if t.num_rows] or [
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    ]
    return pa.concat_tables(parts).select(cols(parts[0].column_names))


def _phrase_counts(lists: list) -> np.ndarray:
    """Phrase occurrences per row: how many start positions ``p`` of row
    ``i`` have ``p + j`` in row ``i`` of ``lists[j]`` for every constituent
    ``j`` -- the positional-postings intersection of Whoosh/Lucene
    PhraseQuery, within one field.  ``lists`` are equal-length Arrow list
    arrays, one per constituent, row ``i`` of each holding one doc.  Each
    position becomes the key ``row << 32 | pos``, so every constituent is
    one flat ``np.isin`` over all rows at once."""
    starts = None
    for j, lst in enumerate(lists):
        keys = (
            pc.list_parent_indices(lst).to_numpy().astype(np.int64) << 32
        ) | lst.flatten().to_numpy().astype(np.int64)
        starts = (
            keys
            if starts is None
            else starts[np.isin(starts + j, keys, assume_unique=True)]
        )
    return np.bincount(starts >> 32, minlength=len(lists[0]))


def _live_mask(ids, gen, last_gen: tuple) -> np.ndarray:
    """Which rows are live: ``gen >= last_gen[doc_id]``, where a doc_id no
    later generation re-indexed needs gen >= 0.  ``ids``/``gen`` are numpy
    or Arrow columns; ``last_gen`` is the sorted ``(doc_ids, gens)`` pair
    of ``SearchIndex._last_gen_map``, probed with one ``searchsorted``."""
    keys, vals = last_gen
    ids = np.asarray(ids)
    gen = np.asarray(gen)
    if not len(keys):
        return np.ones(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
    return gen >= np.where(keys[pos] == ids, vals[pos], 0)


def _doc_ids(parts: list[pa.Table]) -> np.ndarray:
    """The ``doc_id`` columns of driver-held Arrow parts as one array."""
    return np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [
            t.column("doc_id").to_numpy(zero_copy_only=False)
            for t in parts
            if t.num_rows
        ]
    )


# The rows a handle's readers hold together (a reader that does not fit is
# not held).  It caps reader memory only; no query changes plan on it.
DRIVER_ROW_LIMIT = 2_000_000


def _check_k(k: int) -> None:
    """A query's ``k`` counts rows to return; a negative one would slice
    off the last ``|k|`` answers."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


class _Reader:
    """One committed file, decoded once: ``cls(path)`` reads its
    ``COLUMNS`` from parquet, and ``cls.from_table(path, t)`` decodes the
    table the handle has just written to ``path`` into the same arrays with
    no read.  A committed file never changes, so a reader never goes
    stale."""

    COLUMNS: list[str] | None = None

    def __init__(self, path: str):
        self.path = path
        self._decode(pq.read_table(path, columns=self.COLUMNS))

    @classmethod
    def from_table(cls, path: str, t: pa.Table) -> "_Reader":
        r = cls.__new__(cls)
        r.path = path
        r._decode(t)
        return r


def _positions(t: pa.Table) -> dict:
    """The ``pos``/``pos_title`` list columns of a postings table, as one
    type whether they were read from parquet or just built."""
    return {
        c: t.column(c).combine_chunks().cast(pa.list_(pa.int32()))
        for c in ("pos", "pos_title")
    }


class _PostingsReader(_Reader):
    """A postings file: the non-positional columns as numpy arrays in file
    order, which is term order, plus the sorted distinct ``terms`` and their
    run offsets ``starts``.  A query term is then a ``searchsorted`` slice.
    Read from parquet, the ``pos``/``pos_title`` columns load on the first
    phrase query that needs them; a written table holds them already."""

    COLUMNS = ["term", "doc_id", "tf", "tf_title", "dl", "gen"]

    def _decode(self, t: pa.Table) -> None:
        # the file is sorted by term: its dictionary is in sorted order and
        # each term's rows are one run
        enc = pc.dictionary_encode(t.column("term").combine_chunks())
        self.terms = np.asarray(enc.dictionary.to_pylist(), dtype=object)
        runs = np.bincount(enc.indices.to_numpy(), minlength=len(self.terms))
        self.starts = np.r_[0, np.cumsum(runs)]
        self.cols = {c: t.column(c).to_numpy() for c in self.COLUMNS[1:]}
        self.rows = t.num_rows
        self._pos = _positions(t) if "pos" in t.column_names else None

    def run(self, term: str) -> tuple[int, int]:
        """``[start, end)`` of ``term``'s rows; empty when it is absent."""
        i = int(np.searchsorted(self.terms, term))
        if i < len(self.terms) and self.terms[i] == term:
            return int(self.starts[i]), int(self.starts[i + 1])
        return 0, 0

    def positions(self) -> dict:
        if self._pos is None:
            self._pos = _positions(pq.read_table(self.path, columns=["pos", "pos_title"]))
        return self._pos


class _DocsReader(_Reader):
    """A docs file (sorted by doc_id): the stored result fields plus
    ``gen`` and ``dl``."""

    STORED = ["title", "domain", "crawl_date", "snippet"]
    COLUMNS = ["doc_id", "gen", "dl"] + STORED

    def _decode(self, t: pa.Table) -> None:
        self.table = t.select(self.COLUMNS)
        self.ids, self.gen, self.dl = (
            self.table.column(c).to_numpy() for c in ("doc_id", "gen", "dl")
        )
        self.rows = t.num_rows

    @functools.cached_property
    def fields(self) -> dict[str, list]:
        """The ``STORED`` columns as Python lists, decoded on first use: a
        query's winners are then read by row number."""
        return {c: self.table.column(c).to_pylist() for c in self.STORED}


class _ColumnReader(_Reader):
    """A generation's one-column file as a numpy array ``values``: the
    sorted terms of ``vocab.parquet`` or the ids of ``superseded.parquet``."""

    def _decode(self, t: pa.Table) -> None:
        self.values = t.column(0).to_numpy()
        self.rows = len(self.values)


class _Written:
    """A table the handle has just written, held among its readers under
    the file's path until a query decodes it with ``from_table``."""

    def __init__(self, table: pa.Table):
        self.table, self.rows = table, table.num_rows


class SearchIndex:
    """Handle over one on-disk index.  ``create``/``open`` + ``update`` /
    ``compact`` + query surface (``topk`` / ``topk_bm25f`` / ``search`` /
    ``and_terms`` / ``term_df``)."""

    def __init__(self, index_dir: str, meta: dict):
        self.index_dir = index_dir
        self.meta = meta
        self._committed()
        # path -> reader (or ``_Written`` table) of a file, least recently
        # used first
        self._readers: OrderedDict = OrderedDict()
        self._held_rows = 0

    def _committed(self) -> None:
        """Drop what is derived from the committed generation list: the
        supersede map, vocabulary, file listings and doc directory."""
        self._lg_cache: tuple | None = None  # supersede map arrays
        self._vocab_cache: np.ndarray | None = None  # sorted distinct terms
        self._files: dict[str, dict[int, list[str]]] = {}  # kind -> part -> files
        self._doc_dir: tuple | None = None  # see _doc_directory

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(
        cls,
        index_dir: str,
        n_parts: int = 32,
        n_dparts: int = 16,
        stem: bool = False,
    ) -> "SearchIndex":
        """``stem=True`` builds a STEMMED index (the v3 StemmingAnalyzer
        contract): document tokens stem at index time and query terms stem
        at query time — both sides, exactly once, like Whoosh."""
        if os.path.isdir(index_dir):
            shutil.rmtree(index_dir)
        os.makedirs(index_dir)
        meta = {
            "n_parts": n_parts,
            "n_dparts": n_dparts,
            "stem": stem,
            "format": INDEX_FORMAT_VERSION,
            "generations": [],
            "live_docs": 0,
            # Σ dl over LIVE docs (BM25F's N*avgdl) — maintained exactly
            # across upserts so scoring never needs a corpus scan
            "total_dl": 0,
        }
        idx = cls(index_dir, meta)
        idx._write_meta()
        return idx

    @classmethod
    def open(cls, index_dir: str) -> "SearchIndex":
        """A handle on a committed index.  An index written in an older
        on-disk format (``INDEX_FORMAT_VERSION``) is refused: its postings
        are not term-sorted, and reading them as if they were would answer
        wrongly.  Rebuild it."""
        with open(os.path.join(index_dir, "meta.json")) as f:
            meta = json.load(f)
        if meta.get("format") != INDEX_FORMAT_VERSION:
            raise ValueError(
                f"{index_dir}: index format {meta.get('format')}, this code "
                f"reads format {INDEX_FORMAT_VERSION}; rebuild the index"
            )
        return cls(index_dir, meta)

    def _write_meta(self) -> None:
        tmp = os.path.join(self.index_dir, "meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, os.path.join(self.index_dir, "meta.json"))

    def _gen_dir(self, g: int) -> str:
        return os.path.join(self.index_dir, f"gen={g}")

    def _new_gen_dir(self, g: int) -> str:
        """Generation ``g``'s empty directory; the uncommitted leftovers of
        a crashed write go first."""
        gd = self._gen_dir(g)
        shutil.rmtree(gd, ignore_errors=True)
        self._drop_readers([gd])
        for kind in ("postings", "docs"):
            os.makedirs(os.path.join(gd, kind))
        return gd

    # --------------------------------------------------------------- update

    def update(self, docs) -> dict:
        """Index one submission (upsert-by-doc_id) as a new generation.

        ``docs``: a Dataset / Arrow table / parquet path with columns
        (doc_id:int64, text:string[, source:string]).  Reference semantics:
        Whoosh ``update_document`` per result batch
        (indexer/indexer_node.py:83-106) — a re-submitted doc_id replaces its
        previous postings.  ``source`` (when present) becomes the stored
        ``domain`` field (the reference derives domain from the url,
        indexer_node.py:89); absent, domain stores "unknown" — the
        reference's own fallback (``result.get("domain", "unknown")``).

        A submission of at most ``DRIVER_WRITE_DOCS`` docs is indexed on
        the driver: one ``_postings`` call and the partition writes, with no
        Ray Data execution.  A larger one runs ``_update_dataset``.  Both
        write the same files.  Duplicate doc_ids within the submission
        collapse to one row first (``_collapse_dups``): duplicate
        same-generation postings would both pass the live filter.
        """
        g = (
            self.meta["generations"][-1]["gen"] + 1
            if self.meta["generations"]
            else 0
        )
        gd = self._new_gen_dir(g)
        n_parts, n_dparts = self.meta["n_parts"], self.meta["n_dparts"]
        stem = bool(self.meta.get("stem", False))

        docs = _submission(docs)
        if isinstance(docs, pa.Table):
            all_ids = docs.column("doc_id").to_numpy()
            docs = _collapse_dups(docs)
            post, rows = _postings(docs, stem, n_parts, n_dparts)
            keep = self._keep
            terms = [
                _write_part(t, gd, "postings", p, g, keep) for p, t in _groups(post, "part")
            ]
            dls = [_write_part(t, gd, "docs", p, g, keep) for p, t in _groups(rows, "dpart")]
        else:
            all_ids, terms, dls = self._update_dataset(docs, gd, g)
        new_ids = np.unique(all_ids)
        _write_vocab(terms, gd, self._keep)
        _atomic_write_table(
            pa.table({"doc_id": pa.array(new_ids, pa.int64())}),
            os.path.join(gd, "doc_ids.parquet"),
        )

        # supersede detection: which of new_ids are live in the committed
        # index (their older postings become dead), and their OLD dl, for
        # the total_dl delta
        overlap, old_dl = np.zeros(0, dtype=np.int64), 0
        if self.meta["generations"]:
            keys, _, _, dl, _ = self._doc_directory()
            live = np.isin(keys, new_ids, assume_unique=True)
            overlap, old_dl = keys[live], int(dl[live].sum())
        _atomic_write_table(
            pa.table({"doc_id": pa.array(overlap, pa.int64())}),
            os.path.join(gd, "superseded.parquet"),
            self._keep,
        )
        new_dl = _dl_sum(dls)

        # commit: meta lists the generation only after every file is final
        self._committed()
        self.meta["generations"].append(
            {"gen": g, "n_docs": int(len(new_ids)), "n_superseded": int(len(overlap))}
        )
        self.meta["live_docs"] = int(self.meta["live_docs"] + len(new_ids) - len(overlap))
        self.meta["total_dl"] = int(
            self.meta.get("total_dl", 0) + new_dl - old_dl
        )
        self._write_meta()
        return {"gen": g, "n_docs": int(len(new_ids)), "n_upserts": int(len(overlap))}

    def _update_dataset(self, docs_mat, gd: str, g: int) -> tuple:
        """``update()`` above ``DRIVER_WRITE_DOCS``: ``_postings`` inside
        ``map_batches``, then ``groupby(part)`` / ``groupby(dpart)``, each
        group written by ``_write_part``.  Returns the submission's ids and
        the writes' returns.  The closures ship to Ray tasks: they capture
        plain values, never ``self`` and its warm readers."""
        ids_ds = docs_mat.select_columns(["doc_id"]).materialize()
        all_ids = _doc_ids(ray.get(ids_ds.to_arrow_refs()))
        if len(np.unique(all_ids)) != len(all_ids):
            docs_mat = self._collapse_submission_dups(docs_mat)
        stem = bool(self.meta.get("stem", False))
        n_parts, n_dparts = self.meta["n_parts"], self.meta["n_dparts"]

        def written(i: int, kind: str, key: str) -> list[pa.Table]:
            def write(group: pa.Table) -> pa.Table:
                p = int(group.column(key)[0].as_py())
                return _write_part(group.drop_columns([key]), gd, kind, p, g)

            out = (
                docs_mat.map_batches(
                    lambda b: _postings(b, stem, n_parts, n_dparts)[i],
                    batch_format="pyarrow",
                )
                .groupby(key)
                .map_groups(write, batch_format="pyarrow")
                .materialize()
            )
            return [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]

        return all_ids, written(0, "postings", "part"), written(1, "docs", "dpart")

    def _collapse_submission_dups(self, docs_mat) -> "ray.data.Dataset":
        """``_collapse_dups`` over a Dataset submission: hash-partitioned by
        doc_id, so each id's rows meet in one group.  Runs only when
        duplicate ids were actually detected."""
        P = self.meta["n_dparts"]

        def add_part(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            return batch.append_column("cpart", pa.array(ids % P, pa.int32()))

        return (
            docs_mat.map_batches(add_part, batch_format="pyarrow")
            .groupby("cpart")
            .map_groups(
                lambda group: _collapse_dups(group.drop_columns(["cpart"])),
                batch_format="pyarrow",
            )
        ).materialize()

    def _prep_terms(self, terms: list) -> list:
        """Query terms stem iff the index was built stemmed — both sides of
        the match transform identically, the Whoosh contract.  A PHRASE
        (tuple of tokens) stems each constituent; a WILDCARD pattern never
        stems — it expands against the (already-stemmed) vocabulary."""
        if self.meta.get("stem", False):
            return [
                t
                if isinstance(t, Wildcard)
                else tuple(_stem(x) for x in t)
                if isinstance(t, tuple)
                else _stem(t)
                for t in terms
            ]
        return list(terms)

    # ------------------------------------------------------------- compact

    def compact(self) -> dict:
        """Fold all generations into one (drop superseded rows) — the
        Whoosh/Lucene segment-merge analog.  Bounds the per-query generation
        fan-in and empties the supersede map.

        Partition ``P`` of every generation holds the same terms (postings)
        or doc ids (docs), so partition ``P`` of the merged generation is
        their files concatenated, live-filtered and written by
        ``_write_part``: no shuffle and no per-row hashing.  An index of at
        most ``DRIVER_WRITE_DOCS`` docs merges its partitions on the driver,
        a larger one in plain Ray tasks (``exchange._submit``), one partition
        each."""
        gens = [e["gen"] for e in self.meta["generations"]]
        if len(gens) <= 1:
            return {"generations": len(gens), "compacted": False}
        new_g = gens[-1] + 1
        gd = self._new_gen_dir(new_g)
        # merge() may ship to Ray tasks: it captures these plain values,
        # never ``self`` and its warm readers
        last_gen = self._last_gen_map()
        n = {"postings": self.meta["n_parts"], "docs": self.meta["n_dparts"]}
        files = {(k, p): self._all_files(k, {p}) for k in n for p in range(n[k])}

        def merge(kind: str, p: int, keep=None) -> pa.Table:
            t = pa.concat_tables([pq.read_table(f) for f in files[kind, p]])
            t = t.filter(_live_mask(t["doc_id"], t["gen"], last_gen))
            return _write_part(t.drop_columns(["gen"]), gd, kind, p, new_g, keep)

        on_driver = sum(e["n_docs"] for e in self.meta["generations"]) <= DRIVER_WRITE_DOCS
        out: dict[str, list[pa.Table]] = {}
        for kind in ("postings", "docs"):
            parts = [p for (k, p), fs in files.items() if k == kind and fs]
            if on_driver or not parts:
                out[kind] = [merge(kind, p, self._keep) for p in parts]
                continue
            merged = ray.get(exchange._submit(merge, [(kind, p) for p in parts]))
            out[kind] = [t for t in merged if t.num_rows]
        _write_vocab(out["postings"], gd, self._keep)
        all_ids = np.unique(_doc_ids(out["docs"]))
        new_total_dl = _dl_sum(out["docs"])
        _atomic_write_table(
            pa.table({"doc_id": pa.array(all_ids, pa.int64())}),
            os.path.join(gd, "doc_ids.parquet"),
        )
        _atomic_write_table(
            pa.table({"doc_id": pa.array([], pa.int64())}),
            os.path.join(gd, "superseded.parquet"),
            self._keep,
        )
        old_dirs = [self._gen_dir(g) for g in gens]
        self._committed()
        self._drop_readers(old_dirs)
        self.meta["generations"] = [
            {"gen": new_g, "n_docs": int(len(all_ids)), "n_superseded": 0}
        ]
        self.meta["live_docs"] = int(len(all_ids))
        self.meta["total_dl"] = int(new_total_dl)
        self._write_meta()
        for d in old_dirs:  # safe after commit: meta no longer lists them
            shutil.rmtree(d, ignore_errors=True)
        return {"generations": 1, "compacted": True, "gen": new_g}

    # ------------------------------------------------------------- queries

    def _last_gen_map(self) -> tuple[np.ndarray, np.ndarray]:
        """The supersede map as sorted arrays ``(doc_ids, gens)``: each
        re-indexed doc_id and the latest generation that re-indexed it.
        Bounded by the number of UPSERTED docs (re-crawled pages), not the
        corpus; built once per handle and invalidated by update()/compact().
        ``_live_mask`` probes it, and compact's merge tasks capture it."""
        if self._lg_cache is None:
            ids, gens = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
            for e in self.meta["generations"]:
                f = os.path.join(self._gen_dir(e["gen"]), "superseded.parquet")
                d = self._reader(f, _ColumnReader).values
                ids.append(d)
                gens.append(np.full(len(d), e["gen"], dtype=np.int64))
            ids, gens = np.concatenate(ids), np.concatenate(gens)
            order = np.lexsort((gens, ids))
            ids, gens = ids[order], gens[order]
            latest = np.append(ids[1:] != ids[:-1], True)[: len(ids)]
            self._lg_cache = (ids[latest], gens[latest])
        return self._lg_cache

    def _reader(self, path: str, kind):
        """The handle's ``kind`` reader of one committed file, decoded on
        first use (from the table the handle wrote there, else from parquet)
        and then served from memory while it is held."""
        r = self._readers.get(path)
        if r is None:
            r = kind(path)
        elif isinstance(r, _Written):
            r = kind.from_table(path, r.table)
        self._hold(path, r)
        return r

    def _keep(self, path: str, t: pa.Table) -> None:
        """Hold the table just written to ``path`` as that file's entry, so
        the handle's next query through it reads no parquet file."""
        self._hold(path, _Written(t))

    def _hold(self, path: str, entry) -> None:
        """Hold ``entry`` as ``path``'s, most recently used, if it fits: the
        held entries take at most ``DRIVER_ROW_LIMIT`` rows together.  An
        entry that does not fit is served to its caller only.  Evicting
        older entries to make room would, on a scan of more rows than the
        limit, evict each file before the next scan reaches it again; not
        holding the newcomer keeps the held share warm.  Entries leave when
        their files are deleted (``_drop_readers``), or least recently used
        first if the limit is lowered."""
        old = self._readers.pop(path, None)
        self._held_rows -= old.rows if old is not None else 0
        while self._held_rows > DRIVER_ROW_LIMIT:
            self._held_rows -= self._readers.popitem(last=False)[1].rows
        if self._held_rows + entry.rows <= DRIVER_ROW_LIMIT:
            self._readers[path] = entry
            self._held_rows += entry.rows

    def _moved(self, index_dir: str) -> None:
        """Follow a just-built index (the handle holds only ``_Written``
        tables) to ``index_dir``, where it was renamed: re-key its tables."""
        n = len(self.index_dir)
        self._readers = OrderedDict((index_dir + p[n:], r) for p, r in self._readers.items())
        self.index_dir = index_dir
        self._committed()

    def _drop_readers(self, gen_dirs: list[str]) -> None:
        """Forget the readers of files under ``gen_dirs`` (deleted)."""
        prefixes = tuple(d + os.sep for d in gen_dirs)
        for p in [p for p in self._readers if p.startswith(prefixes)]:
            self._held_rows -= self._readers.pop(p).rows

    def _all_files(self, kind: str, parts: set[int] | None = None) -> list[str]:
        """Every committed generation's ``kind`` files ("postings" or
        "docs"), only those of partitions ``parts`` when given, by partition
        and then generation.  Listed once per committed state."""
        if kind not in self._files:
            by_part = self._files[kind] = {}
            for e in self.meta["generations"]:
                d = os.path.join(self._gen_dir(e["gen"]), kind)
                for f in sorted(os.listdir(d)):
                    if f.endswith(".parquet"):  # "[d]part_00012.parquet"
                        p = int(f[f.index("_") + 1 : -len(".parquet")])
                        by_part.setdefault(p, []).append(os.path.join(d, f))
        by_part = self._files[kind]
        parts = sorted(by_part if parts is None else parts)
        return [f for p in parts for f in by_part.get(p, ())]

    def _vocabulary(self) -> np.ndarray:
        """Sorted distinct indexed terms — the wildcard-expansion domain.

        Reads each generation's one ``vocab.parquet`` (its distinct terms,
        written at index time — vocab-sized, never index-sized).  May
        include terms of superseded docs — a harmless over-expansion: their
        postings are live-filtered downstream, so they match nothing.
        Cached per handle; invalidated by update()/compact(), after which
        only a new generation's file is read."""
        if self._vocab_cache is None:
            self._vocab_cache = np.unique(
                np.concatenate(
                    [np.zeros(0, dtype=object)]
                    + [
                        self._reader(
                            os.path.join(self._gen_dir(e["gen"]), "vocab.parquet"),
                            _ColumnReader,
                        ).values
                        for e in self.meta["generations"]
                    ]
                )
            )
        return self._vocab_cache

    def _expand_wildcard(self, pattern: str) -> list[str]:
        """Indexed terms matching a ``*``/``?`` pattern (Whoosh wildcard
        semantics: case-normalized, matched against the vocabulary)."""
        import fnmatch
        import re as _re

        rx = _re.compile(fnmatch.translate(pattern))
        return [t for t in self._vocabulary() if rx.match(t)]

    def _term_rows(
        self,
        terms: list[str],
        require_content_tf: bool = True,
        with_positions: bool = False,
    ):
        """Yield ``(term, {column: array})`` for each distinct query term
        with a live row: its live postings over ``doc_id``/``tf``/
        ``tf_title``/``dl`` (and the ``pos``/``pos_title`` list arrays
        ``with_positions``), one row per doc.  The rows come from the
        handle's readers of the term's partition, one per generation: one
        ``searchsorted`` slice per term and file, and the live filter runs on
        that slice alone.  A partition's readers are taken once for all its
        terms, so a caller that folds term by term holds one term's rows.

        ``require_content_tf`` (the default) drops title-only rows (tf ==
        0): the v1 TF-IDF/AND/df queries are defined over full-text tokens
        and must not see a token that exists only as a title truncation.
        BM25F passes False -- it scores the field union."""
        n_parts = self.meta["n_parts"]
        last_gen = self._last_gen_map()
        by_part: dict[int, list] = {}
        for t in dict.fromkeys(terms):
            by_part.setdefault(_term_part(t, n_parts), []).append(t)
        for p, part_terms in by_part.items():
            readers = [self._reader(f, _PostingsReader) for f in self._all_files("postings", {p})]
            for t in part_terms:
                subs = []
                for r in readers:
                    lo, hi = r.run(t)
                    if lo == hi:
                        continue
                    cols = {c: v[lo:hi] for c, v in r.cols.items()}
                    m = _live_mask(cols["doc_id"], cols.pop("gen"), last_gen)
                    if require_content_tf:
                        m &= cols["tf"] > 0
                    if not m.any():
                        continue
                    sub = {c: v[m] for c, v in cols.items()}
                    if with_positions:
                        for c, v in r.positions().items():
                            sub[c] = v.slice(lo, hi - lo).filter(pa.array(m))
                    subs.append(sub)
                if len(subs) > 1:
                    yield t, {
                        c: (pa.concat_arrays if c.startswith("pos") else np.concatenate)(
                            [x[c] for x in subs]
                        )
                        for c in subs[0]
                    }
                elif subs:
                    yield t, subs[0]

    def query_df(self, terms: list[str]) -> dict[str, int]:
        """Per-term document frequency for a query — pruned partitions only.
        Terms stem first iff the index is stemmed (keys are the stems)."""
        terms = self._prep_terms(terms)
        runs = dict(self._term_rows(terms))
        return {t: len(runs[t]["doc_id"]) if t in runs else 0 for t in terms}

    def topk(self, terms: list[str], k: int = 20) -> pa.Table:
        """Integer TF-IDF top-k: (rank, doc_id, score, snippet), ranked by
        score DESC, doc_id ASC, with the v3 fallback snippet — the
        ``search_topk`` contract of ``__ray_entry__.oracle_sql``.  Scores
        full-text occurrences only (title-only rows are dropped), so
        ``tf >= 1`` and ``idf >= IDF_SCALE`` make every matched doc score
        > 0; docs with no query term pad the tail at score 0."""

        def tfidf(rows, idf: int) -> np.ndarray:
            return rows["tf"] * idf

        ranked = self._rank(self._prep_terms(terms), k, tfidf, True)
        return self._result_table(ranked).select(
            ["rank", "doc_id", "score", "snippet"]
        )

    def _rank(
        self,
        terms: list[str],
        k: int,
        row_contrib,
        require_content_tf: bool,
    ) -> list[tuple[int, int]]:
        """The one scorer behind ``topk`` and ``topk_bm25f``: the k best
        ``(doc_id, score)`` pairs of the live docs by score DESC, doc_id ASC.

        ``row_contrib(rows, idf) -> int64[]`` gives each of a term's live
        posting rows its score contribution, given the term's integer idf.
        A (term, doc) pair is exactly one live row, so every per-(term, doc)
        model — TF-IDF and BM25F alike — is a per-doc sum of row
        contributions.  The terms fold one at a time into one int64 score
        per key of the doc directory (every live doc_id, ascending), so the
        driver holds O(live docs) plus one term's rows, whatever the terms'
        document frequencies.  A doc no term matches keeps score 0 and ranks
        after every scoring doc by doc_id, like an unmatched doc in a full
        ranking of the corpus.  ``np.partition`` cuts the vector to k
        candidates before the sort."""
        _check_k(k)
        keys = self._doc_directory()[0]
        n = int(self.meta["live_docs"])
        score = np.zeros(len(keys), dtype=np.int64)
        for _, r in self._term_rows(terms, require_content_tf):
            idf = (n * IDF_SCALE) // len(r["doc_id"])
            score[np.searchsorted(keys, r["doc_id"])] += row_contrib(r, idf)
        cand = np.arange(len(keys))
        if 0 < k < len(keys):
            cut = np.partition(score, -k)[-k]
            above = np.flatnonzero(score > cut)
            cand = np.r_[above, np.flatnonzero(score == cut)[: k - len(above)]]
        top = cand[np.lexsort((keys[cand], -score[cand]))[:k]]
        return list(zip(keys[top].tolist(), score[top].tolist()))

    def and_terms(self, terms: list[str]) -> pa.Table:
        """doc_ids containing ALL terms (v1 posting-list AND, D5) from the
        pruned partitions: each term's live doc_ids from the handle's
        readers, counted with one ``np.unique``."""
        terms = self._prep_terms(terms)
        runs = dict(self._term_rows(terms))
        ids_u, counts = np.unique(
            np.concatenate([np.zeros(0, np.int64)] + [r["doc_id"] for r in runs.values()]),
            return_counts=True,
        )
        hits = ids_u[counts == len(set(terms))]
        return pa.table({"doc_id": pa.array(hits, pa.int64())})

    def term_df(self) -> pa.Table:
        """Full document-frequency table (term, df), sorted by term — the
        index-statistics scan; reads postings metadata columns only, never
        text.  The counts come from the handle's readers, one
        ``np.add.reduceat`` over each file's term runs after the live and
        ``tf > 0`` masks."""
        last_gen = self._last_gen_map()
        terms, counts = [np.zeros(0, dtype=object)], [np.zeros(0, np.int64)]
        for f in self._all_files("postings"):
            r = self._reader(f, _PostingsReader)
            # df is defined over full-text tokens: drop title-only rows
            m = _live_mask(r.cols["doc_id"], r.cols["gen"], last_gen) & (r.cols["tf"] > 0)
            terms.append(r.terms)
            counts.append(np.add.reduceat(m.astype(np.int64), r.starts[:-1]))
        uniq, inv = np.unique(np.concatenate(terms), return_inverse=True)
        df = np.zeros(len(uniq), np.int64)
        np.add.at(df, inv, np.concatenate(counts))
        return pa.table({"term": pa.array(uniq[df > 0], pa.string()), "df": df[df > 0]})

    # --------------------------------------------------------------- BM25F

    def topk_bm25f(self, terms, k: int = 10) -> pa.Table:
        """Field-weighted BM25 top-k with stored result fields — the
        ``search_topk_bm25f`` contract of ``__ray_entry__.oracle_sql``
        (rank, doc_id, url, title, domain, crawl_date, score, snippet).
        Scores the title/content field union, so title-only rows count.
        Scoring reads ONLY the pruned postings rows: ``dl`` is denormalized
        into every row and ``total_dl``/``live_docs`` live in meta, so there
        is no doc-table pass."""
        n = int(self.meta["live_docs"])
        total_dl = int(self.meta.get("total_dl", 0))

        def bm25f(rows, idf: int) -> np.ndarray:
            tf_w = BOOST_TITLE * rows["tf_title"] + rows["tf"]
            # overflow-guarded vector kernel (r4 advice): falls back to
            # Python-int arithmetic when int64 intermediates could wrap
            return bm25f_contrib_vec(idf, tf_w, rows["dl"], total_dl, n)

        ranked = self._rank(self._prep_terms(list(terms)), k, bm25f, False)
        return self._result_table(ranked)

    # ------------------------------------------------- query-string search

    def search(self, query_str: str, k: int = 10) -> pa.Table:
        """The reference's user-facing search endpoint
        (``indexer/indexer_node.py:151-183``): a query STRING with
        field-specific terms (``title:term`` / ``content:term``), boolean
        operators (AND / OR / NOT), parenthesized groups and quoted
        PHRASES, parsed by ``parse_query`` (the MultifieldParser stand-in
        — Whoosh's default grammar accepts all of these), matched against
        the index, and ranked with BM25F.

        Matching: the query in disjunctive normal form — OR of AND-groups;
        a bare term matches either field, ``title:x`` / ``content:x``
        restrict to one field; ``NOT x`` excludes (only inside a group with
        at least one positive term — a pure-negation group is rejected,
        like Whoosh's requirement of at least one positive clause, with a
        ``ValueError``; so is a query past ``parse_query``'s nesting or
        DNF-size cap).  A phrase leaf matches docs where its tokens appear
        ADJACENT in the restricted field, verified against the positional
        postings.

        Scoring: each distinct positive leaf contributes its
        field-restricted BM25F weight (bare terms use the boosted field
        union; ``title:x`` only ``BOOST_TITLE*tf_title``; ``content:x``
        only ``tf``; a phrase uses its OCCURRENCE count — the phrase
        frequency — in place of tf, with df = number of docs containing
        the phrase), summed per matching doc.

        Reads: the candidate postings for the query's terms are slices of
        the handle's readers of the pruned files (``_term_rows``: no Ray
        Data execution, and no parquet read once the readers are warm; a
        phrase constituent's file also loads its position columns once).
        The fold is numpy over those slices — one int64 score per matched
        doc, phrase counts by ``_phrase_counts`` — bounded by the per-term
        document frequencies, the classic inverted-index query cost.
        """
        _check_k(k)
        groups = parse_query(query_str)
        if not groups:
            return self.topk_bm25f([], k)
        stem_t = lambda t: self._prep_terms([t])[0]  # noqa: E731
        groups = [
            [(f, stem_t(t), neg) for f, t, neg in grp] for grp in groups
        ]
        for grp in groups:
            if grp and not any(not neg for _, _, neg in grp):
                raise ValueError(
                    "pure-negation query group is not matchable: " + query_str
                )
        leaf_terms = [t for grp in groups for _, t, _ in grp]
        # wildcard leaves expand against the vocabulary sidecar ONCE; the
        # expanded terms then ride the ordinary pruned-postings path
        wmap = {
            t: self._expand_wildcard(t)
            for t in leaf_terms
            if isinstance(t, Wildcard)
        }

        def _leaf_terms(t):
            if isinstance(t, Wildcard):
                return wmap[t]
            return t if isinstance(t, tuple) else (t,)

        all_terms = sorted({x for t in leaf_terms for x in _leaf_terms(t)})
        n = int(self.meta["live_docs"])
        total_dl = int(self.meta.get("total_dl", 0))
        # tf/df/dl for every query term, NO position columns — positions
        # are the bulk of the postings bytes and only phrase constituents
        # need them
        cat = dict(self._term_rows(all_terms, require_content_tf=False))
        phrase_terms = {x for t in leaf_terms if isinstance(t, tuple) for x in t}
        pos_cat = dict(
            self._term_rows(sorted(phrase_terms), require_content_tf=False, with_positions=True)
        )

        none = np.zeros(0, dtype=np.int64)
        _empty3 = (none, none, none)

        def term_support(field: str | None, term: str):
            """(ids, tf_w, dl) of docs where the single-term leaf matches."""
            a = cat.get(term)
            if a is None:
                return _empty3
            if field == "title":
                w = BOOST_TITLE * a["tf_title"]
            elif field == "content":
                w = a["tf"]
            else:
                w = BOOST_TITLE * a["tf_title"] + a["tf"]
            sel = w > 0
            return a["doc_id"][sel], w[sel], a["dl"][sel]

        def phrase_support(field: str | None, toks: tuple):
            """(ids, tf_w, dl) of docs where the phrase occurs in scope —
            tf_w is the field-weighted PHRASE frequency.  Candidates are
            the AND of constituent postings; ``_phrase_counts`` verifies
            adjacency over all candidates' position lists at once."""
            entries = [pos_cat.get(x) for x in toks]
            if any(e is None for e in entries):
                return _empty3
            cand = entries[0]["doc_id"]
            for e in entries[1:]:
                cand = np.intersect1d(cand, e["doc_id"])
            # row i of every constituent's lists is candidate i: a doc has
            # one live row per term
            rows = []
            for e in entries:
                order = np.argsort(e["doc_id"])
                rows.append(order[np.searchsorted(e["doc_id"][order], cand)])

            def occ(col: str) -> np.ndarray:
                return _phrase_counts(
                    [e[col].take(pa.array(r)) for e, r in zip(entries, rows)]
                )

            w = np.zeros(len(cand), dtype=np.int64)
            if field != "content":
                w += BOOST_TITLE * occ("pos_title")
            if field != "title":
                w += occ("pos")
            sel = w > 0
            return cand[sel], w[sel], entries[0]["dl"][rows[0]][sel]

        def wild_support(field: str | None, pattern: Wildcard):
            """Union of matching ids over the pattern's expanded terms —
            match/negation only; scoring expands to concrete term leaves."""
            ids = [none] + [term_support(field, x)[0] for x in wmap[pattern]]
            return np.unique(np.concatenate(ids)), none, none

        supports: dict = {}

        def leaf_support(field: str | None, t):
            if (field, t) not in supports:
                supports[field, t] = (
                    wild_support
                    if isinstance(t, Wildcard)
                    else phrase_support
                    if isinstance(t, tuple)
                    else term_support
                )(field, t)
            return supports[field, t]

        match: np.ndarray | None = None
        for grp in groups:
            gm: np.ndarray | None = None
            for field, term, neg in grp:
                if neg:
                    continue
                s = leaf_support(field, term)[0]
                gm = s if gm is None else np.intersect1d(gm, s)
            for field, term, neg in grp:
                if neg and gm is not None and len(gm):
                    gm = np.setdiff1d(gm, leaf_support(field, term)[0])
            if gm is not None:
                match = gm if match is None else np.union1d(match, gm)
        # sorted and unique: one leaf's support is in file order
        match = np.unique(match) if match is not None else none

        # score the matches: distinct positive leaves, field-restricted tf_w;
        # a wildcard leaf scores as its expanded terms (Whoosh: a multi-term
        # query sums each matched term's contribution), deduped against any
        # explicitly-queried identical term
        leaf_set = {
            (f, x)
            for grp in groups
            for f, t, neg in grp
            if not neg
            for x in (wmap[t] if isinstance(t, Wildcard) else (t,))
        }
        # one int64 score per matched doc (zero-score matches rank too); a
        # leaf adds at most 2.2 * n * IDF_SCALE, so the sum cannot wrap
        score = np.zeros(len(match), dtype=np.int64)
        for field, term in leaf_set:
            ids, tf_w, dl = leaf_support(field, term)
            df = len(ids)
            if df == 0 or not len(match):
                continue
            idf = (n * IDF_SCALE) // df
            contrib = bm25f_contrib_vec(idf, tf_w, dl, total_dl, n)
            at = np.minimum(np.searchsorted(match, ids), len(match) - 1)
            hit = match[at] == ids
            np.add.at(score, at[hit], contrib[hit])
        top = np.lexsort((match, -score))[:k]
        return self._result_table(
            [(int(d), int(x)) for d, x in zip(match[top], score[top])]
        )

    # --------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Index statistics — the reference's ``update_stats`` +
        ``get_status`` surface (``indexer/indexer_node.py:188-217``):
        ``document_count`` (its ``searcher.doc_count()``) and
        ``index_size_bytes``/``index_size_mb`` (its os.walk size sum), plus
        the rebuild's own segmentation facts."""
        total = 0
        for dirpath, _dirnames, filenames in os.walk(self.index_dir):
            for f in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, f))
                except OSError:
                    continue
        return {
            "document_count": int(self.meta["live_docs"]),
            "index_size_bytes": int(total),
            "index_size_mb": round(total / (1024 * 1024), 2),
            "n_generations": len(self.meta["generations"]),
            "total_dl": int(self.meta.get("total_dl", 0)),
            "stem": bool(self.meta.get("stem", False)),
        }

    # ------------------------------------------------------------- helpers

    def _doc_directory(self) -> tuple:
        """``(keys, file, row, dl, paths)``: every live doc_id ascending,
        with the file (index into ``paths``), row and ``dl`` of its latest
        docs row -- its live row, since nothing deletes a doc.  Built once
        per committed state: one ``lexsort`` of the docs readers' ids.  The
        ranked fold scores over its keys, the winners' stored fields are read
        through it, and ``update()`` finds its overlap in it."""
        if self._doc_dir is None:
            paths = self._all_files("docs")
            cols = [np.zeros((5, 0), np.int64)]
            for i, f in enumerate(paths):
                r = self._reader(f, _DocsReader)
                at = [np.full(r.rows, i), np.arange(r.rows)]
                cols.append(np.stack([r.ids, r.gen, r.dl] + at))
            ids, gen, dl, file, row = np.concatenate(cols, axis=1)
            order = np.lexsort((gen, ids))
            last = order[np.append(ids[order][1:] != ids[order][:-1], True)[: len(ids)]]
            self._doc_dir = (ids[last], file[last], row[last], dl[last], paths)
        return self._doc_dir

    def _result_table(self, ranked: list[tuple[int, int]]) -> pa.Table:
        """Ranked ``(doc_id, score)`` pairs as the reference's result dicts
        (indexer/indexer_node.py:174-181) in columns: rank, doc_id, url,
        title, domain, crawl_date, score, snippet.  The stored fields are
        the Whoosh stored=True retrieval: one ``searchsorted`` of the
        winners in the doc directory, then each winner's fields by row from
        its docs reader's ``fields`` lists."""
        ids = [d for d, _ in ranked]
        keys, file, row, _, paths = self._doc_directory()
        at = np.searchsorted(keys, ids)
        got = {c: [] for c in _DocsReader.STORED}
        fields: dict[int, dict] = {}  # file index -> its reader's lists
        for f, r in zip(file[at].tolist(), row[at].tolist()):
            if f not in fields:
                fields[f] = self._reader(paths[f], _DocsReader).fields
            for c, v in got.items():
                v.append(fields[f][c][r])
        return pa.table(
            {
                "rank": pa.array(np.arange(1, len(ids) + 1), pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
                "url": pa.array(list(map(derive_url, ids, got["domain"])), pa.string()),
                "title": pa.array(got["title"], pa.string()),
                "domain": pa.array(got["domain"], pa.string()),
                "crawl_date": pa.array(got["crawl_date"], pa.string()),
                "score": pa.array([x for _, x in ranked], pa.int64()),
                "snippet": pa.array(got["snippet"], pa.string()),
            }
        )


# --------------------------------------------------- sf_dir-cached indexes


_INDEX_CACHE_ROOT = os.environ.get(
    "GRAFT_SEARCH_INDEX_CACHE", "/tmp/graft_search_index"
)

# cache dir -> (stamp, handle): index_for's handles, kept warm in the process
_HANDLES: dict[str, tuple[str, SearchIndex]] = {}


def index_for(sf_dir: str, stem: bool = False) -> SearchIndex:
    """Build-once-query-many index over ``sf_dir/documents.parquet``,
    cached under /tmp — the reference's 'index once, query per request'
    usage.  ``stem=True`` builds/serves the STEMMED index (its own cache
    slot) — the v3 StemmingAnalyzer schema that BM25F and the stemmed
    top-k query contract require.

    The stamp covers the index-format version and the source's path, size
    and mtime_ns.  The cache dir name carries a hash of the full normalized
    source path, so fixture dirs that share a basename get distinct slots.
    A build lands in a pid-suffixed staging dir and swaps in by
    ``os.replace``: a crashed build leaves only an ignored staging dir, a
    reader of the previous index keeps its open files, and a process that
    loses the race to swap uses the winner's index when its stamp matches.
    The process keeps one handle per cache dir and stamp, after a build the
    one that wrote the index, so even the first query reads no file."""
    import hashlib

    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    stamp = f"v{INDEX_FORMAT_VERSION}|{src}|{st.st_size}|{st.st_mtime_ns}|stem={stem}"
    norm = os.path.normpath(os.path.abspath(sf_dir))
    slot = f"{os.path.basename(norm)}-{hashlib.md5(norm.encode()).hexdigest()[:8]}"
    d = os.path.join(_INDEX_CACHE_ROOT, slot + ("-stem" if stem else ""))

    def _valid() -> bool:
        stamp_path = os.path.join(d, "_SOURCE_STAMP")
        if not (os.path.isdir(d) and os.path.exists(stamp_path)):
            return False
        with open(stamp_path) as f:
            return f.read() == stamp and os.path.exists(
                os.path.join(d, "meta.json")
            )

    def _handle() -> SearchIndex:
        if _HANDLES.get(d, ("",))[0] != stamp:
            _HANDLES[d] = (stamp, SearchIndex.open(d))
        return _HANDLES[d][1]

    if _valid():
        return _handle()
    staging = f"{d}.build-{os.getpid()}"
    idx = SearchIndex.create(staging, stem=stem)
    idx.update(src)
    with open(os.path.join(staging, "_SOURCE_STAMP"), "w") as f:
        f.write(stamp)
    old = f"{d}.old-{os.getpid()}"
    try:
        if os.path.isdir(d):
            os.replace(d, old)  # previous tree stays readable during swap
        os.replace(staging, d)
    except OSError:
        # lost the race: another process swapped its build in between our
        # check and replace — if its index carries the same stamp, use it
        shutil.rmtree(staging, ignore_errors=True)
        if _valid():
            shutil.rmtree(old, ignore_errors=True)
            return _handle()
        # the competing landing doesn't serve this stamp (r4 advice): never
        # leave the cache slot emptier than before — restore the displaced
        # previous tree if the slot is vacant, else leave the competitor's
        if os.path.isdir(d):
            shutil.rmtree(old, ignore_errors=True)
        elif os.path.isdir(old):
            try:
                os.replace(old, d)
            except OSError:
                shutil.rmtree(old, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    idx._moved(d)
    _HANDLES[d] = (stamp, idx)
    return idx


def search_topk_indexed(sf_dir: str) -> pa.Table:
    """The pinned integer TF-IDF top-k (``search_topk`` in queries()),
    answered FROM the persisted index."""
    return index_for(sf_dir).topk(list(search.QUERY_TERMS), search.TOP_K)


def search_and_terms_indexed(sf_dir: str) -> pa.Table:
    return index_for(sf_dir).and_terms(list(search.QUERY_TERMS))


def search_term_df_indexed(sf_dir: str) -> pa.Table:
    return index_for(sf_dir).term_df()


def search_topk_stemmed_indexed(sf_dir: str) -> pa.Table:
    """The v3 half of the top-k contract: the same TF-IDF over STEMMED
    tokens (Whoosh StemmingAnalyzer, indexer/indexer_node.py:63) —
    'joins', 'joined', 'joining' all count toward 'join' — answered FROM
    the persisted stemmed index."""
    return index_for(sf_dir, stem=True).topk(list(search.QUERY_TERMS), search.TOP_K)


def search_topk_bm25f_indexed(sf_dir: str) -> pa.Table:
    """The pinned BM25F top-k with stored result fields, answered FROM the
    persisted stemmed index — the reference's serving shape: BM25F scored
    against the index, not a corpus scan per query
    (indexer/indexer_node.py:151-183)."""
    return index_for(sf_dir, stem=True).topk_bm25f(
        list(search.QUERY_TERMS), search.BM25_TOP_K
    )


def search_topk_highlighted(sf_dir: str) -> pa.Table:
    """``search_topk_indexed`` with Whoosh-style highlighted fragments in
    place of the plain 200-char snippet (v3 ``highlights(top=2)``,
    indexer/indexer_node.py:166-171).  The fragments need the full text,
    which the index does not store, so this is a pruned read of the k
    winners' text only (one pyarrow read with a row filter, on the driver)."""
    top = search_topk_indexed(sf_dir)
    ids = top.column("doc_id").to_pylist()
    win = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", ids)],
    )
    texts = dict(zip(win.column("doc_id").to_pylist(), win.column("text").to_pylist()))
    return top.set_column(
        top.schema.get_field_index("snippet"),
        "snippet",
        pa.array([highlight(texts.get(d, "")) for d in ids], pa.string()),
    )


def index_crawl_payload(
    payload_root: str, index_dir: str, stem: bool = False
) -> SearchIndex:
    """The reference's crawler→indexer seam: every crawled document flows
    into the search index (``crawler_node.send_to_indexer`` →
    ``indexer update_document``, crawler/crawler_node.py:340-366 +
    indexer/indexer_node.py:83-106).  In this graft the crawl payload is
    image+caption rows, so the caption is the indexed text.

    ``doc_id`` = first 15 hex digits of ``image_id`` (a 60-bit slice of the
    content-addressed md5(canonical url) key) — stable across re-crawls, so
    re-indexing a later crawl of the same URL UPSERTS its caption exactly
    like Whoosh's update-by-unique-url.  ``domain`` stores "crawl" (the
    payload schema carries no host; the reference's own fallback is
    ``result.get("domain", "unknown")``, indexer_node.py:89).

    ``payload_root`` may be a crawl output root (``round=K/`` partitions)
    or a flat bulk output directory.
    """
    from distributed_web_crawling_system_ray.sources.storage import (
        payload_files,
    )

    if any(
        d.startswith("round=") for d in sorted(os.listdir(payload_root))
    ):
        files = payload_files(payload_root)
    else:
        files = [
            os.path.join(payload_root, f)
            for f in sorted(os.listdir(payload_root))
            if f.endswith(".parquet")
        ]

    def to_docs(batch: pa.Table) -> pa.Table:
        ids = [
            int(s[:15], 16) for s in batch.column("image_id").to_pylist()
        ]
        n = len(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": batch.column("caption"),
                "source": pa.array(["crawl"] * n, pa.string()),
            }
        )

    docs = ray.data.read_parquet(
        files, columns=["image_id", "caption"]
    ).map_batches(to_docs, batch_format="pyarrow")
    if os.path.exists(os.path.join(index_dir, "meta.json")):
        idx = SearchIndex.open(index_dir)
    else:
        idx = SearchIndex.create(index_dir, stem=stem)
    idx.update(docs)
    return idx


def search_field_query(sf_dir: str) -> pa.Table:
    """The pinned field/boolean query through the full user-facing search
    path — ``parse_query`` (MultifieldParser stand-in) -> DNF match ->
    field-restricted BM25F -> stored fields — answered from the persisted
    stemmed index and hash-checked against a DuckDB oracle replicating the
    same DNF + scoring (the reference's /search endpoint surface,
    indexer/indexer_node.py:151-183)."""
    return index_for(sf_dir, stem=True).search(search.FIELD_QUERY, k=search.BM25_TOP_K)


def search_phrase_query(sf_dir: str) -> pa.Table:
    """The pinned phrase query through the full user-facing search path —
    quoted-phrase adjacency verified against the positional postings
    (Whoosh PhraseQuery semantics: the reference feeds the raw user string
    to MultifieldParser, which accepts quoted phrases by default,
    indexer/indexer_node.py:170-178) — answered from the persisted stemmed
    index and hash-checked against a DuckDB oracle replicating the same
    match + phrase-frequency BM25F scoring over tokenized text windows."""
    return index_for(sf_dir, stem=True).search(search.PHRASE_QUERY, k=search.BM25_TOP_K)


def search_nested_query(sf_dir: str) -> pa.Table:
    """The pinned nested-boolean query: parenthesized groups distribute
    into DNF, a NOT-group De Morgans, and a phrase rides inside the
    negation — Whoosh grammar parity for ``(a OR b) AND c NOT (d OR "e f")``
    (indexer/indexer_node.py:170).  Answered from the persisted stemmed
    index, hash-checked against the equivalent DuckDB DNF."""
    return index_for(sf_dir, stem=True).search(search.NESTED_QUERY, k=search.BM25_TOP_K)


def search_wildcard_query(sf_dir: str) -> pa.Table:
    """The pinned wildcard query: ``*``/``?`` patterns expand against the
    index's vocabulary sidecar and score as their expanded terms (Whoosh
    WildcardPlugin semantics — on by default in the grammar the reference
    feeds user queries to, indexer/indexer_node.py:170).  Answered from the
    persisted stemmed index, hash-checked against a DuckDB oracle that
    derives the same vocabulary from the documents and expands with LIKE."""
    idx = index_for(sf_dir, stem=True)
    return idx.search(search.WILDCARD_QUERY, k=search.BM25_TOP_K)


def search_index_stats(sf_dir: str) -> pa.Table:
    """Index statistics as a one-row table — the reference's
    ``document_count`` + index-size status surface
    (indexer/indexer_node.py:188-217).  The oracle-checked columns are the
    deterministic ones (document_count, n_generations); byte sizes are in
    ``SearchIndex.stats()`` (pytest-pinned — on-disk size is not
    SQL-predictable)."""
    st = index_for(sf_dir).stats()
    return pa.table(
        {
            "document_count": pa.array([st["document_count"]], pa.int64()),
            "n_generations": pa.array([st["n_generations"]], pa.int64()),
        }
    )
