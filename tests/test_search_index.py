"""Persistent incremental search index (reference: Whoosh update_document
upsert-by-key across crawler submissions, indexer/indexer_node.py:83-106).

Contract under test:
- build from submission 1, query; update with submission 2 (new docs + some
  RE-submitted doc_ids with changed text); queries reflect the latest text
  per doc_id WITHOUT a full rebuild (the gen-1 files are untouched).
- index-backed queries equal the DuckDB oracle (``__ray_entry__.oracle_sql``,
  a direct recompute over the documents) run over the merged "current"
  corpus (latest text per doc_id).
- every query folds on the driver through the handle's readers, with its
  readers evicting or not, with no Ray Data execution.
- compaction folds generations and preserves every query result.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import oracle_rows, table_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distributed_web_crawling_system_ray.pipelines import exchange, search, search_index
from distributed_web_crawling_system_ray.pipelines.search_index import SearchIndex

TERMS = list(search.QUERY_TERMS)


def _docs_table(rows: dict[int, str]) -> pa.Table:
    ids = sorted(rows)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([rows[i] for i in ids], pa.string()),
        }
    )


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(7)
    vocab = [
        "customer", "join", "window", "stream", "table", "query", "index",
        "crawl", "page", "robots", "the", "a", "of", "data",
    ]
    sub1 = {
        i: " ".join(rng.choice(vocab, size=rng.integers(5, 40)))
        for i in range(60)
    }
    # submission 2: 20 brand-new docs + 15 RE-submitted ids with CHANGED text
    sub2 = {
        i: " ".join(rng.choice(vocab, size=rng.integers(5, 40)))
        for i in range(60, 80)
    }
    for i in range(10, 25):
        sub2[i] = "customer " * (i % 4) + " ".join(
            rng.choice(vocab, size=rng.integers(5, 30))
        )
    merged = dict(sub1)
    merged.update(sub2)
    return sub1, sub2, merged


def _oracle_over(tmp_path, rows: dict[int, str], name: str):
    """The DuckDB oracle's top-k / AND / df rows over a corpus snapshot —
    the ground truth the index must reproduce."""
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    pq.write_table(_docs_table(rows), str(d / "documents.parquet"))
    return tuple(
        oracle_rows(q, d)
        for q in ("search_topk", "search_and_terms", "search_term_df")
    )


def _assert_index_matches(idx: SearchIndex, want):
    topk, and_t, df = want
    assert table_rows(idx.topk(TERMS, search.TOP_K)) == topk
    assert sorted(table_rows(idx.and_terms(TERMS))) == sorted(and_t)
    assert sorted(table_rows(idx.term_df())) == sorted(df)


def test_incremental_update_reflects_latest_text(ray_session, tmp_path, corpus):
    sub1, sub2, merged = corpus
    idx = SearchIndex.create(str(tmp_path / "idx"))
    idx.update(_docs_table(sub1))
    # initial build answers like the oracle over submission 1
    _assert_index_matches(idx, _oracle_over(tmp_path, sub1, "snap1"))
    gen0_postings = sorted(
        os.listdir(os.path.join(idx.index_dir, "gen=0", "postings"))
    )
    gen0_mtimes = {
        f: os.path.getmtime(os.path.join(idx.index_dir, "gen=0", "postings", f))
        for f in gen0_postings
    }

    stats = idx.update(_docs_table(sub2))
    assert stats["n_docs"] == len(sub2)
    assert stats["n_upserts"] == 15  # the re-submitted ids
    assert idx.meta["live_docs"] == len(merged)
    # incremental: generation-0 files were NOT rewritten (no full rebuild)
    for f, m in gen0_mtimes.items():
        assert (
            os.path.getmtime(os.path.join(idx.index_dir, "gen=0", "postings", f))
            == m
        )
    # queries now reflect the merged corpus (latest text per doc_id)
    _assert_index_matches(idx, _oracle_over(tmp_path, merged, "snap2"))


def test_compact_preserves_queries(ray_session, tmp_path, corpus):
    sub1, sub2, merged = corpus
    idx = SearchIndex.create(str(tmp_path / "idx_c"))
    idx.update(_docs_table(sub1))
    idx.update(_docs_table(sub2))
    before = (
        idx.topk(TERMS),
        sorted(idx.and_terms(TERMS).column("doc_id").to_pylist()),
        idx.term_df().sort_by("term"),
    )
    out = idx.compact()
    assert out["compacted"] and len(idx.meta["generations"]) == 1
    assert idx.meta["live_docs"] == len(merged)
    assert len(idx._last_gen_map()[0]) == 0  # supersede map emptied
    assert idx.topk(TERMS).equals(before[0])
    assert sorted(idx.and_terms(TERMS).column("doc_id").to_pylist()) == before[1]
    assert idx.term_df().sort_by("term").equals(before[2])
    # reopen from disk: the commit is durable
    idx2 = SearchIndex.open(idx.index_dir)
    assert idx2.topk(TERMS).equals(before[0])


# one query string per Whoosh form: bare terms, field-restricted, phrase,
# nested boolean, wildcard
FIVE_FORMS = (
    "customer join",
    "title:customer content:window",
    'content:"customer join"',
    "(customer OR join) AND (window OR title:stream) AND NOT robots",
    "cust* AND join",
)


def test_driver_sized_queries_run_no_ray_data_execution(
    ray_session, tmp_path, corpus, executions, monkeypatch
):
    """Every query reads its postings on the driver: zero Ray Data
    executions, even across an upsert (so the live filter runs on the
    driver read too).  Repeated on the now-warm handle, the same queries
    open no parquet file at all: no ``pq.read_table`` and no footer read.
    With ``DRIVER_ROW_LIMIT`` at 8 rows the readers evict each other, and
    every query still runs no Ray Data execution and answers the same."""
    sub1, sub2, _ = corpus
    idx = SearchIndex.create(str(tmp_path / "idx_drv"))
    idx.update(_docs_table(sub1))
    idx.update(_docs_table(sub2))

    def run_all():
        out = [idx.search(q, k=5) for q in FIVE_FORMS]
        assert all(t.num_rows for t in out)
        return out + [
            idx.topk(TERMS),
            idx.topk_bm25f(TERMS),
            idx.and_terms(TERMS),
            idx.term_df(),
            idx.query_df(TERMS),
        ]

    def same(a, b) -> bool:
        return all(x.equals(y) for x, y in zip(a[:-1], b[:-1])) and a[-1] == b[-1]

    executions.clear()
    cold = run_all()
    assert executions == []
    opened = []
    for name in ("read_table", "read_metadata"):
        orig = getattr(pq, name)
        monkeypatch.setattr(
            pq, name, lambda *a, _o=orig, **kw: opened.append(a) or _o(*a, **kw)
        )
    warm = run_all()
    assert opened == [] and executions == []
    assert same(cold, warm)
    monkeypatch.setattr(search_index, "DRIVER_ROW_LIMIT", 8)
    evicting = run_all()
    assert opened and executions == []
    assert same(cold, evicting)
    assert idx._held_rows <= 8


def test_scan_past_the_row_limit_keeps_readers_warm(
    ray_session, tmp_path, corpus, monkeypatch
):
    """A ``term_df`` scan over more postings rows than ``DRIVER_ROW_LIMIT``
    keeps the readers that fit held: a repeat reads only the files that did
    not fit (evicting to make room would evict each file before the next
    scan reaches it, and re-read them all) and answers the same."""
    sub1, sub2, _ = corpus
    built = SearchIndex.create(str(tmp_path / "idx"))
    built.update(_docs_table(sub1))
    built.update(_docs_table(sub2))
    idx = SearchIndex.open(built.index_dir)
    files = idx._all_files("postings")
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    monkeypatch.setattr(search_index, "DRIVER_ROW_LIMIT", rows // 2)
    first = idx.term_df()
    read = []
    orig = pq.read_table
    monkeypatch.setattr(
        pq, "read_table", lambda *a, **kw: read.append(a[0]) or orig(*a, **kw)
    )
    assert idx.term_df().equals(first)
    assert 0 < len(read) < len(files)
    assert idx._held_rows <= rows // 2


def _all_answers(idx: SearchIndex) -> list:
    """Every query form's answer over ``idx``: the five Whoosh forms plus a
    bare and a title-scoped phrase (``pos``/``pos_title``), ``topk``,
    ``topk_bm25f``, ``and_terms`` and ``query_df``."""
    out = [
        idx.search(q, k=8)
        for q in FIVE_FORMS + ('"join window"', 'title:"customer join"')
    ]
    return out + [
        idx.topk(TERMS, k=12),
        idx.topk_bm25f(TERMS, k=12),
        idx.and_terms(TERMS),
        idx.query_df(TERMS),
    ]


@pytest.mark.parametrize("evict", [False, True])
def test_warm_handle_answers_like_a_fresh_open(
    ray_session, tmp_path, corpus, monkeypatch, evict
):
    """A long-lived handle, driven through upserts that re-use doc_ids and
    through compactions, answers every query form exactly like a handle
    freshly opened on the same directory: its readers never serve a
    superseded row or a deleted generation.  With ``DRIVER_ROW_LIMIT``
    below the index's postings rows, readers are evicted and re-read, and
    the rows they hold never pass the limit; at the default limit no
    postings file is ever read twice."""
    sub1, sub2, _ = corpus
    idx = SearchIndex.create(str(tmp_path / "idx_warm"))
    loads: list[str] = []

    class CountedReader(search_index._PostingsReader):
        def __init__(self, path):
            loads.append(path)
            super().__init__(path)

    monkeypatch.setattr(search_index, "_PostingsReader", CountedReader)
    # later submissions re-use doc_ids of earlier ones with other text
    rewrite = {i: " ".join(sub1[i].split()[::-1]) + " window" for i in range(0, 60, 4)}
    again = {**{i: sub2[i] for i in range(60, 70)}, 90: "customer join"}
    steps = [
        lambda: idx.update(_docs_table(sub1)),
        lambda: idx.update(_docs_table(sub2)),
        lambda: idx.update(_docs_table(rewrite)),
        idx.compact,
        lambda: idx.update(_docs_table(again)),
        idx.compact,
    ]
    seen: set[str] = set()
    reloads = 0
    for i, step in enumerate(steps):
        step()
        if evict and i == 0:
            total = sum(pq.read_metadata(f).num_rows for f in idx._all_files("postings"))
            monkeypatch.setattr(search_index, "DRIVER_ROW_LIMIT", total // 3)
        for _ in range(2):  # the first pass loads readers, the second is warm
            want = _all_answers(SearchIndex.open(idx.index_dir))
            loads.clear()
            got = _all_answers(idx)
            for a, b in zip(got[:-1], want[:-1]):
                assert a.equals(b), i
            assert got[-1] == want[-1], i
            reloads += sum(p in seen for p in loads)
            seen.update(loads)
            held = sum(r.rows for r in idx._readers.values())
            assert held == idx._held_rows <= search_index.DRIVER_ROW_LIMIT
    assert (reloads > 0) if evict else (reloads == 0)


def _stored(text: str, source: str, doc_id: int) -> dict:
    """The stored result fields ``update()`` keeps for one submitted doc."""
    return {
        "url": search.derive_url(doc_id, source),
        "title": text[: search.TITLE_CHARS],
        "domain": source,
        "crawl_date": search.derive_crawl_date(doc_id),
        "snippet": text[: search.SNIPPET_CHARS],
    }


def _submit(idx: SearchIndex, docs: dict[int, tuple[str, str]]) -> None:
    ids = sorted(docs)
    idx.update(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array([docs[i][0] for i in ids], pa.string()),
                "source": pa.array([docs[i][1] for i in ids], pa.string()),
            }
        )
    )


def _assert_fields(t: pa.Table, live: dict[int, tuple[str, str]]) -> None:
    """Every row of a result table is a live doc with its last-submitted
    stored fields (every field the table has)."""
    for row in t.to_pylist():
        want = _stored(*live[row["doc_id"]], row["doc_id"])
        assert all(row[c] == want[c] for c in want if c in row), row


def test_upsert_and_compact_serve_the_new_stored_fields(ray_session, tmp_path):
    """An upsert that re-uses doc_ids with another text and source changes
    their stored title, domain, snippet and url (``crawl_date`` derives
    from the doc_id); the handle that answered before the upsert, its doc
    directory built, answers ``search``/``topk``/``topk_bm25f`` with the new
    generation's fields, and again after ``compact()`` deleted the old
    generations' files."""
    idx = SearchIndex.create(str(tmp_path / "idx_fields"))
    live = {i: (f"window join number {i} " + "x" * i, "old.example") for i in range(8)}
    _submit(idx, live)
    queries = [
        lambda: idx.search("window", k=5),
        lambda: idx.search('title:"window join"', k=8),
        lambda: idx.topk(["window", "customer"], k=12),
        lambda: idx.topk_bm25f(["join"], k=12),
    ]
    for q in queries:
        _assert_fields(q(), live)
    again = {i: (f"customer window news {i} " + "y" * 70, "new.example") for i in (1, 4, 6)}
    _submit(idx, again)
    live.update(again)
    for step in (lambda: None, idx.compact):
        step()
        for q in queries:
            t = q()
            assert t.num_rows
            _assert_fields(t, live)
        assert set(queries[2]().column("doc_id").to_pylist()) == set(live)


_WORDS = ["customer", "join", "window", "stream", "data"]
_SUBMISSION = st.dictionaries(
    st.integers(0, 11),
    st.tuples(
        st.lists(st.sampled_from(_WORDS), max_size=14).map(" ".join),
        st.sampled_from(["a.example", "b.example", "unknown"]),
    ),
    min_size=1,
    max_size=6,
)
_SEARCHES = ["window OR customer", 'title:"customer join" OR stream', "cust* AND NOT data"]
_TOPKS = [
    ("topk", []),
    ("topk_bm25f", []),
    ("topk", ["window", "join"]),
    ("topk", ["nosuchterm"]),
    ("topk_bm25f", ["customer", "stream"]),
]


@pytest.mark.parametrize("evict", [False, True])
def test_stored_fields_match_brute_force_across_upserts(
    ray_session, tmp_path, monkeypatch, evict
):
    """Upserts that re-use doc_ids, interleaved with ``compact()``: after
    every step each answer equals a freshly opened handle's and holds each
    doc's last-submitted fields; a top-k ranks its scoring docs, then the
    smallest other live doc_ids ascending (every live doc when ``k``
    passes the live count); ``live_docs`` and ``total_dl`` equal their
    recount over the last submissions, and so do ``and_terms`` and
    ``term_df``.  With ``DRIVER_ROW_LIMIT`` at 8 rows, readers are evicted
    (and read back from parquet) while the doc directory that names their
    rows is live."""
    import tempfile
    from collections import Counter

    if evict:
        monkeypatch.setattr(search_index, "DRIVER_ROW_LIMIT", 8)

    @given(st.lists(st.one_of(st.just("compact"), _SUBMISSION), min_size=1, max_size=5))
    @settings(max_examples=15 if evict else 25, deadline=None)
    def run(steps):
        idx = SearchIndex.create(tempfile.mkdtemp(dir=tmp_path), n_parts=4, n_dparts=3)
        live: dict[int, tuple[str, str]] = {}
        for step in steps:
            if step == "compact":
                idx.compact()
            else:
                _submit(idx, step)
                live.update(step)
            fresh = SearchIndex.open(idx.index_dir)
            assert idx.meta["live_docs"] == len(live)
            assert idx.meta["total_dl"] == sum(
                search.BOOST_TITLE * len(search.tokenize(text[: search.TITLE_CHARS]))
                + len(search.tokenize(text))
                for text, _ in live.values()
            )
            for k in (2, len(live) + 2):
                for q in _SEARCHES:
                    got = idx.search(q, k=k)
                    assert got.equals(fresh.search(q, k=k)), q
                    _assert_fields(got, live)
                for m, terms in _TOPKS:
                    got = getattr(idx, m)(terms, k=k)
                    assert got.equals(getattr(fresh, m)(terms, k=k)), (m, terms)
                    _assert_fields(got, live)
                    ids, scores = got["doc_id"].to_pylist(), got["score"].to_pylist()
                    hit = [d for d, s in zip(ids, scores) if s > 0]
                    assert ids == hit + sorted(set(live) - set(hit))[: k - len(hit)]
            tokens = {d: set(search.tokenize(text)) for d, (text, _) in live.items()}
            for terms in (["window", "join"], ["customer", "customer"], ["stream", "nosuchterm"]):
                want = sorted(d for d, ts in tokens.items() if ts >= set(terms))
                assert idx.and_terms(terms)["doc_id"].to_pylist() == want, terms
            df = Counter(t for ts in tokens.values() for t in ts)
            got = idx.term_df()
            assert dict(zip(got["term"].to_pylist(), got["df"].to_pylist())) == df
            assert got["term"].to_pylist() == sorted(df)
            held = sum(r.rows for r in idx._readers.values())
            assert held == idx._held_rows <= search_index.DRIVER_ROW_LIMIT

    run()


def _same_arrays(a, b) -> bool:
    """Two readers of one file hold equal arrays (positions included)."""
    if isinstance(a, search_index._DocsReader):
        return a.table.equals(b.table)
    pos_a, pos_b = a.positions(), b.positions()
    return (
        list(a.terms) == list(b.terms)
        and np.array_equal(a.starts, b.starts)
        and all(np.array_equal(a.cols[c], b.cols[c]) for c in a.cols)
        and all(pos_a[c].equals(pos_b[c]) for c in pos_a)
    )


@pytest.mark.parametrize("driver_write", [True, False])
def test_writing_handle_answers_without_opening_a_file(
    ray_session, tmp_path, corpus, monkeypatch, driver_write
):
    """After each ``update()`` and ``compact()`` on the driver write path,
    the handle that wrote the index answers every query form from the
    tables it wrote: no ``pq.read_table``, footer read or ``ParquetFile``,
    and every answer equals a freshly opened handle's.  A written table
    decodes into the arrays a parquet read gives.  With
    ``DRIVER_WRITE_DOCS = 0`` the parts are written by Ray tasks, the handle
    reads them from parquet and answers the same."""
    if not driver_write:
        monkeypatch.setattr(search_index, "DRIVER_WRITE_DOCS", 0)
    sub1, sub2, _ = corpus
    idx = SearchIndex.create(str(tmp_path / "idx_wt"), stem=True)
    rewrite = {i: " ".join(sub1[i].split()[::-1]) + " join" for i in range(0, 60, 3)}
    again = {**{i: sub2[i] for i in range(60, 70)}, 91: "customer window"}
    steps = [
        lambda: idx.update(_docs_table(sub1)),
        lambda: idx.update(_docs_table(sub2)),
        lambda: idx.update(_docs_table(rewrite)),
        idx.compact,
        lambda: idx.update(_docs_table(again)),
        lambda: idx.update(_docs_table(rewrite)),
        idx.compact,
    ]
    opened = []
    for name in ("read_table", "read_metadata", "ParquetFile"):
        orig = getattr(pq, name)
        monkeypatch.setattr(
            pq, name, lambda *a, _o=orig, **kw: opened.append(a) or _o(*a, **kw)
        )
    for i, step in enumerate(steps):
        step()
        held = sum(r.rows for r in idx._readers.values())
        assert held == idx._held_rows <= search_index.DRIVER_ROW_LIMIT, i
        for path, entry in list(idx._readers.items()):
            if isinstance(entry, search_index._Written) and "part_" in path:
                kind = (
                    search_index._DocsReader
                    if "dpart_" in path
                    else search_index._PostingsReader
                )
                assert _same_arrays(kind.from_table(path, entry.table), kind(path)), path
        want = _all_answers(SearchIndex.open(idx.index_dir))
        opened.clear()
        got = _all_answers(idx)
        assert (opened == []) if driver_write else opened, i
        for a, b in zip(got[:-1], want[:-1]):
            assert a.equals(b), i
        assert got[-1] == want[-1], i


def test_stemmed_index_matches_both_sides(ray_session, tmp_path):
    """A stem=True index stems document tokens at build time and query terms
    at query time (the v3 StemmingAnalyzer contract) — inflected variants
    match; an unstemmed index does not match them (r3 review: stemming only
    the query against an unstemmed index silently missed everything)."""
    rows = {
        1: "joining customers windows",
        2: "join customer window",
        3: "nothing relevant at all",
    }
    stemmed = SearchIndex.create(str(tmp_path / "idx_stem"), stem=True)
    stemmed.update(_docs_table(rows))
    plain = SearchIndex.create(str(tmp_path / "idx_plain"))
    plain.update(_docs_table(rows))
    q = ["customer", "join", "window"]  # raw terms; the index preps them
    assert sorted(
        stemmed.and_terms(q).column("doc_id").to_pylist()
    ) == [1, 2]
    assert plain.and_terms(q).column("doc_id").to_pylist() == [2]
    t = stemmed.topk(q, k=3)
    by_doc = dict(zip(t.column("doc_id").to_pylist(), t.column("score").to_pylist()))
    assert by_doc[1] > 0 and by_doc[2] > 0 and by_doc[3] == 0
    # inflected QUERY terms stem to the same stems and match too
    assert sorted(
        stemmed.and_terms(["customers", "joins", "windows"])
        .column("doc_id")
        .to_pylist()
    ) == [1, 2]


def test_stemmed_index_equals_direct_stemmed_pipeline(ray_session, tmp_path):
    """A stem=True index over the sf0.001 corpus reproduces the
    search_topk_stemmed oracle (a direct DuckDB recompute over stemmed
    tokens) row for row, in rank order."""
    sf = "/root/testdata/sf0.001"
    idx = SearchIndex.create(str(tmp_path / "idx_v3"), stem=True)
    idx.update(sf + "/documents.parquet")
    got = idx.topk(list(search.QUERY_TERMS), search.TOP_K)
    assert table_rows(got) == oracle_rows("search_topk_stemmed", sf)


def test_within_submission_duplicate_doc_ids_collapse(ray_session, tmp_path):
    """Duplicate doc_ids in ONE submission collapse to a single row
    (deterministic content-hash tiebreak) — without this, duplicate
    same-generation postings broke AND counts and double-counted tf."""
    import pyarrow as pa

    idx = SearchIndex.create(str(tmp_path / "idx_dup"))
    tbl = pa.table(
        {
            "doc_id": pa.array([7, 7, 8], pa.int64()),
            "text": pa.array(
                ["customer join window", "customer join window", "customer join"],
                pa.string(),
            ),
        }
    )
    stats = idx.update(tbl)
    assert stats["n_docs"] == 2 and idx.meta["live_docs"] == 2
    assert idx.and_terms(TERMS).column("doc_id").to_pylist() == [7]
    t = idx.topk(TERMS, k=2)
    by_doc = dict(zip(t.column("doc_id").to_pylist(), t.column("score").to_pylist()))
    # tf counted once, not doubled: doc 7's tf vector is (1,1,1)
    df = idx.query_df(list(TERMS))
    n = idx.meta["live_docs"]
    from distributed_web_crawling_system_ray.pipelines.search import IDF_SCALE

    want7 = sum((n * IDF_SCALE) // df[q] for q in TERMS)
    assert by_doc[7] == want7


def test_zero_match_query_pads_with_ascending_ids(ray_session, tmp_path):
    rows = {i: "alpha beta gamma" for i in range(5)}
    idx = SearchIndex.create(str(tmp_path / "idx_z"))
    idx.update(_docs_table(rows))
    t = idx.topk(["nosuchterm"], k=3)
    assert t.column("doc_id").to_pylist() == [0, 1, 2]
    assert t.column("score").to_pylist() == [0, 0, 0]
    assert t.column("snippet").to_pylist() == ["alpha beta gamma"] * 3


def test_k_counts_rows_and_rejects_negative_values(ray_session, tmp_path):
    """``k = 0`` gives no row, ``k < 0`` raises (it would slice off the last
    answers), and ``k`` past the live count gives every live doc, on an
    index whose re-used ids leave fewer live docs than submitted rows."""
    idx = SearchIndex.create(str(tmp_path / "idx_k"))
    idx.update(_docs_table({i: "alpha beta" + " gamma" * (i % 2) for i in range(6)}))
    idx.update(_docs_table({4: "alpha gamma", 5: "alpha"}))
    queries = [
        lambda k: idx.topk(["gamma"], k=k),
        lambda k: idx.topk_bm25f(["gamma"], k=k),
        lambda k: idx.search("alpha", k=k),
    ]
    for q in queries:
        assert q(0).num_rows == 0
        with pytest.raises(ValueError, match="k must be >= 0"):
            q(-1)
        assert sorted(q(100)["doc_id"].to_pylist()) == list(range(6))
    t = idx.topk(["gamma"], k=4)
    assert t["doc_id"].to_pylist() == [1, 3, 4, 0]
    assert t["score"].to_pylist()[2:] == [t["score"][0].as_py(), 0]


def test_update_from_parquet_directory(ray_session, tmp_path):
    """A directory of parquet files is a valid ``update()`` source (r4
    advice: the source-column probe must not assume a single file)."""
    d = tmp_path / "docs_dir"
    d.mkdir()
    pq.write_table(
        _docs_table({0: "customer join window", 1: "alpha beta"}),
        str(d / "part_0.parquet"),
    )
    pq.write_table(
        _docs_table({2: "window window join", 3: "gamma delta"}),
        str(d / "part_1.parquet"),
    )
    idx = SearchIndex.create(str(tmp_path / "idx_dir"))
    st = idx.update(str(d))
    assert st["n_docs"] == 4
    assert idx.meta["live_docs"] == 4
    assert sorted(idx.and_terms(["join", "window"]).column("doc_id").to_pylist()) == [0, 2]


def test_vocabulary_sidecar_and_fallback(ray_session, tmp_path, corpus):
    """update() writes one vocab file per generation (the wildcard
    expansion domain); _vocabulary equals the distinct indexed terms and
    survives compaction.  An index in an older on-disk format, whose
    postings are not term-sorted, is refused by open() rather than read."""
    import json
    import os

    sub1 = corpus[0]
    idx = SearchIndex.create(str(tmp_path / "idx_vocab"))
    idx.update(_docs_table(sub1))
    want = sorted(
        {
            t
            for text in sub1.values()
            for t in search._TOKEN.findall(text.lower())
            + search._TOKEN.findall(text[: search.TITLE_CHARS].lower())
        }
    )
    gd = idx._gen_dir(0)
    assert "vocab.parquet" in os.listdir(gd) and not os.path.exists(
        os.path.join(gd, "vocab")
    )
    assert pq.read_table(os.path.join(gd, "vocab.parquet")).column(
        "term"
    ).to_pylist() == want
    assert list(idx._vocabulary()) == want
    assert idx._expand_wildcard("custom*") == [
        t for t in want if t.startswith("custom")
    ]
    # wildcard search answers from the vocab file
    got = idx.search("custom*", k=5)
    assert got.num_rows == 5

    # survives compaction (two generations -> one)
    idx.update(_docs_table({i: "zebra " + sub1[i] for i in range(3)}))
    idx.compact()
    assert "zebra" in set(idx._vocabulary())
    assert set(want) <= set(idx._vocabulary())

    # an older format is refused, not misread
    meta_path = os.path.join(idx.index_dir, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["format"] = search_index.INDEX_FORMAT_VERSION - 1
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="rebuild"):
        SearchIndex.open(idx.index_dir)


def _per_doc_postings(docs: pa.Table, stem: bool) -> pa.Table:
    """The postings rows of ``docs`` built one doc at a time from
    ``search.tokenize``: the reference ``_postings`` is pinned to."""
    rows = []
    for did, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        fields = [
            search.tokenize(text, stem),
            search.tokenize(text[: search.TITLE_CHARS], stem),
        ]
        pos = [{}, {}]
        for f, toks in enumerate(fields):
            for p, tok in enumerate(toks):
                pos[f].setdefault(tok, []).append(p)
        dl = search.BOOST_TITLE * len(fields[1]) + len(fields[0])
        for t in pos[0].keys() | pos[1].keys():
            c, ti = pos[0].get(t, []), pos[1].get(t, [])
            rows.append((t, did, len(c), len(ti), dl, c, ti, search_index._term_part(t, 32)))
    rows.sort(key=lambda r: (r[0], r[1]))
    types = {
        "term": pa.string(), "doc_id": pa.int64(), "tf": pa.int64(),
        "tf_title": pa.int64(), "dl": pa.int64(), "pos": pa.list_(pa.int32()),
        "pos_title": pa.list_(pa.int32()), "part": pa.int32(),
    }
    return pa.table(
        {c: pa.array([r[i] for r in rows], ty) for i, (c, ty) in enumerate(types.items())}
    )


def _kernel_rows(docs: pa.Table, stem: bool) -> pa.Table:
    post, _ = search_index._postings(docs, stem, 32, 16)
    return post.sort_by([("term", "ascending"), ("doc_id", "ascending")])


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01"])
@pytest.mark.parametrize("stem", [False, True])
def test_postings_kernel_matches_per_doc_tokenize(sf, stem):
    """``_postings`` gives exactly the rows of a per-doc build from
    ``search.tokenize`` on the test corpora, and its doc rows carry the
    per-doc token counts, dl and stored fields."""
    docs = pq.read_table(
        f"/root/testdata/{sf}/documents.parquet", columns=["doc_id", "text", "source"]
    )
    # shuffled: the kernel may not lean on the input's doc_id order
    docs = docs.take(np.random.default_rng(0).permutation(docs.num_rows))
    assert _kernel_rows(docs, stem).equals(_per_doc_postings(docs, stem))
    rows = search_index._postings(docs, stem, 32, 16)[1]
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    for r in rows.to_pylist():
        text = texts[r["doc_id"]]
        n_title = len(search.tokenize(text[: search.TITLE_CHARS]))
        assert r["n_tokens"] == len(search.tokenize(text))
        assert r["dl"] == search.BOOST_TITLE * n_title + r["n_tokens"]
        assert r["snippet"] == text[: search.SNIPPET_CHARS]
        assert r["title"] == text[: search.TITLE_CHARS]
        assert r["crawl_date"] == search.derive_crawl_date(r["doc_id"])
        assert r["dpart"] == r["doc_id"] % 16


_UNICODE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("İıKÅßΣσς\u0307\u0301\u00a0\u2028 \t\n_-.,AZaz09")),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=120,
)


@given(st.lists(_UNICODE_TEXT, min_size=1, max_size=6), st.booleans())
@settings(max_examples=200, deadline=None)
@example(["İx aİb", "\u212aelvin KELVIN"], False)
@example(["e\u0301t\u00e9 stra\u00dfe", "x" * 63 + "İy"], True)
def test_postings_kernel_unicode(texts, stem):
    """On arbitrary Unicode text (``İ``, which Python lowers to two code
    points, the Kelvin sign, combining marks, Unicode whitespace) the
    kernel tokenizes exactly like ``search.tokenize``."""
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    assert _kernel_rows(docs, stem).equals(_per_doc_postings(docs, stem))


def test_driver_sized_update_and_compact_run_no_ray_data_execution(
    ray_session, tmp_path, corpus, executions
):
    """A submission within ``DRIVER_WRITE_DOCS`` is indexed, and an index
    within it compacted, with zero Ray Data executions, from a table and
    from a parquet path alike."""
    sub1, sub2, merged = corpus
    path = tmp_path / "sub2.parquet"
    pq.write_table(_docs_table(sub2), str(path))
    executions.clear()
    idx = SearchIndex.create(str(tmp_path / "idx_nx"))
    idx.update(_docs_table(sub1))
    assert idx.update(str(path))["n_upserts"] == 15
    idx.compact()
    assert executions == []
    assert idx.meta["live_docs"] == len(merged)
    _assert_index_matches(idx, _oracle_over(tmp_path, merged, "snap_nx"))


def test_dataset_write_path_writes_the_same_files(
    ray_session, tmp_path, corpus, executions, monkeypatch
):
    """With ``DRIVER_WRITE_DOCS = 0`` update() runs ``_postings`` inside
    ``map_batches`` and compact() merges partitions in plain Ray tasks (one
    per partition, no Ray Data execution); every file they write is
    ``Table.equals`` to the driver path's, file by file, and every query
    form answers the same."""
    sub1, sub2, _ = corpus
    rewrite = {i: " ".join(sub1[i].split()[::-1]) for i in range(0, 60, 5)}

    def build(name: str) -> SearchIndex:
        idx = SearchIndex.create(str(tmp_path / name), stem=True)
        for sub in (sub1, sub2, rewrite):
            idx.update(_docs_table(sub))
        return idx

    def files(idx: SearchIndex) -> dict:
        return {
            os.path.relpath(os.path.join(d, f), idx.index_dir): pq.read_table(
                os.path.join(d, f)
            )
            for d, _, fs in os.walk(idx.index_dir)
            for f in fs
            if f.endswith(".parquet")
        }

    driver = build("idx_drv_w")
    monkeypatch.setattr(search_index, "DRIVER_WRITE_DOCS", 0)
    executions.clear()
    dataset = build("idx_ds_w")
    assert len(executions) >= 3
    for stage in ("update", "compact"):
        if stage == "compact":
            driver.compact()
            executions.clear()
            tasks = []
            submit = exchange._submit

            def counted(fn, args, *rest):
                tasks.extend(args)
                return submit(fn, args, *rest)

            monkeypatch.setattr(exchange, "_submit", counted)
            dataset.compact()
            assert executions == []
            assert len(tasks) >= 2  # non-vacuous: postings and docs partitions
        want, got = files(driver), files(dataset)
        assert sorted(want) == sorted(got), stage
        for name, t in want.items():
            assert got[name].equals(t), (stage, name)
        assert driver.meta == dataset.meta, stage
        for a, b in zip(_all_answers(driver), _all_answers(dataset)):
            assert a == b if isinstance(a, dict) else a.equals(b), stage
        assert driver.term_df().equals(dataset.term_df()), stage


def test_index_for_keeps_a_warm_handle(ray_session, tmp_path, monkeypatch):
    """``index_for`` serves the handle that built the index, moved to the
    cache dir, so even the first entry query after the build opens no
    parquet file, and returns the same handle for the same source stamp;
    its answers equal a freshly opened handle's.  A changed source gets a
    rebuilt index and a new handle."""
    monkeypatch.setattr(search_index, "_INDEX_CACHE_ROOT", str(tmp_path / "cache"))
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        _docs_table({0: "customer join window", 1: "join the window"}),
        str(sf / "documents.parquet"),
    )
    idx = search_index.index_for(str(sf), stem=True)
    opened = []
    for name in ("read_table", "read_metadata", "ParquetFile"):
        orig = getattr(pq, name)
        monkeypatch.setattr(
            pq, name, lambda *a, _o=orig, **kw: opened.append(a) or _o(*a, **kw)
        )
    got = [search_index.search_field_query(str(sf)) for _ in range(2)]
    assert search_index.index_for(str(sf), stem=True) is idx
    assert opened == []
    monkeypatch.undo()
    want = SearchIndex.open(idx.index_dir).search(search.FIELD_QUERY, k=search.BM25_TOP_K)
    assert got[0].num_rows and all(t.equals(want) for t in got)
    monkeypatch.setattr(search_index, "_INDEX_CACHE_ROOT", str(tmp_path / "cache"))
    pq.write_table(
        _docs_table({0: "customer join window", 2: "window"}),
        str(sf / "documents.parquet"),
    )
    os.utime(sf / "documents.parquet", ns=(1, 1))
    fresh = search_index.index_for(str(sf), stem=True)
    assert fresh is not idx and fresh.meta["live_docs"] == 2
