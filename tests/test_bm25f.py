"""BM25F search surface (reference: searcher(weighting=scoring.BM25F) +
MultifieldParser(["title","content"]) with stored result fields,
indexer/indexer_node.py:63-70,151-183).

Contract under test:
- parse_query: the MultifieldParser stand-in — DNF (OR of AND-groups),
  NOT negation, title:/content: field restriction, uppercase operators.
- indexed topk_bm25f reproduces the search_topk_bm25f DuckDB oracle (a
  direct recompute over the documents) row for row: same integer scores,
  same stored fields.
- SearchIndex.search(query_str): field-restricted matching + scoring equals
  a brute-force in-test reference over the same corpus.
- stats(): the reference's document_count / index_size surface.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import oracle_rows, table_rows

from distributed_web_crawling_system_ray.pipelines import search, search_index
from distributed_web_crawling_system_ray.pipelines.search import (
    BOOST_TITLE,
    IDF_SCALE,
    TITLE_CHARS,
    _TOKEN,
    Wildcard,
    bm25f_contribution,
    parse_query,
)
from distributed_web_crawling_system_ray.pipelines.search_index import SearchIndex


# ------------------------------------------------------------- parse_query


def test_parse_query_bare_terms_and_group():
    assert parse_query("foo bar") == [[(None, "foo", False), (None, "bar", False)]]
    assert parse_query("foo AND bar") == [
        [(None, "foo", False), (None, "bar", False)]
    ]


def test_parse_query_or_groups():
    assert parse_query("title:foo OR content:bar") == [
        [("title", "foo", False)],
        [("content", "bar", False)],
    ]
    # empty groups from doubled OR are dropped
    assert parse_query("foo OR OR bar") == [
        [(None, "foo", False)],
        [(None, "bar", False)],
    ]


def test_parse_query_not_and_case():
    assert parse_query("foo AND NOT bar") == [
        [(None, "foo", False), (None, "bar", True)]
    ]
    # lowercase operators are plain terms (Whoosh default)
    assert parse_query("foo and not bar") == [
        [
            (None, "foo", False),
            (None, "and", False),
            (None, "not", False),
            (None, "bar", False),
        ]
    ]


def test_parse_query_field_and_tokenization():
    # unknown field prefix is text; multi-token words explode in place
    assert parse_query("xyz:foo") == [[(None, "xyz", False), (None, "foo", False)]]
    assert parse_query("title:foo-bar") == [
        [("title", "foo", False), ("title", "bar", False)]
    ]
    assert parse_query("NOT foo-bar baz") == [
        [(None, "foo", True), (None, "bar", True), (None, "baz", False)]
    ]
    assert parse_query("") == []


def test_parse_query_parens_distribute():
    assert parse_query("(a OR b) AND c") == [
        [(None, "a", False), (None, "c", False)],
        [(None, "b", False), (None, "c", False)],
    ]
    assert parse_query("(a OR (b AND d)) AND (c OR e)") == [
        [(None, "a", False), (None, "c", False)],
        [(None, "a", False), (None, "e", False)],
        [(None, "b", False), (None, "d", False), (None, "c", False)],
        [(None, "b", False), (None, "d", False), (None, "e", False)],
    ]
    # unbalanced parens degrade gracefully
    assert parse_query("(a OR b") == [[(None, "a", False)], [(None, "b", False)]]
    assert parse_query("a) b") == [[(None, "a", False), (None, "b", False)]]


def test_parse_query_not_groups_de_morgan():
    # NOT (a OR b) -> NOT a AND NOT b; NOT (a b) -> NOT a OR NOT b
    assert parse_query("c NOT (a OR b)") == [
        [(None, "c", False), (None, "a", True), (None, "b", True)]
    ]
    assert parse_query("c NOT (a b)") == [
        [(None, "c", False), (None, "a", True)],
        [(None, "c", False), (None, "b", True)],
    ]
    assert parse_query("NOT NOT a b") == [
        [(None, "a", False), (None, "b", False)]
    ]


def test_parse_query_phrases():
    assert parse_query('"customer join"') == [
        [(None, ("customer", "join"), False)]
    ]
    assert parse_query('title:"foo bar" AND baz') == [
        [("title", ("foo", "bar"), False), (None, "baz", False)]
    ]
    # one-token phrase degrades to a plain term; empty phrase drops
    assert parse_query('"x" y ""') == [
        [(None, "x", False), (None, "y", False)]
    ]
    # negated phrase stays a single excluded unit
    assert parse_query('a NOT "b c"') == [
        [(None, "a", False), (None, ("b", "c"), True)]
    ]


def test_parse_query_wildcards():
    """* / ? produce Wildcard leaves (Whoosh WildcardPlugin); field
    prefixes apply; a bare all-wildcard token is noise; patterns keep only
    token chars plus * and ?."""
    got = parse_query("cust* AND title:s?rt NOT wind*")
    assert got == [
        [
            (None, "cust*", False),
            ("title", "s?rt", False),
            (None, "wind*", True),
        ]
    ]
    assert all(
        isinstance(t, Wildcard) for grp in got for _, t, _ in grp
    )
    assert parse_query("* AND data") == [[(None, "data", False)]]
    # punctuation splits like the word path (tokenizer-consistent): the
    # non-wildcard piece is a plain term, the wildcard piece a pattern
    assert parse_query("Cu-st*") == [[(None, "cu", False), (None, "st*", False)]]
    # an unrecognized field prefix becomes its own term beside the pattern
    assert parse_query("XYZ:cust*") == [
        [(None, "xyz", False), (None, "cust*", False)]
    ]
    # vacuous NOT before an operator must not crash or fabricate leaves
    assert parse_query("a NOT OR b") == [[(None, "a", False)], [(None, "b", False)]]
    assert parse_query("a NOT AND b") == [[(None, "a", False), (None, "b", False)]]
    assert parse_query("(a NOT) b") == [[(None, "a", False), (None, "b", False)]]


def test_parse_query_field_prefix_case_sensitive():
    # Whoosh field names are case-sensitive (r4 advice): TITLE: is text
    assert parse_query("TITLE:foo") == [
        [(None, "title", False), (None, "foo", False)]
    ]


def test_parse_query_bounded():
    """Adversarial input costs bounded time and memory: 18 ANDed
    ``(a OR b)`` groups would expand to 2**18 = 262,144 DNF groups, and
    3,000 nested parens or NOTs overflowed the recursion — all three raise
    the documented ValueError instead.  Queries at the caps still parse."""
    with pytest.raises(ValueError, match="AND-groups"):
        parse_query(" AND ".join(["(a OR b)"] * 18))
    with pytest.raises(ValueError, match="AND-groups"):
        parse_query(" OR ".join(["a"] * 4097))
    with pytest.raises(ValueError, match="nesting"):
        parse_query("(" * 3000 + "a" + ")" * 3000)
    with pytest.raises(ValueError, match="nesting"):
        parse_query("NOT " * 3000 + "a")
    assert len(parse_query(" AND ".join(["(a OR b)"] * 12))) == 4096
    assert len(parse_query(" OR ".join(["a"] * 4096))) == 4096
    assert parse_query("(" * 64 + "a" + ")" * 64) == [[(None, "a", False)]]
    assert parse_query("NOT " * 64 + "a b") == [
        [(None, "a", False), (None, "b", False)]
    ]


# --------------------------------------------------------------- fixtures


def _docs_table(rows: dict[int, str]) -> pa.Table:
    ids = sorted(rows)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array([rows[i] for i in ids], pa.string()),
            "source": pa.array([f"src{i % 3}" for i in ids], pa.string()),
        }
    )


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(41)
    vocab = [
        "customer", "join", "window", "stream", "table", "query", "index",
        "crawl", "page", "robots", "the", "a", "of", "data", "joining",
        "windows", "customers",
    ]
    return {
        i: " ".join(rng.choice(vocab, size=rng.integers(3, 60)))
        for i in range(80)
    }


# ------------------------------------------------- indexed vs the oracle


def test_indexed_bm25f_matches_direct(ray_session, tmp_path, corpus):
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(_docs_table(corpus), str(d / "documents.parquet"))
    want = oracle_rows("search_topk_bm25f", d)
    # the oracle stems (v3 StemmingAnalyzer) -> stemmed index
    idx = SearchIndex.create(str(tmp_path / "idx"), stem=True)
    idx.update(str(d / "documents.parquet"))
    got = idx.topk_bm25f(list(search.QUERY_TERMS), search.BM25_TOP_K)
    assert table_rows(got) == want


def test_indexed_bm25f_evicted_fold_matches(
    ray_session, tmp_path, corpus, monkeypatch
):
    """With ``DRIVER_ROW_LIMIT = 0`` the handle keeps no reader: each file
    the fold needs is read from parquet and dropped, and the answer still
    equals the oracle."""
    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(_docs_table(corpus), str(d / "documents.parquet"))
    want = oracle_rows("search_topk_bm25f", d)
    idx = SearchIndex.create(str(tmp_path / "idx"), stem=True)
    idx.update(str(d / "documents.parquet"))
    monkeypatch.setattr(search_index, "DRIVER_ROW_LIMIT", 0)
    got = idx.topk_bm25f(list(search.QUERY_TERMS), search.BM25_TOP_K)
    assert table_rows(got) == want and idx._held_rows == 0


def test_indexed_bm25f_tracks_upserts(ray_session, tmp_path, corpus):
    """total_dl / df / idf stay exact across an upsert generation — the
    index answer equals the oracle over the MERGED corpus."""
    sub2 = {i: "customer window " + corpus[i] for i in range(10, 20)}
    sub2.update({i: "fresh join data" for i in range(80, 90)})
    merged = dict(corpus)
    merged.update(sub2)
    d = tmp_path / "sf_merged"
    d.mkdir()
    pq.write_table(_docs_table(merged), str(d / "documents.parquet"))
    want = oracle_rows("search_topk_bm25f", d)
    idx = SearchIndex.create(str(tmp_path / "idx2"), stem=True)
    idx.update(_docs_table(corpus))
    idx.update(_docs_table(sub2))
    got = idx.topk_bm25f(list(search.QUERY_TERMS), search.BM25_TOP_K)
    assert table_rows(got) == want


def test_wildcard_oracle_escapes_like_metachars(
    ray_session, tmp_path, monkeypatch
):
    """'_' is a token character that the index matches literally, so the
    oracle's LIKE translation must escape it: the pattern ``a_b*`` matches
    'a_bc' and 'a_b' but not 'axbc', in the index and in the oracle."""
    rows = {0: "a_bc x", 1: "axbc x", 2: "a_b y", 3: "zzz"}
    d = tmp_path / "sf_wild"
    d.mkdir()
    pq.write_table(_docs_table(rows), str(d / "documents.parquet"))
    monkeypatch.setattr(search, "WILDCARD_QUERY", "a_b*")
    want = oracle_rows("search_wildcard_query", d)
    idx = SearchIndex.create(str(tmp_path / "idx_wild"), stem=True)
    idx.update(_docs_table(rows))
    got = idx.search("a_b*", k=search.BM25_TOP_K)
    assert sorted(got.column("doc_id").to_pylist()) == [0, 2]
    assert table_rows(got) == want


# ------------------------------------------------- search(query_str) DNF


def _brute_force_search(rows: dict[int, str], query: str, k: int):
    """Pure-Python reference for SearchIndex.search on an UNSTEMMED index."""
    toks = {
        d: (
            _TOKEN.findall(t[:TITLE_CHARS].lower()),
            _TOKEN.findall(t.lower()),
        )
        for d, t in rows.items()
    }
    n = len(rows)
    dl = {
        d: BOOST_TITLE * len(tt) + len(ct) for d, (tt, ct) in toks.items()
    }
    total_dl = sum(dl.values())

    def _occ(stream, term):
        if isinstance(term, tuple):  # phrase: count adjacent runs
            m = len(term)
            return sum(
                1
                for i in range(len(stream) - m + 1)
                if tuple(stream[i : i + m]) == term
            )
        return stream.count(term)

    def tf_w(d, field, term):
        tt, ct = toks[d]
        if field == "title":
            return BOOST_TITLE * _occ(tt, term)
        if field == "content":
            return _occ(ct, term)
        return BOOST_TITLE * _occ(tt, term) + _occ(ct, term)

    import fnmatch
    import re as _re

    vocab = sorted({t for tt, ct in toks.values() for t in tt + ct})

    def expand(pattern):
        rx = _re.compile(fnmatch.translate(str(pattern)))
        return [v for v in vocab if rx.match(v)]

    def leaf_hit(d, field, term):
        if isinstance(term, Wildcard):
            return any(tf_w(d, field, x) > 0 for x in expand(term))
        return tf_w(d, field, term) > 0

    groups = parse_query(query)
    match: set[int] = set()
    for grp in groups:
        gm = None
        for field, term, neg in grp:
            if neg:
                continue
            s = {d for d in rows if leaf_hit(d, field, term)}
            gm = s if gm is None else gm & s
        for field, term, neg in grp:
            if neg and gm:
                gm -= {d for d in rows if leaf_hit(d, field, term)}
        if gm is not None:
            match |= gm
    leaves = set()
    for grp in groups:
        for f, t, neg in grp:
            if neg:
                continue
            if isinstance(t, Wildcard):
                leaves.update((f, x) for x in expand(t))
            else:
                leaves.add((f, t))
    scores = {d: 0 for d in match}
    for field, term in leaves:
        df = sum(1 for d in rows if tf_w(d, field, term) > 0)
        idf = (n * IDF_SCALE) // df if df > 0 else 0
        for d in match:
            w = tf_w(d, field, term)
            if w > 0:
                scores[d] += bm25f_contribution(idf, w, dl[d], total_dl, n)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


@pytest.mark.parametrize(
    "query",
    [
        "customer join",
        "title:customer",
        "content:window AND NOT title:customer",
        "customer OR title:join window",
        "title:customer AND content:join OR data",
        # phrases (positional postings) + parens (DNF expansion)
        '"customer join"',
        '"customer join window"',
        'content:"join window" OR title:customer',
        'title:"customer join"',
        'window NOT "customer join"',
        "(customer OR join) AND window",
        "window NOT (customer OR title:join)",
        "custom*",
        "cust* AND wind?w",
        "window NOT custom*",
        "title:c?stomer OR joining",
        "(cust* OR join*) AND window",
    ],
)
def test_search_query_string_matches_brute_force(
    ray_session, tmp_path, corpus, query
):
    idx_dir = tmp_path / "idx_search"
    if not (idx_dir / "meta.json").exists():
        idx = SearchIndex.create(str(idx_dir))
        idx.update(_docs_table(corpus))
    else:
        idx = SearchIndex.open(str(idx_dir))
    got = idx.search(query, k=10)
    want = _brute_force_search(corpus, query, k=10)
    assert got.column("doc_id").to_pylist() == [d for d, _ in want]
    assert got.column("score").to_pylist() == [s for _, s in want]
    # stored fields round-trip
    for d, title, dom in zip(
        got.column("doc_id").to_pylist(),
        got.column("title").to_pylist(),
        got.column("domain").to_pylist(),
    ):
        assert title == corpus[d][:TITLE_CHARS]
        assert dom == f"src{d % 3}"


def test_phrase_kernel_matches_set_intersection():
    """``_phrase_counts`` (flat ``row << 32 | pos`` keys, chained
    ``np.isin``) counts, per row, the start positions ``p`` with ``p + j``
    in constituent ``j``'s list — the same number as a set intersection
    over the raw lists, for 1- to 3-token phrases, repeated tokens
    (``"a a"``), empty lists and rows with no list at all."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from distributed_web_crawling_system_ray.pipelines.search_index import (
        _phrase_counts,
    )

    positions = st.lists(st.integers(0, 30), max_size=10, unique=True)

    @given(
        st.integers(0, 12).flatmap(
            lambda rows: st.tuples(
                st.lists(st.lists(positions, min_size=rows, max_size=rows),
                         min_size=1, max_size=3),
                st.lists(st.integers(0, 2), min_size=1, max_size=3),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def run(case):
        token_lists, phrase = case
        # phrase tokens index into the token lists, so a token can repeat
        cols = [token_lists[t % len(token_lists)] for t in phrase]
        got = _phrase_counts([pa.array(c, pa.list_(pa.int32())) for c in cols])
        want = [
            len(set.intersection(*({p - j for p in c[i]} for j, c in enumerate(cols))))
            for i in range(len(cols[0]))
        ]
        assert got.tolist() == want

    run()


@pytest.mark.parametrize("compact", [False, True])
def test_phrase_scopes_match_brute_force(ray_session, tmp_path, compact):
    """Phrase frequencies from the ``pos`` and ``pos_title`` columns: bare,
    ``title:`` and ``content:`` phrases of 2 and 3 tokens, repeated-token
    phrases included, over an index where an upsert superseded some docs
    (and, compacted, over one generation) — equal to the brute force over
    the latest text of each doc, ids and scores.  A 3-word vocabulary and
    texts longer than the title window make each scope differ."""
    rng = np.random.default_rng(5)
    words = ["join", "window", "data"]

    def text() -> str:
        return " ".join(rng.choice(words, size=rng.integers(8, 40)))

    first = {i: text() for i in range(40)}
    second = {i: text() for i in range(0, 60, 3)}
    idx = SearchIndex.create(str(tmp_path / "idx_phrase"))
    idx.update(_docs_table(first))
    idx.update(_docs_table(second))
    if compact:
        idx.compact()
    latest = {**first, **second}
    for q in (
        '"join join"',
        'title:"join window"',
        'content:"window window"',
        '"join window data"',
        'title:"data data data"',
        'content:"window join window" OR "data join"',
        "join NOT \"join join join\"",
    ):
        got = idx.search(q, k=15)
        want = _brute_force_search(latest, q, k=15)
        assert got.column("doc_id").to_pylist() == [d for d, _ in want], q
        assert got.column("score").to_pylist() == [s for _, s in want], q


def test_search_pure_negation_rejected(ray_session, tmp_path, corpus):
    idx = SearchIndex.create(str(tmp_path / "idx_neg"))
    idx.update(_docs_table(corpus))
    with pytest.raises(ValueError):
        idx.search("NOT customer")


def test_search_and_bm25f_survive_compaction(ray_session, tmp_path, corpus):
    """compact() folds generations; BM25F scoring state (tf_title/dl posting
    columns, meta total_dl) and the query-string search path must answer
    identically afterwards."""
    sub2 = {i: "customer window " + corpus[i] for i in range(5, 15)}
    idx = SearchIndex.create(str(tmp_path / "idx_cmp"), stem=True)
    idx.update(_docs_table(corpus))
    idx.update(_docs_table(sub2))
    before_topk = idx.topk_bm25f(list(search.QUERY_TERMS), search.BM25_TOP_K)
    before_search = idx.search("title:customer OR window", k=10)
    # phrase over the STEMMED index: 'customers joining' stems to the
    # ('customer', 'join') phrase — positions must survive compaction too
    before_phrase = idx.search('"customers joining" OR window', k=10)
    st = idx.compact()
    assert st["compacted"]
    assert idx.topk_bm25f(list(search.QUERY_TERMS), search.BM25_TOP_K).equals(
        before_topk
    )
    assert idx.search("title:customer OR window", k=10).equals(before_search)
    assert idx.search('"customers joining" OR window', k=10).equals(before_phrase)


def test_phrase_on_stemmed_index_stems_constituents(ray_session, tmp_path):
    """Both sides of a phrase stem (the Whoosh contract): a doc whose
    stemmed stream contains adjacent ('customer','join') matches the query
    phrase '"customers joining"' on a stemmed index."""
    rows = {
        0: "many customers joining the queue",   # stems -> customer join
        1: "customers of joining era",            # not adjacent after stem? (of between)
        2: "customer join now",                   # literal
        3: "join customer",                       # reversed - no match
    }
    idx = SearchIndex.create(str(tmp_path / "idx_ph"), stem=True)
    idx.update(_docs_table(rows))
    got = idx.search('"customers joining"', k=10)
    matched = [
        d
        for d, s in zip(
            got.column("doc_id").to_pylist(), got.column("score").to_pylist()
        )
        if s > 0
    ]
    assert sorted(matched) == [0, 2]


# ------------------------------------------------- overflow-safe vector kernel


def test_bm25f_contrib_vec_matches_python_small():
    from distributed_web_crawling_system_ray.pipelines.search import bm25f_contrib_vec

    rng = np.random.default_rng(3)
    n, total_dl = 500, 500 * 40
    idf = rng.integers(0, n * IDF_SCALE, size=200)
    tf_w = rng.integers(0, 50, size=200)
    dl = rng.integers(1, 120, size=200)
    got = bm25f_contrib_vec(idf, tf_w, dl, total_dl, n)
    want = [
        bm25f_contribution(int(i), int(w), int(L), total_dl, n)
        for i, w, L in zip(idf, tf_w, dl)
    ]
    assert got.tolist() == want
    assert got.dtype == np.int64


def test_bm25f_contrib_vec_big_corpus_no_int64_wrap():
    """The r4-advice scenario: n=10^6 docs of avgdl=10^3, a df=1 term —
    idf*22*tf_w*total_dl ~ 2.2e19 > 2^63.  The vector kernel must route to
    the Python-int path and match bm25f_contribution exactly (the naive
    int64 arithmetic wraps negative here)."""
    from distributed_web_crawling_system_ray.pipelines.search import bm25f_contrib_vec

    n = 10**6
    total_dl = n * 10**3
    idf = n * IDF_SCALE  # df = 1
    tf_w = np.array([1, 3, 17, 400], dtype=np.int64)
    dl = np.array([10**3, 5 * 10**3, 10**2, 10**4], dtype=np.int64)
    got = bm25f_contrib_vec(idf, tf_w, dl, total_dl, n)
    want = [
        bm25f_contribution(idf, int(w), int(L), total_dl, n)
        for w, L in zip(tf_w, dl)
    ]
    assert got.tolist() == want
    assert all(s >= 0 for s in got.tolist())
    # sanity: the naive int64 product really does overflow in this regime
    assert idf * 22 * int(tf_w.max()) * total_dl >= 2**63


def test_bm25f_contrib_vec_scalar_and_empty():
    from distributed_web_crawling_system_ray.pipelines.search import bm25f_contrib_vec

    assert bm25f_contrib_vec(5, [], [], 100, 10).tolist() == []
    got = bm25f_contrib_vec(
        1000, np.array([2, 0]), np.array([10, 10]), 1000, 100
    )
    assert got.tolist() == [
        bm25f_contribution(1000, 2, 10, 1000, 100),
        0,
    ]


# ------------------------------------------------------------------ stats


def test_stats_surface(ray_session, tmp_path, corpus):
    idx = SearchIndex.create(str(tmp_path / "idx_stats"))
    idx.update(_docs_table(corpus))
    st = idx.stats()
    assert st["document_count"] == len(corpus)
    assert st["index_size_bytes"] > 0
    assert st["index_size_mb"] == round(st["index_size_bytes"] / 2**20, 2)
    assert st["n_generations"] == 1
    # upsert: count reflects live docs, generations grow
    idx.update(_docs_table({1: "changed text", 999: "brand new"}))
    st2 = idx.stats()
    assert st2["document_count"] == len(corpus) + 1
    assert st2["n_generations"] == 2


@pytest.mark.parametrize("seed", [0])
def test_search_total_over_arbitrary_queries(ray_session, tmp_path, corpus, seed):
    """SearchIndex.search is total over arbitrary query strings (the
    reference feeds raw user input to its parser): any string either
    returns a well-formed k-row table or raises the DOCUMENTED
    pure-negation ValueError — never anything else.  Hypothesis drives the
    grammar corners (wildcards, phrases, parens, operators, field
    prefixes) against a real index."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    idx_dir = tmp_path / "idx_total"
    idx = SearchIndex.create(str(idx_dir))
    idx.update(_docs_table(corpus))

    tokens = st.sampled_from(
        ["customer", "join*", "wind?w", '"customer join"', "title:", "AND",
         "OR", "NOT", "(", ")", "*", "??", "title:customer", 'content:"a b"',
         "xyz:stream", "-", '"', "the"]
    )

    @given(st.lists(tokens, min_size=0, max_size=8).map(" ".join))
    @settings(max_examples=120, deadline=None)
    def run(q):
        try:
            out = idx.search(q, k=5)
        except ValueError as e:
            assert "pure-negation" in str(e)
            return
        assert out.num_rows <= 5  # search returns MATCHES only, up to k
        assert out.column_names == [
            "rank", "doc_id", "url", "title", "domain", "crawl_date",
            "score", "snippet",
        ]
        assert out.column("rank").to_pylist() == list(
            range(1, out.num_rows + 1)
        )

    run()


def test_queries_past_parser_caps_raise_only_the_documented_error(
    ray_session, tmp_path, corpus
):
    """Past the caps — parens/NOTs nested deeper than MAX_QUERY_DEPTH, or a
    DNF of more than MAX_DNF_GROUPS AND-groups — ``parse_query`` and
    ``SearchIndex.search`` raise the documented ValueError and nothing
    else.  Hypothesis builds the queries from every leaf form (bare, field,
    phrase, wildcard) in three shapes: a deep opener chain, an AND of
    OR-groups whose sizes multiply past the cap, and one flat OR."""
    import math

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from distributed_web_crawling_system_ray.pipelines.search import (
        MAX_DNF_GROUPS,
        MAX_QUERY_DEPTH,
    )

    idx = SearchIndex.create(str(tmp_path / "idx_caps"))
    idx.update(_docs_table(corpus))
    leaves = st.lists(
        st.sampled_from(
            ["customer", "title:join", 'content:"customer join"', "wind*",
             '"a b c"', "str?am", "NOT data"]
        ),
        min_size=1,
        max_size=6,
    )

    @st.composite
    def past_caps(draw):
        ls = draw(leaves)
        shape = draw(st.sampled_from(["deep", "product", "flat"]))
        if shape == "deep":
            openers = draw(
                st.lists(
                    st.sampled_from(["(", "NOT"]),
                    min_size=MAX_QUERY_DEPTH + 1,
                    max_size=2 * MAX_QUERY_DEPTH,
                )
            )
            return " ".join([ls[0]] + openers + ls[1:] + [ls[0]])
        if shape == "flat":
            n = draw(st.integers(MAX_DNF_GROUPS + 1, MAX_DNF_GROUPS + 64))
            return " OR ".join(ls[i % len(ls)] for i in range(n))
        sizes = draw(st.lists(st.integers(1, 6), max_size=6))
        while math.prod(sizes) <= MAX_DNF_GROUPS:
            sizes.append(draw(st.integers(2, 6)))
        return " AND ".join(
            "(" + " OR ".join(ls[(i + j) % len(ls)] for j in range(s)) + ")"
            for i, s in enumerate(sizes)
        )

    cap_error = "nesting deeper than|more than .* AND-groups"

    @given(past_caps())
    @settings(max_examples=60, deadline=None)
    def run(q):
        with pytest.raises(ValueError, match=cap_error):
            parse_query(q)
        with pytest.raises(ValueError, match=cap_error):
            idx.search(q, k=5)

    run()
