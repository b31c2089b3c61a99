"""Search-layer tests: tokenizer properties, and the index-served
document frequencies, top-k and AND-intersection vs a pure-Python
brute-force expectation."""

import re

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def _texts():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


def test_tokenizer_matches_v1_regex_and_stem_sql_parity():
    """Tokenizer == v1 regex; pinned stem examples; and the property that
    actually backs the hash-checked oracle: Python ``_stem`` and the DuckDB
    ``STEM_SQL_CASE`` chain agree token-for-token.  (Idempotence is NOT the
    contract — both index and query sides stem exactly once, like Whoosh;
    any single-pass stripper composes non-trivially, e.g.
    'aaases'->'aaas'->'aaa'.)"""
    import duckdb
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from distributed_web_crawling_system_ray.pipelines.search import (
        STEM_SQL_CASE,
        _stem,
        tokenize,
    )

    s = "The QUICK brown_fox, jumps-over 42 lazy dogs!  rapid: merge;"
    assert tokenize(s) == re.findall(r"[a-z0-9_]+", s.lower())
    assert _stem("jumps") == "jump"
    assert _stem("merging") == "merg"
    assert _stem("es") == "es"  # too short to strip
    assert _stem("class") == "class"  # ss-guard: bare 's' not stripped
    assert _stem("classes") == "class"
    assert _stem("supposedly") == "suppos"
    assert _stem("markedly") == "mark"
    assert _stem("edly") == "edly"  # 'edly' needs a >=3-char stem left

    # bulk SQL-parity sample (one DuckDB call; hypothesis drives the corners)
    import random

    rng = random.Random(0)
    toks = [
        "".join(rng.choice("abcdefgsinedly") for _ in range(rng.randint(1, 12)))
        for _ in range(3000)
    ] + ["classes", "pressed", "aaases", "dddsing", "s", "ss", "sss", "inging"]
    con = duckdb.connect()
    got = con.execute(
        f"SELECT t, {STEM_SQL_CASE} AS s FROM (SELECT unnest(?) AS t)", [toks]
    ).fetchall()
    for tok, sql_stem in got:
        assert sql_stem == _stem(tok), tok

    @settings(max_examples=200)
    @given(st.text(alphabet="abcdefgsinedly", min_size=1, max_size=12))
    def stem_sql_parity(tok):
        (got,) = con.execute(
            f"SELECT {STEM_SQL_CASE} FROM (SELECT ? AS t)", [tok]
        ).fetchone()
        assert got == _stem(tok)

    stem_sql_parity()


def test_term_df_matches_bruteforce():
    from distributed_web_crawling_system_ray.pipelines.search import tokenize
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_term_df_indexed,
    )

    texts = _texts()
    want: dict[str, int] = {}
    for t in texts.values():
        for tok in set(tokenize(t)):
            want[tok] = want.get(tok, 0) + 1
    got_tbl = search_term_df_indexed(SF)
    got = dict(
        zip(got_tbl.column("term").to_pylist(), got_tbl.column("df").to_pylist())
    )
    assert got == want
    assert len(got) > 5


def _brute_scores():
    from distributed_web_crawling_system_ray.pipelines.search import (
        IDF_SCALE,
        QUERY_TERMS,
        tokenize,
    )

    texts = _texts()
    n = len(texts)
    tf = {
        d: {q: tokenize(t).count(q) for q in QUERY_TERMS} for d, t in texts.items()
    }
    df = {q: sum(1 for d in tf if tf[d][q] > 0) for q in QUERY_TERMS}
    idf = {q: (n * IDF_SCALE) // df[q] if df[q] else 0 for q in QUERY_TERMS}
    return {d: sum(tf[d][q] * idf[q] for q in QUERY_TERMS) for d in tf}, tf


def test_search_topk_matches_bruteforce():
    from distributed_web_crawling_system_ray.pipelines.search import (
        SNIPPET_CHARS,
        TOP_K,
    )
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_topk_indexed,
    )

    scores, _ = _brute_scores()
    texts = _texts()
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K]
    got = search_topk_indexed(SF)
    assert got.column("doc_id").to_pylist() == [d for d, _ in want]
    assert got.column("score").to_pylist() == [s for _, s in want]
    assert got.column("rank").to_pylist() == list(range(1, len(want) + 1))
    for d, snip in zip(
        got.column("doc_id").to_pylist(), got.column("snippet").to_pylist()
    ):
        assert snip == texts[d][:SNIPPET_CHARS]
    assert want[0][1] > 0  # non-vacuous: the query matches the corpus


def test_search_and_terms_matches_bruteforce():
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_and_terms_indexed,
    )

    _, tf = _brute_scores()
    want = {d for d, v in tf.items() if all(c > 0 for c in v.values())}
    got = set(search_and_terms_indexed(SF).column("doc_id").to_pylist())
    assert got == want
    assert 0 < len(want) < len(tf)  # AND actually filters something


def test_search_topk_stemmed_matches_bruteforce_and_differs_from_v1():
    """v3 stemmed scoring: 'joins'/'joined'/'windows' count toward the query
    terms.  Brute-force expectation over stemmed tokens; the ranking must
    differ from the v1 (unstemmed) path on this corpus (non-vacuous)."""
    from distributed_web_crawling_system_ray.pipelines.search import (
        IDF_SCALE,
        QUERY_TERMS,
        TOP_K,
        _stem,
        tokenize,
    )
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_topk_stemmed_indexed,
    )

    texts = _texts()
    n = len(texts)
    terms = [_stem(t) for t in QUERY_TERMS]
    tf = {
        d: {q: [_stem(x) for x in tokenize(t)].count(q) for q in terms}
        for d, t in texts.items()
    }
    df = {q: sum(1 for d in tf if tf[d][q] > 0) for q in terms}
    idf = {q: (n * IDF_SCALE) // df[q] if df[q] else 0 for q in terms}
    scores = {d: sum(tf[d][q] * idf[q] for q in terms) for d in tf}
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_K]
    got = search_topk_stemmed_indexed(SF)
    assert got.column("doc_id").to_pylist() == [d for d, _ in want]
    assert got.column("score").to_pylist() == [s for _, s in want]


def test_stemmed_scoring_counts_inflected_variants(tmp_path, monkeypatch):
    """Non-vacuous stemming check on a corpus WITH inflections (the sf
    vocabulary has none): 'joins joined joining' scores under the stemmed
    path and not under v1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.pipelines import search_index
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_topk_indexed,
        search_topk_stemmed_indexed,
    )

    # keep this throwaway corpus's cached indexes out of the shared cache
    monkeypatch.setattr(search_index, "_INDEX_CACHE_ROOT", str(tmp_path / "idx"))
    d = tmp_path / "sf_inflect"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(
                    [
                        "joins joined joining customers windows",
                        "nothing matching here at all",
                    ],
                    pa.string(),
                ),
            }
        ),
        str(d / "documents.parquet"),
    )
    v1 = search_topk_indexed(str(d))
    stemmed = search_topk_stemmed_indexed(str(d))
    assert max(v1.column("score").to_pylist()) == 0  # no exact-term hits
    by_doc = dict(
        zip(
            stemmed.column("doc_id").to_pylist(),
            stemmed.column("score").to_pylist(),
        )
    )
    assert by_doc[1] > 0 and by_doc[2] == 0


def test_highlight_fragments_pinned():
    """Whoosh-style best-2-fragment highlighting (v3 highlights(top=2)):
    pinned output on a fixed document, fallback when no term matches."""
    from distributed_web_crawling_system_ray.pipelines.search import highlight

    text = (
        "The customer opened a window. "
        + "Nothing relevant happens in this long middle section of prose, "
        * 3
        + "then a join between the customer table and the orders table, "
        "and finally one more window mention far away."
    )
    got = highlight(text, ("customer", "join", "window"), n_frags=2, frag_chars=30)
    # best fragment holds the densest distinct-term run; both render in
    # document order with <b> marks and ellipses at cut points
    assert got == (
        "The <b>customer</b> opened a <b>window</b>. Nothing relevant "
        "happens in ...ddle section of prose, then a <b>join</b> between "
        "the <b>customer</b> table and the orders table, and finally one "
        "more <b>window</b> mention far away."
    )
    # no-match fallback = first 200 chars (v3 contract)
    assert highlight("plain text " * 40, ("zzz",)) == ("plain text " * 40)[:200]


def test_search_topk_highlighted_marks_terms():
    from distributed_web_crawling_system_ray.pipelines.search_index import (
        search_topk_highlighted,
        search_topk_indexed,
    )

    got = search_topk_highlighted(SF)
    base = search_topk_indexed(SF)
    assert got.column("doc_id").to_pylist() == base.column("doc_id").to_pylist()
    assert got.column("score").to_pylist() == base.column("score").to_pylist()
    # every positive-score winner's snippet highlights at least one term
    for s, snip in zip(
        got.column("score").to_pylist(), got.column("snippet").to_pylist()
    ):
        if s > 0:
            assert "<b>" in snip and "</b>" in snip
