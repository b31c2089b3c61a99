"""Property-based tests (hypothesis) for the pure layers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distributed_web_crawling_system_ray.functions.canon import (
    _canonicalize_fast,
    _canonicalize_urllib,
    canonicalize,
    url_hash,
)
from distributed_web_crawling_system_ray.functions.codec import (
    decode_image,
    encode_lossy,
    encode_png,
    psnr,
)

url_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
    max_size=80,
)


@given(url_text)
@settings(max_examples=300, deadline=None)
# Regression corpus: hypothesis-found idempotence breaks.  A stripped-class
# char (\x1c-\x1f, \x85 — Unicode whitespace; \x01 — C0 control) followed by
# a bare '?' survived into the path on pass 1 and was edge-stripped on pass 2
# until canon._WS_TABLE covered every str.strip()/urlsplit-stripped codepoint.
@example("host.test/a\x1f?")
@example("host.test/a\x85?")
@example("host.test/a\x01?")
@example("\x1f?")
@example("a\xa0?")
def test_canonicalize_total_and_idempotent(s):
    """canonicalize never raises, and its output is a fixed point."""
    for candidate in (s, "http://" + s, "http://host.test/" + s):
        c = canonicalize(candidate)
        if c is not None:
            assert canonicalize(c) == c
            assert c.startswith(("http://", "https://"))
            assert isinstance(url_hash(c), int)


@given(url_text, url_text)
@settings(max_examples=150, deadline=None)
def test_canonicalize_relative_resolution_total(base_path, href):
    base = canonicalize("http://base.test/" + base_path)
    if base is None:
        return
    c = canonicalize(href, base=base)
    if c is not None:
        assert canonicalize(c) == c


# hrefs near the fast path's edge: its own classes mixed with what it must
# refuse (";", "\\", whitespace, non-ASCII, uppercase, ports, userinfo,
# dot segments, trailing-dot and empty hosts)
href_part = st.lists(
    st.sampled_from(list("a0.-~!'=:@/?#%Z;\\ é") + ["..", "/.", "/..", "//"]),
    max_size=8,
).map("".join)
href_origin = st.tuples(
    st.sampled_from(["http://", "https://", "HTTP://", "http:"]),
    st.sampled_from(
        ["a.com", "h1.example-3.test", "x", "a..b", ".a", "a.", "-", "A.com",
         "a_b.c", "a.com:80", "a.com:8080", "u@a.com", "[::1]", ""]
    ),
).map("".join)
href = st.one_of(
    st.tuples(href_origin, href_part).map("".join),
    href_part.map(lambda t: "/" + t),
    href_part,
)


@given(href, st.one_of(st.none(), st.tuples(href_origin, href_part).map("".join)))
@settings(max_examples=3000, deadline=None)
# urljoin drops an empty trailing ";params", and parses (and may reject) a
# base even for an absolute href
@example("/a;", "http://a.com/")
@example("http://a.com/a", "http://[a.com/")
def test_canonicalize_fast_path_matches_urllib(url, base):
    """Where the string fast path answers, urllib gives the same answer."""
    fast = _canonicalize_fast(url, base)
    if fast is not None:
        assert fast == _canonicalize_urllib(url, base)


seen_key = st.one_of(
    st.sampled_from([0, 1, 2**64 - 1, 0xAAE6B039, 0x1503AF039]),
    st.integers(min_value=0, max_value=63),  # small pool -> intra-batch repeats
    st.integers(min_value=0, max_value=2**64 - 1),
)


@given(
    st.integers(min_value=1, max_value=9),
    st.lists(st.lists(seen_key, max_size=60), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=6),
    st.lists(seen_key, max_size=40),
)
@settings(max_examples=40, deadline=None)
@example(
    k=8,
    batches=[[0xAAE6B039, 2**64 - 1, 0, 2**64 - 1], [0x1503AF039, 0, 7, 7], [8, 0]],
    cut=1,
    probe=[0, 1, 2**64 - 2, 0x1503AF039],
)
def test_seen_pool_matches_set_reference(ray_session, k, batches, cut, probe):
    """SeenPool(K) answers exactly like a Python set: check_and_add is True
    on keys seen before (earlier batches or earlier in the same batch), and
    a snapshot -> restore into a fresh handle midway changes nothing."""
    import tempfile

    from distributed_web_crawling_system_ray.state.seen import SeenPool

    pool, ref = SeenPool.create(k), set()
    for i, batch in enumerate(batches):
        if i == cut:
            with tempfile.TemporaryDirectory() as d:
                pool.snapshot(d)
                pool = SeenPool.create(k)
                assert pool.restore(d) == len(ref)
        expect = []
        for key in batch:
            expect.append(key in ref)
            ref.add(key)
        got = pool.check_and_add(np.asarray(batch, dtype=np.uint64))
        assert got.tolist() == expect
        keys = np.asarray(probe + batch, dtype=np.uint64)
        assert pool.contains(keys).tolist() == [key in ref for key in probe + batch]
    assert pool.total() == len(ref)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip_properties(h, w, seed):
    img = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    out, fmt = decode_image(encode_png(img))
    assert fmt == "png" and np.array_equal(out, img)
    lossy, fmt2 = decode_image(encode_lossy(img))
    assert fmt2 == "jpeg" and lossy.shape == img.shape
    assert psnr(img, lossy) >= 40.0


@given(st.text(max_size=120))
@example("a NOT OR b")
@example("a NOT AND b")
@example("(a NOT) b")
@example('NOT "phrase here" OR (x* AND ?y) title:')
@example("((((")
@example(')))) OR "unclosed')
@example("*:* ? AND OR NOT")
@settings(max_examples=300, deadline=None)
def test_parse_query_total(q):
    """parse_query is TOTAL over arbitrary strings within the caps (the
    user-facing /search surface feeds raw input to it; past
    MAX_QUERY_DEPTH nesting or MAX_DNF_GROUPS groups it raises the
    documented ValueError, see test_parse_query_bounded): never raises,
    and every leaf is a
    well-formed (field, term, negated) with term a str/Wildcard/token-tuple."""
    from distributed_web_crawling_system_ray.pipelines.search import (
        QUERY_FIELDS,
        Wildcard,
        parse_query,
    )

    groups = parse_query(q)
    for grp in groups:
        assert grp  # empty AND-groups are dropped
        for field, term, neg in grp:
            assert field is None or field in QUERY_FIELDS
            assert isinstance(neg, bool)
            if isinstance(term, Wildcard):
                assert term.strip("*?")  # all-wildcard leaves are dropped
            elif isinstance(term, tuple):
                assert len(term) >= 2 and all(
                    isinstance(x, str) and x for x in term
                )
            else:
                assert isinstance(term, str) and term
