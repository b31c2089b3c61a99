"""Property-based tests (hypothesis) for the pure layers."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distributed_web_crawling_system_ray.functions.canon import canonicalize, url_hash
from distributed_web_crawling_system_ray.functions.codec import (
    decode_image,
    encode_lossy,
    encode_png,
    psnr,
)
from distributed_web_crawling_system_ray.state.filters import BloomFilter, CuckooFilter

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


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=60, deadline=None)
def test_filters_never_false_negative(keys):
    keys = np.asarray(keys, dtype=np.uint64)
    cf = CuckooFilter(capacity=1 << 10)
    bf = BloomFilter(n_bits=1 << 12)
    if len(keys):
        cf.check_and_add(keys)
        bf.add(keys)
        assert cf.contains(keys).all()
        assert bf.contains(keys).all()
        # second round is fully seen
        assert cf.check_and_add(keys).all()


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
