"""Table-driven canonicalization tests (SURVEY.md §5 item 1).

Semantics under test mirror the reference link extractor
(crawler/crawler_node.py:307-316: urljoin + fragment strip + http(s) filter)
extended with full RFC-3986 normalization.
"""

import pytest

from distributed_web_crawling_system_ray.functions.canon import (
    _canonicalize_fast,
    _canonicalize_urllib,
    canonicalize,
    host_of,
    md5_hex,
    url_hash,
)

CASES = [
    # (url, base, expected)
    ("http://example.com", None, "http://example.com/"),
    ("HTTP://Example.COM/Path", None, "http://example.com/Path"),
    ("http://example.com:80/a", None, "http://example.com/a"),
    ("https://example.com:443/a", None, "https://example.com/a"),
    ("http://example.com:8080/a", None, "http://example.com:8080/a"),
    ("http://example.com/a#frag", None, "http://example.com/a"),
    ("http://example.com/a?q=1#frag", None, "http://example.com/a?q=1"),
    ("http://example.com/a/./b/../c", None, "http://example.com/a/c"),
    ("http://example.com/a/b/..", None, "http://example.com/a/"),
    ("http://example.com./x", None, "http://example.com/x"),
    ("  http://example.com/sp  ", None, "http://example.com/sp"),
    ("ftp://example.com/x", None, None),
    ("mailto:bob@example.com", "http://e.com/", None),
    ("javascript:void(0)", "http://e.com/", None),
    ("", None, None),
    ("http://", None, None),
    ("http://example.com:badport/x", None, None),
    # relative resolution against a base (document order extraction)
    ("b.html", "http://e.com/dir/a.html", "http://e.com/dir/b.html"),
    ("/root.html", "http://e.com/dir/a.html", "http://e.com/root.html"),
    ("../up.html", "http://e.com/dir/sub/a.html", "http://e.com/dir/up.html"),
    ("//other.com/x", "https://e.com/a", "https://other.com/x"),
    ("?q=2", "http://e.com/a?q=1", "http://e.com/a?q=2"),
    ("#frag", "http://e.com/a", "http://e.com/a"),
    # trailing space ahead of a fragment must not survive (idempotence)
    ("http://e.com/a #frag", None, "http://e.com/a"),
    # a malformed IPv6 host is dropped with a base as without one
    ("http://[a/", None, None),
    ("http://[a/", "http://a.com/", None),
]


@pytest.mark.parametrize("url,base,expected", CASES)
def test_canonicalize(url, base, expected):
    assert canonicalize(url, base) == expected


def test_idempotent():
    for url, base, expected in CASES:
        if expected is not None:
            assert canonicalize(expected) == expected


def test_extractors_drop_a_malformed_href():
    """A page holding an href that urllib cannot parse yields the page's
    other links and images, not an error."""
    import pyarrow as pa

    from distributed_web_crawling_system_ray.oracle import RANK_BYTES
    from distributed_web_crawling_system_ray.stages.fetch import (
        extract_image_candidates,
        extract_links,
    )

    hrefs = ["http://[a/", "/ok.html"]
    page = pa.table(
        {
            "final_url": ["http://a.com/"],
            "outlinks": [hrefs],
            "image_refs": [hrefs],
            "depth": [0],
            "rank_path": [bytes(RANK_BYTES)],
        }
    )
    assert extract_links(page).column("canon").to_pylist() == ["http://a.com/ok.html"]
    got = extract_image_candidates(page).column("canon").to_pylist()
    assert got == ["http://a.com/ok.html"]


def test_host_of():
    assert host_of("http://example.com:8080/a/b") == "example.com"
    assert host_of("https://sub.e.com/") == "sub.e.com"


def test_hash_stability():
    # pinned value: must never change across versions (checkpoint compat)
    h1 = url_hash("http://example.com/")
    assert h1 == 0xA6BF1757FFF057F2
    assert url_hash("http://example.com/a") != h1
    # url_hash is the top 8 bytes of the md5 content address (image_id scheme)
    assert md5_hex("http://example.com/")[:16] == format(h1, "016x")


def _perfbench_pages(seed: int):
    """The pages table of perfbench's 2k-page crawl web (``inputs.web``)."""
    from distributed_web_crawling_system_ray.sources import synthweb

    params = synthweb.WebParams(
        n_pages=2000, seed=seed, include_pixel_oracle=False, max_dim=256
    )
    return synthweb.generate(params)["web_pages"]


@pytest.mark.parametrize("web", ["t1", "t2", 1, 3])
def test_fast_path_matches_urllib_on_fixture_hrefs(web):
    """Every outlink and image ref of the test fixtures and of perfbench's
    seed-1 and seed-3 webs canonicalizes the same through the string fast
    path as through urllib, against its page's URL and redirect target and
    without a base, and most of them take the fast path."""
    import os

    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.sources.synthweb import build_fixture

    if isinstance(web, str):
        pages = pq.read_table(os.path.join(build_fixture(web), "web_pages.parquet"))
    else:
        pages = _perfbench_pages(web)
    n = fast = 0
    for page in pages.select(
        ["url", "redirect_to", "outlinks", "image_refs"]
    ).to_pylist():
        for href in page["outlinks"] + page["image_refs"]:
            for base in (page["url"], page["redirect_to"], None):
                got = _canonicalize_fast(href, base)
                n += 1
                if got is not None:
                    fast += 1
                    assert got == _canonicalize_urllib(href, base), (href, base)
    assert fast > 0.5 * n, (fast, n)
