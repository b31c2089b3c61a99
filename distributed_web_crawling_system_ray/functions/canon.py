"""URL canonicalization and hashing.

The reference canonicalizes only partially: ``urljoin`` for relative links,
``split('#')[0]`` fragment strip, ``startswith(('http://','https://'))`` scheme
filter (``crawler/crawler_node.py:307-316``; v1 ``archive/crawler_node.py:80-97``
does urljoin + scheme filter but keeps fragments).  At 10^10-frontier scale the
dedup key must be a *full* canonical form, so we extend with: lowercase
scheme/host, default-port strip, RFC-3986 dot-segment removal, empty-path ->
'/', userinfo drop, trailing-dot host strip.  The pytest oracle applies this
same canonicalization, so conformance is well defined.

``url_hash`` is the LEADING (most-significant) 64 bits of md5(canon), i.e.
``digest()[:8]`` big-endian == ``int(hexdigest[:16], 16)`` — md5 mirrors the
reference's content addressing (``crawler/crawler_node.py:253``); 64 bits is
what the URL-seen shards key on.
"""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urljoin, urlsplit

# schemes that urljoin would happily "resolve" but that can never be crawled;
# the reference filters them post-join via the http(s) prefix check — we
# short-circuit before the join for speed.
_NON_HTTP_PREFIXES = ("mailto:", "javascript:", "tel:", "data:", "ftp:", "file:")


def _normalize_path(path: str) -> str:
    """RFC 3986 5.2.4 remove_dot_segments, preserving duplicate slashes."""
    if not path:
        return "/"
    if "." not in path:
        return path
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(out) > 1:
                out.pop()
            continue
        out.append(seg)
    # keep a trailing slash for /a/./ or /a/..
    if path.endswith(("/.", "/..", "/")) and (not out or out[-1] != ""):
        out.append("")
    norm = "/".join(out)
    if not norm.startswith("/"):
        norm = "/" + norm
    return norm


# Stripped-character classes must not survive into the canonical form, or the
# NEXT canonicalization pass would eat them at string edges and break
# idempotence (found by hypothesis, twice):
#   * str.strip() (canonicalize lines below) removes every Unicode-whitespace
#     codepoint — not just ASCII space/tab but \x1c-\x1f, \x85, \xa0,  ...
#   * urlsplit (WHATWG C0-control-or-space rule) strips leading/trailing
#     0x00-0x20 and removes \t\r\n anywhere.
# So percent-encode (UTF-8 bytes) all C0 controls, 0x20, DEL, and every
# codepoint with the Unicode whitespace property.  All such codepoints are
# <= 0x3000, so a bounded scan finds them exactly.
_WS_TABLE = {
    cp: "".join(f"%{b:02X}" for b in chr(cp).encode("utf-8"))
    for cp in range(0x3001)
    if cp <= 0x20 or cp == 0x7F or chr(cp).isspace()
}


def _encode_ws(s: str) -> str:
    return s.translate(_WS_TABLE)


# The fast path's character classes: a lowercase LDH host with no port or
# userinfo, then a path, query and fragment of RFC 3986 characters other
# than "[]" and ";" (urljoin drops an empty trailing ";params").  urllib
# changes nothing in such a URL beyond what ``_canonicalize_fast`` does.
_HOST = r"https?://[a-z0-9.-]*[a-z0-9-]"
_TAIL = r"[A-Za-z0-9\-._~!$&'()*+,=:@/?#%]*"
_ABSOLUTE = re.compile(f"({_HOST})((?:[/?#]{_TAIL})?)")
_ROOT_RELATIVE = re.compile(f"/(?!/){_TAIL}")
_ORIGIN = re.compile(f"{_HOST}(?=[/?#]|\\Z)")


def _canonicalize_fast(url: str, base: str | None) -> str | None:
    """``canonicalize`` by string operations for an href that is canonical
    up to its fragment: an absolute ``http(s)://`` URL of the classes above
    whose path has no dot segment, or a root-relative one (``/...``), where
    the base, if any, starts with such an origin.  None for every other
    href, which ``canonicalize`` then sends through urllib."""
    b = None if base is None else _ORIGIN.match(base)
    if base is not None and b is None:
        return None  # urljoin parses any base, and may raise on it
    m = _ABSOLUTE.fullmatch(url)
    if m is not None:
        origin, rest = m.groups()
    elif b is not None and _ROOT_RELATIVE.fullmatch(url):
        origin, rest = b.group(), url
    else:
        return None
    path, _, query = rest.split("#", 1)[0].partition("?")
    if "/." in path:
        return None
    return f"{origin}{path or '/'}{'?' + query if query else ''}"


def canonicalize(url: str, base: str | None = None) -> str | None:
    """Canonical form of ``url`` (resolved against ``base`` if relative).

    Returns None for non-http(s) / unparseable URLs — the reference drops
    those silently at extraction (crawler/crawler_node.py:313-315).  Most
    hrefs of a crawl are canonical already, up to their fragment; those
    skip urllib (``_canonicalize_fast``), with the same result.
    """
    fast = _canonicalize_fast(url, base)
    return fast if fast is not None else _canonicalize_urllib(url, base)


def _canonicalize_urllib(url: str, base: str | None) -> str | None:
    """``canonicalize`` through ``urljoin`` + ``urlsplit``: every input."""
    u = url.strip()
    if not u:
        return None
    low = u[:11].lower()
    if low.startswith(_NON_HTTP_PREFIXES):
        return None
    try:
        # urljoin parses the href too: a malformed one ("http://[a/") raises
        # here as it would in urlsplit without a base
        if base is not None:
            u = urljoin(base, u)
        # strip again after fragment removal: "path #frag" would otherwise
        # keep a trailing space and break idempotence (found by hypothesis)
        u = u.split("#", 1)[0].strip()
        if not u:
            return None
        p = urlsplit(u)
        port = p.port  # may raise ValueError on a bad port
    except ValueError:
        return None
    scheme = p.scheme.lower()
    if scheme not in ("http", "https"):
        return None
    host = p.hostname
    if not host:
        return None
    host = host.lower().rstrip(".")
    if not host:  # a host of only dots ("http://.") strips to nothing
        return None
    if port is None or (scheme == "http" and port == 80) or (
        scheme == "https" and port == 443
    ):
        netloc = host
    else:
        netloc = f"{host}:{port}"
    path = _encode_ws(_normalize_path(p.path))
    query = f"?{_encode_ws(p.query)}" if p.query else ""
    return f"{scheme}://{netloc}{path}{query}"


def host_of(canon: str) -> str:
    """Host (netloc sans port) of a canonical URL — the politeness key.

    Reference analog: ``urlparse(url).netloc`` (crawler/crawler_node.py:35-36).
    """
    rest = canon.split("://", 1)[1]
    host = rest.split("/", 1)[0]
    return host.split(":", 1)[0]


def url_hash(canon: str) -> int:
    """Leading 64 bits of md5(canon) (= first 16 hex chars), unsigned."""
    return int.from_bytes(hashlib.md5(canon.encode("utf-8")).digest()[:8], "big")


def md5_hex(canon: str) -> str:
    """Full md5 hexdigest — the reference's content-address / image_id
    (crawler/crawler_node.py:253)."""
    return hashlib.md5(canon.encode("utf-8")).hexdigest()
