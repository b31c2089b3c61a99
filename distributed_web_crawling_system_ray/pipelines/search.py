"""The search layer's shared definitions: tokenizer, stemmer, query parser,
pinned queries, scoring constants, highlighting and the BM25F kernels.

Every search query is answered from the persistent inverted index
(``pipelines/search_index.py``), the reference's index-once-query-per-request
shape (``indexer/indexer_node.py:151-183``).  This module holds what the
index, the DuckDB oracle (``__ray_entry__.oracle_sql``) and the tests share:

- tokenizer: v1's ``re.findall(r'\\w+', text.lower())``
  (``archive/indexer_node.py:19-22``), restricted to ASCII ``[a-z0-9_]+`` so
  the DuckDB (RE2) oracle tokenizes identically.  v3 uses Whoosh's
  ``StemmingAnalyzer`` (``indexer/indexer_node.py:63``); ``_stem`` is a
  minimal suffix-stripper stand-in with an exact SQL twin
  (``STEM_SQL_CASE``).
- ``parse_query``: the MultifieldParser stand-in (fields, AND/OR/NOT,
  parens, phrases, wildcards) -> disjunctive normal form, bounded in nesting
  depth and DNF size.
- scoring: integer TF-IDF, score(d) = Σ_t tf(t,d) · ((N·1000) // df(t)),
  and integer BM25F (``bm25f_contribution`` / ``bm25f_contrib_vec``).
  Integer arithmetic keeps the DuckDB value-hash comparison float-free.
- ``highlight``: Whoosh-style best-fragment highlighting with the v3
  ``content[:200]`` fallback (``indexer/indexer_node.py:166-171``).
"""

from __future__ import annotations

import re

import numpy as np

# ---------------------------------------------------------------- tokenizer

# v1 tokenizer (archive/indexer_node.py:19-22) restricted to ASCII so RE2
# (DuckDB) and Python produce identical tokens.
_TOKEN = re.compile(r"[a-z0-9_]+")
# case-preserving variant for highlight offset scanning (original text)
_TOKEN_CI = re.compile(r"[a-zA-Z0-9_]+")

# crude Porter-step-1-style suffix stripper: stands in for v3's Whoosh
# StemmingAnalyzer (indexer/indexer_node.py:63).  SINGLE-PASS by contract —
# index-side and query-side tokens both stem exactly once (like Whoosh), so
# scoring is consistent; repeated application may strip further (any
# single-pass stripper composes non-trivially, e.g. 'aaases'->'aaas'->'aaa')
# and is NOT part of the contract.  The DuckDB oracle applies the identical
# rules (STEM_SQL_CASE below) — Python/SQL parity is property-tested.
_SUFFIXES = ("ing", "edly", "ed", "es", "s")


def _stem(tok: str) -> str:
    for suf in _SUFFIXES:
        if tok.endswith(suf) and len(tok) - len(suf) >= 3:
            # Porter-1a-style guard: never strip a bare 's' off an 'ss'
            # ending ('class' stays 'class')
            if suf == "s" and tok.endswith("ss"):
                return tok
            return tok[: -len(suf)]
    return tok


# the exact DuckDB expression of ``_stem`` over a token binding ``t`` —
# shared by the search_topk_stemmed oracle (__ray_entry__) and the
# SQL-parity property test.  Branch order matches the Python suffix loop.
STEM_SQL_CASE = (
    "CASE "
    "WHEN t LIKE '%ing' AND length(t) >= 6 THEN substring(t, 1, length(t) - 3) "
    "WHEN t LIKE '%edly' AND length(t) >= 7 THEN substring(t, 1, length(t) - 4) "
    "WHEN t LIKE '%ed' AND length(t) >= 5 THEN substring(t, 1, length(t) - 2) "
    "WHEN t LIKE '%es' AND length(t) >= 5 THEN substring(t, 1, length(t) - 2) "
    "WHEN t LIKE '%s' AND t NOT LIKE '%ss' AND length(t) >= 4 "
    "THEN substring(t, 1, length(t) - 1) "
    "ELSE t END"
)


def tokenize(text: str, stem: bool = False) -> list[str]:
    toks = _TOKEN.findall(text.lower())
    if stem:
        toks = [_stem(t) for t in toks]
    return toks


# Fields the query parser recognizes — the reference's MultifieldParser
# covers exactly these two (indexer/indexer_node.py:151-153)
QUERY_FIELDS = ("title", "content")


# one query leaf: (field, term, negated) — ``term`` is a single token
# (str), a PHRASE (tuple of tokens, matched by positional adjacency), or a
# WILDCARD pattern (Wildcard, expanded against the index vocabulary)
QueryLeaf = tuple  # (str | None, str | tuple[str, ...] | Wildcard, bool)


class Wildcard(str):
    """A query-time wildcard pattern: ``*`` matches any run, ``?`` one
    character (Whoosh's WildcardPlugin, on by default in the grammar the
    reference feeds user queries to, indexer/indexer_node.py:170).  A str
    subclass so patterns flow through leaf tuples / dedup sets unchanged;
    expansion against the indexed vocabulary happens at query time and the
    pattern is never stemmed (it matches the already-stemmed vocabulary)."""

    __slots__ = ()


# lexer: parens; optionally-field-prefixed quoted phrases; bare words
_LEX = re.compile(r'\(|\)|(?:[A-Za-z0-9_]+:)?"[^"]*"|[^\s()"]+')

# wildcard pattern body: lowercase token chars plus * and ?
_WILD_CLEAN = re.compile(r"[^a-z0-9_*?]+")


def _lex_query(query_str: str) -> list:
    """Raw string -> token stream: '(' / ')' / 'OR' / 'AND' / 'NOT' /
    ('phrase', field, (tok, ...)) / ('word', field, [tok, ...])."""
    out: list = []
    depth = 0
    for raw in _LEX.findall(query_str):
        if raw in ("(", ")", "OR", "AND", "NOT"):
            if raw == "(":
                depth += 1
            elif raw == ")":
                if depth == 0:  # unmatched ')' is noise, not a terminator
                    continue
                depth -= 1
            out.append(raw)
            continue
        field: str | None = None
        body = raw
        if ":" in raw and not raw.startswith('"'):
            prefix, rest = raw.split(":", 1)
            # case-SENSITIVE like Whoosh field names (r4 advice):
            # 'TITLE:foo' is an unrecognized prefix and stays plain text
            if prefix in QUERY_FIELDS:
                field = prefix
                body = rest
        if body.startswith('"') and body.endswith('"') and len(body) >= 2:
            toks = tuple(_TOKEN.findall(body[1:-1].lower()))
            out.append(("phrase", field, toks))
        elif "*" in body or "?" in body:
            # split on non-token chars exactly like the word path, so an
            # unrecognized prefix ('XYZ:cust*') or punctuation yields its
            # own word piece(s) beside the wildcard piece instead of
            # merging into an unmatchable pattern (r5 review).  All pieces
            # stay ONE lexical unit — 'NOT data-cust*' must negate every
            # piece, exactly like the multi-token word contract.
            pieces: list = []
            for piece in _WILD_CLEAN.split(body.lower()):
                if not piece:
                    continue
                if "*" in piece or "?" in piece:
                    if piece.strip("*?"):  # an all-wildcard piece is noise
                        pieces.append(Wildcard(piece))
                else:
                    pieces.append(piece)
            if pieces:
                out.append(("pieces", field, pieces))
        else:
            out.append(("word", field, _TOKEN.findall(body.lower())))
    return out


def _negate(node):
    kind = node[0]
    if kind == "leaf":
        _, f, t, neg = node
        return ("leaf", f, t, not neg)
    if kind == "wordand":
        # a multi-token WORD is one lexical unit: ``NOT foo-bar`` excludes
        # each of its tokens independently (the pre-parens pinned contract),
        # NOT De Morgan — parenthesized groups get proper De Morgan below
        return ("wordand", [_negate(c) for c in node[1]])
    if kind == "and":
        return ("or", [_negate(c) for c in node[1]])
    return ("and", [_negate(c) for c in node[1]])


# bounds on adversarial queries: each '(' or NOT nests one level of the
# recursive descent, and an AND of OR-groups multiplies the DNF group count
MAX_QUERY_DEPTH = 64
MAX_DNF_GROUPS = 4096


def _parse_or(toks: list, i: int, depth: int = 0):
    nodes = []
    node, i = _parse_and(toks, i, depth)
    if node is not None:
        nodes.append(node)
    while i < len(toks) and toks[i] == "OR":
        node, i = _parse_and(toks, i + 1, depth)
        if node is not None:
            nodes.append(node)
    if not nodes:
        return None, i
    return (("or", nodes) if len(nodes) > 1 else nodes[0]), i


def _parse_and(toks: list, i: int, depth: int):
    nodes = []
    while i < len(toks) and toks[i] not in ("OR", ")"):
        if toks[i] == "AND":
            i += 1
            continue
        node, i = _parse_unary(toks, i, depth)
        if node is not None:
            nodes.append(node)
    if not nodes:
        return None, i
    return (("and", nodes) if len(nodes) > 1 else nodes[0]), i


def _parse_unary(toks: list, i: int, depth: int):
    t = toks[i]
    if t in ("NOT", "(") and depth >= MAX_QUERY_DEPTH:
        raise ValueError(
            f"query nesting deeper than {MAX_QUERY_DEPTH} levels is not supported"
        )
    if t == "NOT":
        if i + 1 >= len(toks):
            return None, i + 1
        nxt = toks[i + 1]
        if isinstance(nxt, str) and nxt not in ("(", "NOT"):
            # vacuous NOT ('a NOT OR b', '(a NOT)'): drop the NOT and do
            # NOT consume the operator — it belongs to the outer parse
            return None, i + 1
        node, i = _parse_unary(toks, i + 1, depth + 1)
        return (None if node is None else _negate(node)), i
    if t == "(":
        node, i = _parse_or(toks, i + 1, depth + 1)
        if i < len(toks) and toks[i] == ")":
            i += 1
        return node, i
    # stray ')' is consumed by _parse_and's stop condition; here only
    # word/phrase/wild tuples remain — treat any other raw operator string
    # that slipped through as noise rather than destructuring it
    i += 1
    if not isinstance(t, tuple):
        return None, i
    kind, field, body = t
    if kind == "pieces":
        # mixed word/wildcard pieces of ONE source word: a single lexical
        # unit (wordand), so NOT distributes over every piece
        leaves = [("leaf", field, p, False) for p in body]
        return (("wordand", leaves) if len(leaves) > 1 else leaves[0]), i
    if kind == "phrase":
        if not body:
            return None, i
        if len(body) == 1:  # one-token "phrase" is a plain term (Whoosh)
            return ("leaf", field, body[0], False), i
        return ("leaf", field, tuple(body), False), i
    leaves = [("leaf", field, tok, False) for tok in body]
    if not leaves:
        return None, i
    return (("wordand", leaves) if len(leaves) > 1 else leaves[0]), i


def _dnf(node) -> list[list[QueryLeaf]]:
    """DNF expansion; raises before any intermediate exceeds
    ``MAX_DNF_GROUPS`` (a child's DNF is never empty, so the group count
    only grows on the way up)."""
    kind = node[0]
    if kind == "leaf":
        _, f, t, neg = node
        return [[(f, t, neg)]]
    if kind in ("and", "wordand"):
        out: list[list[QueryLeaf]] = [[]]
        for ch in node[1]:
            sub = _dnf(ch)
            _check_groups(len(out) * len(sub))
            out = [g + h for g in out for h in sub]
        return out
    out = []
    for ch in node[1]:
        out += _dnf(ch)
        _check_groups(len(out))
    return out


def _check_groups(n: int) -> None:
    if n > MAX_DNF_GROUPS:
        raise ValueError(
            f"query expands to more than {MAX_DNF_GROUPS} AND-groups "
            "and is not supported"
        )


def parse_query(query_str: str) -> list[list[QueryLeaf]]:
    """Parse a user query string into disjunctive normal form — the
    stand-in for the reference's ``MultifieldParser(["title", "content"])``
    with Whoosh's default AndGroup (indexer/indexer_node.py:151-162, which
    feeds the raw user string to Whoosh's full grammar: parens, quoted
    phrases, AND/OR/NOT).

    Returns OR-groups: a list of AND-groups, each a list of
    ``(field, term, negated)`` leaves where ``field`` is ``"title"`` /
    ``"content"`` or ``None`` (bare — matches either field, the multifield
    default) and ``term`` is a single token (str) or a PHRASE (tuple of
    tokens — matched by positional adjacency in the restricted field).

    Grammar (recursive descent):

    - adjacency and ``AND`` both conjoin (Whoosh AndGroup); ``OR``
      alternates; ``( ... )`` nests; the DNF expansion distributes
      conjunctions over nested ORs;
    - ``NOT`` negates the next unary: a leaf directly, a parenthesized
      group via De Morgan (``NOT (a OR b)`` -> ``NOT a AND NOT b``).  A
      multi-token WORD (``foo-bar``) is one lexical unit — ``NOT foo-bar``
      negates each of its tokens in place (pinned pre-parens contract);
    - ``"quoted words"`` is a phrase leaf; ``title:"quoted words"``
      restricts it to one field; a one-token phrase degrades to a term;
    - a word containing ``*`` / ``?`` is a WILDCARD leaf (Whoosh's
      WildcardPlugin): the pattern is lowercased, kept verbatim (never
      stemmed), and expanded against the index vocabulary at query time;
      an all-wildcard token (bare ``*``) is dropped as noise;
    - ``field:word`` restricts a leaf to one recognized field —
      case-SENSITIVELY, like Whoosh field names (an unrecognized prefix
      such as ``TITLE:`` or ``xyz:`` stays part of the term text);
    - operator words must be UPPERCASE (Whoosh default) — lowercase
      ``and``/``or``/``not`` are ordinary terms;
    - each source word is normalized through the index tokenizer; a word
      that splits into several tokens contributes each token as a leaf
      with the same field/negation.

    Empty groups (e.g. from ``OR OR``) are dropped.  Stemming is NOT
    applied here — the caller stems leaves (phrase constituents included)
    with the index's own ``_prep_terms`` so parsed queries match both stem
    modes.

    Bounded: raises ``ValueError`` when parens/NOTs nest deeper than
    ``MAX_QUERY_DEPTH`` or the DNF would exceed ``MAX_DNF_GROUPS`` groups,
    so adversarial input costs bounded time and memory.
    """
    root, _ = _parse_or(_lex_query(query_str), 0)
    if root is None:
        return []
    return [grp for grp in _dnf(root) if grp]


# ------------------------------------------------------------ search config

QUERY_TERMS = ("customer", "join", "window")  # the pinned benchmark query
# the pinned field-query benchmark: exercises field restriction, AND/OR
# grouping, and NOT exclusion through parse_query + SearchIndex.search
FIELD_QUERY = "title:customer AND content:join OR window NOT title:data"
# the pinned PHRASE-query benchmark: a quoted phrase (positional-postings
# adjacency match; Whoosh's MultifieldParser accepts quoted phrases by
# default, indexer/indexer_node.py:170-178) mixed with boolean/field leaves
PHRASE_QUERY = '"customer join" OR window NOT title:data'
# the pinned NESTED-boolean benchmark: parenthesized OR-group distributed
# over AND, plus a De Morgan'd NOT-group containing a phrase
NESTED_QUERY = (
    '(title:customer OR content:join) AND window NOT (data OR "stream sort")'
)
# the pinned WILDCARD benchmark: prefix expansion against the vocabulary
# (cust* -> customer, ...), field-restricted single-char '?', NOT-exclusion
WILDCARD_QUERY = "cust* AND title:s?rt NOT wind*"
TOP_K = 20
IDF_SCALE = 1000
SNIPPET_CHARS = 200  # v3 fallback snippet length (indexer_node.py:166-171)

# ---- document-fields model (the reference's Whoosh schema, indexer/
# indexer_node.py:63-70: url=ID stored unique, title=TEXT, content=TEXT,
# domain=ID stored, crawl_date=STORED).  The documents fixture has no title/
# url column, so the fields derive DETERMINISTICALLY from (doc_id, text,
# source) — identically in Python and in the DuckDB oracle, so BM25F stays
# hash-checkable:
#   title      = text[:TITLE_CHARS]   (head surrogate; tokenized separately,
#                so a token truncated at the cut scores as its prefix)
#   content    = text                  (full body)
#   domain     = source                (the reference derives domain from the
#                url, indexer_node.py:89 — source is the fixture's analog)
#   url        = "doc://" + source + "/" + doc_id  (content-addressed key)
#   crawl_date = "2025-06-%02d" % (1 + doc_id % 28) — deterministic stand-in
#                for the reference's index-time time.strftime (a wall-clock
#                read would never hash-match)
TITLE_CHARS = 64
BM25_TOP_K = 10  # the reference's search() default max_results=10

# BM25F constants as exact rationals so scoring is integer arithmetic end to
# end (k1 = 6/5, b = 3/4; Whoosh BM25F defaults) with a 2x title boost:
#   tf_w = BOOST_TITLE*tf_title + tf_content,  dl = BOOST_TITLE*len_title +
#   len_content,  avgdl = total_dl/N.  Per-term contribution
#     idf * (k1+1)*tf_w / (tf_w + k1*(1 - b + b*dl/avgdl))
#   multiplied through by 10*total_dl becomes the all-integer form
#     (idf * 22*tf_w*total_dl) // (10*total_dl*tf_w + 3*total_dl + 9*dl*N)
#   which Python and DuckDB floor-divide identically (all terms positive).
#   int64 bound (r4 advice): idf <= N*IDF_SCALE and total_dl ~ N*avgdl, so
#   the numerator ~ 22000 * N^2 * avgdl * tf_w overflows 2^63 already around
#   N ~ 2*10^5 docs of 10^3 tokens (a df=1 term at N=10^6/avgdl=10^3 reaches
#   ~2.2e19) — well inside the reference's <=1M-doc envelope.  Python-int
#   arithmetic (bm25f_contribution) is exact at any scale; the VECTORIZED
#   paths must go through bm25f_contrib_vec, which bounds-checks the
#   intermediates and falls back to object-dtype (Python-int) arrays when
#   int64 could wrap.  The final score always fits: contribution <=
#   idf*22//10 <= 2.2*N*IDF_SCALE.
BOOST_TITLE = 2


def derive_url(doc_id: int, source: str) -> str:
    return f"doc://{source}/{doc_id}"


def derive_crawl_date(doc_id: int) -> str:
    return f"2025-06-{1 + doc_id % 28:02d}"


# ------------------------------------------------------------- highlights


def highlight(
    text: str,
    terms=QUERY_TERMS,
    n_frags: int = 2,
    frag_chars: int = 60,
) -> str:
    """Whoosh-style best-fragment highlighting (v3 ``highlights(top=2)`` with
    the 200-char fallback, indexer/indexer_node.py:166-171).

    Deterministic re-implementation of the contract, not the library: term
    occurrences (v1 tokenizer) anchor ±``frag_chars`` windows; overlapping
    windows merge into one fragment; fragments rank by (distinct terms DESC,
    match count DESC, position ASC); the best ``n_frags`` render in document
    order with matches wrapped in ``<b>…</b>`` and joined by ``...``.  A doc
    with no match falls back to ``text[:200]`` exactly like v3.
    """
    tset = set(terms)
    # scan the ORIGINAL text (ASCII case-insensitive token pattern) so match
    # offsets index `text` directly — offsets taken on text.lower() shift
    # whenever a case mapping changes string length (e.g. 'İ' -> 2 chars)
    matches = [
        (m.start(), m.end(), m.group().lower())
        for m in _TOKEN_CI.finditer(text)
        if m.group().lower() in tset
    ]
    if not matches:
        return text[:SNIPPET_CHARS]
    # merge matches into fragments: consecutive matches whose windows touch
    frags: list[list[tuple[int, int, str]]] = [[matches[0]]]
    for m in matches[1:]:
        if m[0] - frags[-1][-1][1] <= 2 * frag_chars:
            frags[-1].append(m)
        else:
            frags.append([m])

    def frag_key(fr):
        return (-len({t for _, _, t in fr}), -len(fr), fr[0][0])

    best = sorted(sorted(frags, key=frag_key)[:n_frags], key=lambda fr: fr[0][0])
    out: list[str] = []
    for fr in best:
        a = max(0, fr[0][0] - frag_chars)
        b = min(len(text), fr[-1][1] + frag_chars)
        piece: list[str] = []
        pos = a
        for s, e, _t in fr:
            piece.append(text[pos:s])
            piece.append("<b>" + text[s:e] + "</b>")
            pos = e
        piece.append(text[pos:b])
        out.append("".join(piece))
    joined = "...".join(out)
    if best[0][0][0] - frag_chars > 0:
        joined = "..." + joined
    if best[-1][-1][1] + frag_chars < len(text):
        joined = joined + "..."
    return joined


# ----------------------------------------------------------------- BM25F


def bm25f_contribution(
    idf: int, tf_w: int, dl: int, total_dl: int, n: int
) -> int:
    """One term's integer BM25F contribution (see the derivation at the
    constants above) — the scalar reference the vector kernel and the
    brute-force tests are checked against."""
    den = 10 * total_dl * tf_w + 3 * total_dl + 9 * dl * n
    return (idf * 22 * tf_w * total_dl) // den if den > 0 else 0


def bm25f_contrib_vec(idf, tf_w, dl, total_dl: int, n: int) -> np.ndarray:
    """Vectorized ``bm25f_contribution`` over per-row arrays, overflow-safe
    (r4 advice): int64 kernels run only when a conservative bound proves no
    intermediate can exceed 2^62; otherwise the identical arithmetic runs on
    object-dtype arrays (elementwise Python ints — exact at any corpus
    size), so the vector paths can never silently wrap negative and diverge
    from the per-row Python / DuckDB oracle arithmetic.

    ``idf`` may be a scalar (one term's idf) or a per-row array.  The
    RESULT always fits int64: contribution <= idf*22//10 <= 2.2*n*IDF_SCALE.
    """
    tf_w = np.asarray(tf_w, dtype=np.int64)
    dl = np.asarray(dl, dtype=np.int64)
    nrows = len(tf_w)
    if nrows == 0:
        return np.zeros(0, dtype=np.int64)
    idf_arr = np.asarray(idf, dtype=np.int64)
    if idf_arr.ndim == 0:
        idf_arr = np.broadcast_to(idf_arr, (nrows,))
    total_dl = int(total_dl)
    n = int(n)
    max_idf = int(idf_arr.max())
    max_tfw = int(tf_w.max())
    max_dl = int(dl.max())
    num_bound = max_idf * 22 * max_tfw * total_dl
    den_bound = 10 * total_dl * max_tfw + 3 * total_dl + 9 * max_dl * n
    if num_bound < 2**62 and den_bound < 2**62:
        den = 10 * total_dl * tf_w + 3 * total_dl + 9 * dl * n
        num = idf_arr * 22 * tf_w * total_dl
        return np.where(den > 0, num // np.maximum(den, 1), 0).astype(np.int64)
    # big-int path: object arrays carry Python ints, floor division is exact
    tfw_o = tf_w.astype(object)
    dl_o = dl.astype(object)
    den = 10 * total_dl * tfw_o + 3 * total_dl + 9 * dl_o * n
    num = idf_arr.astype(object) * (22 * total_dl) * tfw_o
    out = np.where(den > 0, num // np.maximum(den, 1), 0)
    return out.astype(np.int64)
