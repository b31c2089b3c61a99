"""Training-data operator tests: sketch-based ops validated against exact
brute-force ground truth (the non-SQL-checkable entries), plus determinism."""

import os

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"
# the t2-fixture corpus: its image table has planted near-dups
SF_T2 = os.path.join(os.path.dirname(SF), "sf0.01")


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


FAMILY = (
    "doc_lsh_candidates",
    "doc_near_dup_pairs",
    "doc_simhash_pairs",
    "doc_dedup_clusters",
    "emb_near_dup_pairs",
    "emb_dedup_clusters",
    "image_phash_near_dup",
    "image_phash_clusters",
)


def _task_plan(m, S: int) -> None:
    """Every near-dup bound at 0, so each op runs as plain Ray tasks, with
    S pieces."""
    from distributed_web_crawling_system_ray.pipelines import dataops, exchange

    for bound in ("DOC_DRIVER_ROWS", "IMAGE_DRIVER_ROWS", "EMB_BLOCK_ROWS"):
        m.setattr(dataops, bound, 0)
    m.setattr(exchange, "_shard_count", lambda: S)


@pytest.fixture(scope="module")
def family_runs(ray_session):
    """All eight near-dup family outputs on sf0.001 and sf0.01: at the
    default bounds (every corpus here is driver-sized: the inline path),
    and on the task plan at S=1 and S=3, keyed ``(sf, "driver" or S)``."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    runs = {}
    for sf in (SF, SF_T2):
        runs[sf, "driver"] = {fn: getattr(dataops, fn)(sf) for fn in FAMILY}
        for S in (1, 3):
            with pytest.MonkeyPatch.context() as m:
                _task_plan(m, S)
                runs[sf, S] = {fn: getattr(dataops, fn)(sf) for fn in FAMILY}
    return runs


def _check_family(runs) -> None:
    """Every task-plan output is ``Table.equals`` (schema included) to the
    driver's, and the pair sets are non-vacuous."""
    for sf in (SF, SF_T2):
        base = runs[sf, "driver"]
        assert base["doc_near_dup_pairs"].num_rows > 0
        assert base["emb_near_dup_pairs"].num_rows > 0
        for S in (1, 3):
            for fn in FAMILY:
                assert runs[sf, S][fn].equals(base[fn]), (sf, S, fn)
    assert runs[SF_T2, "driver"]["image_phash_near_dup"].num_rows > 0


def _texts():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()))


_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    """``dataops._mix64`` on one Python int."""
    x ^= x >> 33
    x = x * 0xFF51AFD7ED558CCD & _M64
    x ^= x >> 33
    x = x * 0xC4CEB9FE1A85EC53 & _M64
    return x ^ (x >> 33)


def _ref_minhash_sig(text: str) -> np.ndarray:
    """Per-doc reference MinHash signature: each shingle's hash folds its
    SHINGLE_K token hashes with a chained ``_mix(h ^ t_j)``; per
    permutation the min of ``_mix64(h ^ seed)``, all-max with no shingle."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    toks = [dataops._h64(w) for w in text.split()]
    sh = []
    for i in range(len(toks) - dataops.SHINGLE_K + 1):
        h = 0
        for t in toks[i : i + dataops.SHINGLE_K]:
            h = _mix(h ^ t)
        sh.append(h)
    if not sh:
        return np.full(dataops.N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    m = np.array(sh, dtype=np.uint64)[None, :] ^ dataops._PERM_SEEDS[:, None]
    return dataops._mix64(m).min(axis=1)


def _ref_band_row(text: str) -> list[int]:
    """Per-doc reference of one ``_minhash_band_matrix`` row."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    sig = _ref_minhash_sig(text).reshape(dataops.N_BANDS, -1).tolist()
    out = []
    for band in sig:
        h = 0
        for r in band:
            h = _mix(h ^ r)
        out.append(h)
    return out


def _ref_simhash64(tokens: list[str]) -> int:
    """The per-doc SimHash loop the batched ``_simhash_sigs`` replaced."""
    from distributed_web_crawling_system_ray.pipelines.dataops import _h64_md5

    if not tokens:
        return 0
    hs = np.fromiter((_h64_md5(t) for t in tokens), dtype=np.uint64, count=len(tokens))
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int32
    )
    v = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if v[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out)


def _check_sketches(texts: list[str]) -> None:
    """The batched MinHash band matrix and SimHash signatures of ``texts``
    equal the per-doc references, bit for bit."""
    import pyarrow as pa

    from distributed_web_crawling_system_ray.pipelines import dataops

    ids = pa.array(range(len(texts)), pa.int64())
    batch = pa.table({"doc_id": ids, "text": pa.array(texts, pa.string())})
    band = dataops._minhash_band_matrix(batch)
    assert band.shape == (len(texts), dataops.N_BANDS)
    assert band.tolist() == [_ref_band_row(t) for t in texts]
    sigs = dataops._simhash_sigs(batch)
    assert sigs.column("doc_id").equals(batch.column("doc_id"))
    assert sigs.schema.field("sig").type == pa.uint64()
    assert sigs.column("sig").to_pylist() == [_ref_simhash64(t.split()) for t in texts]


def test_batched_sketches_match_per_doc_references():
    """Property test of the two doc-sketch kernels: any batch — docs of 0,
    1 and 2 tokens, repeated shingles, whitespace ``str.split`` splits on
    (``\\x1c``, ``\\x85``, ``\\u3000``) and ``\\u200b``, which it does not —
    at any shingle-chunk size, so chunk boundaries fall inside and between
    docs.  Then fixed batches: only empty docs, and a doc of more than 20k
    tokens (many chunks at the default budget) between short ones."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from distributed_web_crawling_system_ray.pipelines import dataops

    word = st.sampled_from(["a", "b", "ab", "é", "x\u200by", "\u200b", "日本"])
    sep = st.sampled_from([" ", "\t", "\n", "  ", "\x1c", "\x85", "\u3000"])
    words = st.lists(st.tuples(sep, word), max_size=12)
    doc = st.tuples(words, st.sampled_from(["", " "])).map(
        lambda d: "".join(s + w for s, w in d[0]) + d[1]
    )

    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(doc, max_size=8), chunk=st.integers(1, 9))
    def check(texts, chunk):
        budget = dataops._MINHASH_CHUNK
        dataops._MINHASH_CHUNK = chunk
        try:
            _check_sketches(texts)
        finally:
            dataops._MINHASH_CHUNK = budget

    check()
    _check_sketches([""] * 3)
    _check_sketches(["", " \x85 \u3000", "\t"])
    rng = np.random.default_rng(5)
    long_doc = " ".join(rng.choice(["a", "b", "c", "d", "e"], size=20_500))
    assert len(long_doc.split()) > 40 * dataops._MINHASH_CHUNK
    _check_sketches(["a b", long_doc, "", "c d e", long_doc[:999]])


def test_sketches_hash_each_distinct_token_once(monkeypatch):
    """Signing one batch calls the token hash (``_h64`` for MinHash,
    ``_h64_md5`` for SimHash) exactly once per distinct token of the batch:
    no per-shingle or per-occurrence hashing."""
    import pyarrow.parquet as pq

    from distributed_web_crawling_system_ray.pipelines import dataops

    batch = pq.read_table(f"{SF_T2}/documents.parquet", columns=["doc_id", "text"])
    texts = batch.column("text").to_pylist()
    distinct = {w for t in texts for w in t.split()}
    assert sum(len(t.split()) for t in texts) > 10 * len(distinct)  # non-vacuous
    for name, sign in (
        ("_h64", lambda: dataops._minhash_band_matrix(batch)),
        ("_h64_md5", lambda: dataops._simhash_sigs(batch)),
    ):
        calls: list[str] = []
        fn = getattr(dataops, name)
        with monkeypatch.context() as m:
            m.setattr(dataops, name, lambda s, fn=fn: calls.append(s) or fn(s))
            sign()
        assert len(calls) == len(distinct) and set(calls) == distinct, name


def test_near_dup_pairs_match_bruteforce():
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        JACCARD_TAU,
        _shingles,
        doc_near_dup_pairs,
    )

    texts = _texts()
    sh = {d: set(_shingles(t)) for d, t in texts.items()}
    ids = sorted(sh)
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if not sh[a] and not sh[b]:
                continue
            inter = len(sh[a] & sh[b])
            if inter / (len(sh[a]) + len(sh[b]) - inter) >= JACCARD_TAU:
                want.add((a, b))
    got_tbl = doc_near_dup_pairs(SF)
    got = set(zip(got_tbl.column("a").to_pylist(), got_tbl.column("b").to_pylist()))
    assert got == want
    assert len(want) > 0  # the testdata plants near-dups; non-vacuous


def test_near_dup_pairs_invariant_to_verify_pieces(family_runs):
    """The doc verify routes pair ``(a, b)`` to piece ``a % S``: at S=3 the
    candidates of both corpora fall into more than one piece, and the
    verified pairs (and every other family output) are byte-identical to
    the driver's single piece and to S=1."""
    for sf in (SF, SF_T2):
        cands = family_runs[sf, "driver"]["doc_lsh_candidates"]
        a = cands.column("a").to_numpy()
        assert len(set((a % 3).tolist())) > 1  # non-vacuous: several pieces
    _check_family(family_runs)


def test_lsh_candidates_emitted_once(family_runs):
    """The LSH band join emits every doc pair that shares at least one band
    exactly once (from its lowest colliding band), inline on the driver
    and on the task plan at S=1 (one join task, every band) and S=3 (band
    c in task c % 3) — brute force compares the raw MinHash band values of
    the per-doc reference."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    texts = _texts()
    ids = sorted(texts)
    bands = {d: _ref_minhash_sig(texts[d]).reshape(dataops.N_BANDS, -1) for d in ids}
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            if (bands[a] == bands[b]).all(axis=1).any():
                want.add((a, b))
    assert len(want) > 0  # non-vacuous

    for mode in ("driver", 1, 3):
        got = family_runs[SF, mode]["doc_lsh_candidates"]
        pairs = list(zip(got.column("a").to_pylist(), got.column("b").to_pylist()))
        assert set(pairs) == want, mode
        assert got.num_rows == len(want), mode  # no pair leaves two bands
    _check_family(family_runs)


def test_simhash_pairs_no_false_positives_and_deterministic():
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        SIMHASH_HAMMING_MAX,
        doc_simhash_pairs,
    )

    texts = _texts()
    sigs = {d: _ref_simhash64(t.split()) for d, t in texts.items()}
    got1 = doc_simhash_pairs(SF)
    got2 = doc_simhash_pairs(SF)
    assert got1.equals(got2)  # deterministic
    # banding is exhaustive for Hamming <= max (pigeonhole): compare to brute
    ids = sorted(sigs)
    want = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(sigs[ids[i]] ^ sigs[ids[j]]).count("1") <= SIMHASH_HAMMING_MAX:
                want.add((ids[i], ids[j]))
    got = set(zip(got1.column("a").to_pylist(), got1.column("b").to_pylist()))
    assert got == want
    assert got1.num_rows == len(want)  # every pair exactly once


def test_ann_lsh_recall():
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        ann_topk,
        ann_topk_lsh,
    )

    exact = set(
        zip(
            ann_topk(SF).column("query_id").to_pylist(),
            ann_topk(SF).column("vec_id").to_pylist(),
        )
    )
    approx = set(
        zip(
            ann_topk_lsh(SF).column("query_id").to_pylist(),
            ann_topk_lsh(SF).column("vec_id").to_pylist(),
        )
    )
    recall = len(exact & approx) / len(exact)
    # near-isotropic vectors are LSH-adversarial; still must beat random
    # candidate sampling by a wide margin
    assert recall >= 0.3, recall


def test_exact_dedup_covers_all_texts():
    from distributed_web_crawling_system_ray.pipelines.dataops import doc_exact_dedup

    texts = _texts()
    out = doc_exact_dedup(SF)
    assert out.num_rows == len(set(texts.values()))
    # kept ids are the minimum per duplicate group
    import hashlib

    first: dict[str, int] = {}
    for d in sorted(texts):
        h = hashlib.md5(texts[d].encode()).hexdigest()
        first.setdefault(h, d)
    got = dict(
        zip(out.column("text_hash").to_pylist(), out.column("doc_id").to_pylist())
    )
    assert got == first


def test_langid_deterministic_and_total():
    from distributed_web_crawling_system_ray.pipelines.dataops import doc_langid

    out = doc_langid(SF)
    texts = _texts()
    assert out.num_rows == len(texts)
    preds = set(out.column("lang_pred").to_pylist())
    assert preds <= {"en", "es", "de", "fr", "zh", "unknown"}


def test_ann_ivf_full_probe_equals_bruteforce_and_partial_recall():
    """IVF with nprobe == nlist probes every list -> must equal brute force
    exactly; at nprobe = nlist/2 it keeps useful recall and determinism."""
    from distributed_web_crawling_system_ray.pipelines.dataops import (
        ANN_K,
        IVF_NLIST,
        ann_topk,
        ann_topk_ivf,
    )

    brute = ann_topk(SF)
    want = {}
    for q, v in zip(
        brute.column("query_id").to_pylist(), brute.column("vec_id").to_pylist()
    ):
        want.setdefault(q, set()).add(v)

    full = ann_topk_ivf(SF, nprobe=IVF_NLIST)
    got_full = {}
    for q, v in zip(
        full.column("query_id").to_pylist(), full.column("vec_id").to_pylist()
    ):
        got_full.setdefault(q, set()).add(v)
    assert got_full == want

    half = ann_topk_ivf(SF, nprobe=IVF_NLIST // 2)
    again = ann_topk_ivf(SF, nprobe=IVF_NLIST // 2)
    assert half.sort_by([("query_id", "ascending"), ("vec_id", "ascending")]).equals(
        again.sort_by([("query_id", "ascending"), ("vec_id", "ascending")])
    )
    got_half = {}
    for q, v in zip(
        half.column("query_id").to_pylist(), half.column("vec_id").to_pylist()
    ):
        got_half.setdefault(q, set()).add(v)
    recall = sum(len(want[q] & got_half.get(q, set())) for q in want) / (
        len(want) * ANN_K
    )
    assert recall >= 0.3  # isotropic data, half the lists probed


def test_winnow_fingerprints_guarantee_and_determinism():
    """Winnowing's coverage guarantee: documents sharing a sufficiently long
    substring share at least one selected fingerprint — the planted
    near-dup pairs (Jaccard >= 0.8) must collide; fingerprints are
    deterministic and reproducible from the raw text."""
    import hashlib

    from distributed_web_crawling_system_ray.pipelines.dataops import (
        WINNOW_WINDOW,
        _shingles,
        doc_near_dup_pairs,
        doc_winnow_fingerprints,
    )

    t1 = doc_winnow_fingerprints(SF)
    t2 = doc_winnow_fingerprints(SF)
    assert t1.sort_by([("doc_id", "ascending"), ("fp", "ascending")]).equals(
        t2.sort_by([("doc_id", "ascending"), ("fp", "ascending")])
    )
    by_doc: dict[int, set[str]] = {}
    for d, f in zip(t1.column("doc_id").to_pylist(), t1.column("fp").to_pylist()):
        by_doc.setdefault(d, set()).add(f)
    # brute-force recompute for one doc
    texts = _texts()
    some_id = next(iter(by_doc))
    grams = [
        hashlib.md5(s.encode()).hexdigest() for s in _shingles(texts[some_id])
    ]
    want = {
        min(grams[i : i + WINNOW_WINDOW])
        for i in range(len(grams) - WINNOW_WINDOW + 1)
    }
    assert by_doc[some_id] == want
    # guarantee: every verified near-dup pair shares >= 1 fingerprint
    pairs = doc_near_dup_pairs(SF)
    n_pairs = pairs.num_rows
    assert n_pairs > 0
    for a, b in zip(pairs.column("a").to_pylist(), pairs.column("b").to_pylist()):
        assert by_doc.get(a, set()) & by_doc.get(b, set()), (a, b)


def test_doc_dedup_clusters_consistent_with_pairs():
    from conftest import check_cluster_labels

    from distributed_web_crawling_system_ray.pipelines.dataops import (
        doc_dedup_clusters,
        doc_near_dup_pairs,
    )

    pairs = doc_near_dup_pairs(SF)
    comp = check_cluster_labels(pairs, doc_dedup_clusters(SF), "doc_id")
    assert comp  # non-vacuous: real clusters exist


def test_emb_dedup_clusters_consistent_with_pairs():
    from conftest import check_cluster_labels

    from distributed_web_crawling_system_ray.pipelines.dataops import (
        emb_dedup_clusters,
        emb_near_dup_pairs,
    )

    pairs = emb_near_dup_pairs(SF)
    comp = check_cluster_labels(pairs, emb_dedup_clusters(SF), "vec_id")
    assert comp  # non-vacuous


def test_cc_labels_kernel_matches_bfs_components():
    """The vectorized hook-and-shortcut CC kernel equals the exact BFS
    components on random graphs, on string ids (min is lexicographic), and
    on a random-order 10^5-edge chain — the diameter-deep case that made
    one-hop label propagation slow — in bounded time."""
    import time

    from conftest import true_components

    from distributed_web_crawling_system_ray.pipelines.dataops import _cc_labels

    def check(a, b):
        ids, labels = _cc_labels(a, b)
        assert len(ids) == len(set(ids.tolist()))  # one label per id
        assert dict(zip(ids.tolist(), labels.tolist())) == true_components(
            a.tolist(), b.tolist()
        )

    rng = np.random.default_rng(11)
    for n_nodes, n_edges in ((10, 4), (50, 40), (300, 250), (2000, 3000)):
        a = rng.integers(0, n_nodes, size=n_edges) * 7 + 1000  # sparse ids
        b = rng.integers(0, n_nodes, size=n_edges) * 7 + 1000
        check(a, b)
        check(a.astype(str), b.astype(str))  # "1007" < "995": lexicographic
    check(np.zeros(0, np.int64), np.zeros(0, np.int64))

    n = 100_001
    perm = rng.permutation(n)
    order = rng.permutation(n - 1)
    flip = rng.random(n - 1) < 0.5
    a, b = perm[:-1][order], perm[1:][order]
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    t0 = time.perf_counter()
    ids, labels = _cc_labels(a, b)
    dt = time.perf_counter() - t0
    assert len(ids) == n and (labels == 0).all()
    assert dt < 5.0, dt
    check(a, b)


def test_family_outputs_invariant_to_plan_and_piece_count(family_runs):
    """One plan at every size: with every bound at 0 the near-dup family
    runs its sign and join steps as plain Ray tasks, and all eight outputs
    are byte-identical to the inline driver path's at S=1 and S=3 (more
    than one embedding block, bands and blocks spread over join tasks), on
    sf0.001 and sf0.01."""
    _check_family(family_runs)


def test_driver_sized_neardup_pass_runs_no_ray_data_execution(executions):
    """One driver-sized doc / image / embedding dedup-clusters pass (the
    perfbench ``neardup`` op) runs zero Ray Data executions."""
    from distributed_web_crawling_system_ray.pipelines import dataops

    sf = SF_T2
    dataops._images_path(sf)  # the image fixture is built (once) outside
    del executions[:]
    out = [
        dataops.doc_dedup_clusters(sf),
        dataops.image_phash_clusters(sf),
        dataops.emb_dedup_clusters(sf),
    ]
    assert len(executions) == 0
    assert [t.num_rows for t in out] == [500, 1000, 500]


def test_task_plan_gives_the_driver_only_pairs_and_counts(executions, monkeypatch):
    """With every bound at 0 and S=3, a doc, image and embedding
    dedup-clusters pass runs zero Ray Data executions, and every value the
    driver gets from ``ray.get`` is a pair table or a count: no per-(row,
    band) or per-(row, block) table and no text column reaches it."""
    import pyarrow as pa
    import ray

    from distributed_web_crawling_system_ray.pipelines import dataops

    sf = SF_T2
    dataops._images_path(sf)  # the image fixture is built (once) outside
    _task_plan(monkeypatch, 3)
    got = []
    get = ray.get

    def recording_get(*args, **kwargs):
        out = get(*args, **kwargs)
        got.append(out)
        return out

    def leaves(v):
        if isinstance(v, (list, tuple)):
            for x in v:
                yield from leaves(x)
        else:
            yield v

    del executions[:]
    monkeypatch.setattr(ray, "get", recording_get)
    out = [
        dataops.doc_dedup_clusters(sf),
        dataops.image_phash_clusters(sf),
        dataops.emb_dedup_clusters(sf),
    ]
    monkeypatch.setattr(ray, "get", get)
    assert len(executions) == 0
    assert [t.num_rows for t in out] == [500, 1000, 500]
    values = list(leaves(got))
    tables = [v for v in values if isinstance(v, pa.Table)]
    assert len(tables) >= 3 * 3  # non-vacuous: every join and verify piece
    assert all(t.column_names == ["a", "b"] for t in tables), [t.schema for t in tables]
    assert all(isinstance(v, (pa.Table, int, np.integer)) for v in values), values


def test_neardup_exactly_once_under_task_retry(family_runs, tmp_path, monkeypatch):
    """On the task plan at S=3, the first attempt of one MinHash sign task,
    one banded-Hamming join task, one doc verify reduce task and one
    embedding block-pair task dies with its worker, and Ray's default
    retries re-run each: all eight family outputs stay byte-identical to a
    run with no fault."""
    from conftest import _first_call_dies

    from distributed_web_crawling_system_ray.pipelines import dataops

    _task_plan(monkeypatch, 3)
    steps = ("_doc_bands", "_hamming_join", "_verify", "_block_pair")
    for step in steps:
        marker = str(tmp_path / f"{step}.died")
        monkeypatch.setattr(dataops, step, _first_call_dies(getattr(dataops, step), marker))
    for fn in FAMILY:
        assert getattr(dataops, fn)(SF_T2).equals(family_runs[SF_T2, 3][fn]), fn
    for step in steps:
        assert (tmp_path / f"{step}.died").exists(), step  # non-vacuous
