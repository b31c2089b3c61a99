from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def executions(monkeypatch):
    """Counts Ray Data executions: every Dataset consumption (materialize,
    count, iteration) runs one ``StreamingExecutor.execute``."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


def oracle_rows(name: str, sf_dir) -> list[tuple]:
    """Rows of ``__ray_entry__.oracle_sql()[name]`` — the DuckDB direct
    recompute ``tools/check_oracle.py`` hash-checks ``queries()`` against —
    run over a ``documents`` view of ``sf_dir/documents.parquet``.  Compare
    them with an index answer as row lists: in rank order for ranked
    queries, sorted for set-valued ones (``search_and_terms``,
    ``search_term_df``)."""
    import duckdb

    import __ray_entry__

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(__ray_entry__.oracle_sql()[name]).fetchall()


def table_rows(t) -> list[tuple]:
    """An Arrow table as row tuples, comparable with ``oracle_rows``."""
    return list(zip(*(c.to_pylist() for c in t.columns)))


def true_components(pairs_a, pairs_b):
    """Exact connected components (BFS) over the edge list — the ground
    truth the label maps are checked against, so cross-component merges
    (two real clusters sharing a label) are detectable."""
    adj: dict = {}
    for a, b in zip(pairs_a, pairs_b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, comp = set(), {}
    for start in adj:
        if start in seen:
            continue
        stack, members = [start], set()
        while stack:
            u = stack.pop()
            if u in members:
                continue
            members.add(u)
            stack.extend(adj[u] - members)
        seen |= members
        root = min(members)
        for m in members:
            comp[m] = root
    return comp


def check_cluster_labels(pairs, clusters, id_col):
    """Label map == exact BFS components; singletons self-labeled; one row
    per id."""
    lbl = dict(
        zip(
            clusters.column(id_col).to_pylist(),
            clusters.column("cluster_id").to_pylist(),
        )
    )
    comp = true_components(
        pairs.column("a").to_pylist(), pairs.column("b").to_pylist()
    )
    for m, root in comp.items():
        assert lbl[m] == root, (m, lbl[m], root)
    assert all(lbl[s] == s for s in set(lbl) - set(comp))
    assert clusters.num_rows == len(lbl)
    return comp


def check_crawl_matches_oracle(result, oracle) -> None:
    """The crawl's seen set with its (depth, rank_path) lineage, its FIFO
    fetch order and its payload ids (each once) are the oracle's."""
    import pyarrow.compute as pc

    from distributed_web_crawling_system_ray.state.scheduler import ALLOWED

    hist = result.frontier_history()
    got = dict(
        zip(
            hist.column("canon").to_pylist(),
            zip(hist.column("depth").to_pylist(), hist.column("rank_path").to_pylist()),
        )
    )
    assert got == oracle.seen
    sched = result.schedule_history()
    allowed = sched.filter(pc.equal(sched.column("verdict"), ALLOWED))
    rows = sorted(
        zip(
            allowed.column("depth").to_pylist(),
            allowed.column("rank_path").to_pylist(),
            allowed.column("canon").to_pylist(),
        )
    )
    assert [c for _, _, c in rows] == [o["canon_url"] for o in oracle.order]
    payload = result.payload_dataset().to_pandas()
    assert payload["image_id"].is_unique
    assert set(payload["image_id"]) == set(oracle.images.keys())


def _first_call_dies(fn, marker: str, skip: int = 0):
    """``fn``, except that one call creates ``marker`` and kills its
    process, as a lost worker would: the first call, in any process, that
    comes after ``skip`` earlier calls of the same unpickled copy (one task
    attempt).  Ray then retries the task, and the retry finds the marker
    and runs ``fn``."""
    import os

    calls = []

    def once(*args, **kwargs):
        calls.append(1)
        if len(calls) > skip:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return fn(*args, **kwargs)
            os._exit(1)
        return fn(*args, **kwargs)

    return once
