"""CLI surface (main.py): the reference's /search?max_results= parameter is
the -k flag (indexer/indexer_node.py:151-158); index/search subcommands run
in-process against the pytest Ray session (the CLI only shuts down a session
it created itself)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from distributed_web_crawling_system_ray.main import main


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    docs = root / "docs.parquet"
    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    pq.write_table(t, docs)
    d = str(root / "idx")
    rc = main(["index", "--docs", str(docs), "--index-dir", d])
    assert rc == 0
    return d


def _run(capsys, argv):
    rc = main(argv)
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_search_k_limits_results(capsys, index_dir):
    """-k is the reference's max_results: each mode returns exactly k rows
    (corpus has far more matches) and k=3 ⊂ k=7 prefix-wise (stable rank)."""
    for mode in ("topk", "bm25f"):
        out3 = _run(
            capsys,
            ["search", "--index-dir", index_dir, "--query", "query", "-k", "3",
             "--mode", mode],
        )["result"]
        out7 = _run(
            capsys,
            ["search", "--index-dir", index_dir, "--query", "query", "-k", "7",
             "--mode", mode],
        )["result"]
        assert len(out3) == 3 and len(out7) == 7
        assert out7[:3] == out3


def test_cli_query_mode_k(capsys, index_dir):
    out = _run(
        capsys,
        ["search", "--index-dir", index_dir, "--query", "query OR window",
         "-k", "5", "--mode", "query"],
    )["result"]
    assert len(out) == 5


def test_cli_stats_and_and_mode(capsys, index_dir):
    stats = _run(
        capsys, ["search", "--index-dir", index_dir, "--query", "-",
                 "--mode", "stats"],
    )["result"]
    assert stats["document_count"] == 500
    anded = _run(
        capsys, ["search", "--index-dir", index_dir, "--query", "query window",
                 "--mode", "and"],
    )["result"]
    assert len(anded) > 0


def test_cli_rejects_negative_k(capsys, index_dir):
    with pytest.raises(SystemExit):
        main(["search", "--index-dir", index_dir, "--query", "query", "-k", "-1"])
    assert "must be >= 0" in capsys.readouterr().err


def test_cli_does_not_shut_down_foreign_ray_session(index_dir):
    import ray

    assert ray.is_initialized()  # survived every main() call above
