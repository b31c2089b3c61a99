"""Driver-mimic: run every queries() entry at a given sf_dir and compare
against oracle_sql() via DuckDB (row count + schema + order-insensitive
value hash), like the driver's CORRECTNESS gate.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

# the checkout this script lives in, whatever the working directory
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    raise TypeError(type(obj))


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    # normalize dtypes: ints to int64, floats rounded
    rows = []
    for _, row in df.iterrows():
        rows.append(tuple(str(v) for v in row))
    rows.sort()
    h = hashlib.md5()
    for r in rows:
        h.update(("|".join(r) + "\n").encode("utf-8"))
    return h.hexdigest()


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # the driver and the Ray workers both import this checkout's package
    sys.path.insert(0, REPO)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local",
        num_cpus=os.cpu_count(),
        include_dashboard=False,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    fails = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray query raised {type(e).__name__}: {e}")
            fails += 1
            continue
        ray_t = time.time() - t0
        if name not in sqls:
            print(f"ok   {name}: rows-only ({len(got)} rows, {ray_t:.1f}s)")
            continue
        t0 = time.time()
        try:
            want = con.sql(sqls[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle SQL raised {type(e).__name__}: {e}")
            fails += 1
            continue
        sql_t = time.time() - t0
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(want)
        status = "PASS" if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            fails += 1
        print(
            f"{status} {name}: rows {len(got)}/{len(want)} cols_ok={ok_cols} "
            f"hash_ok={ok_hash} (ray {ray_t:.1f}s, sql {sql_t:.1f}s)"
        )
        if status == "FAIL" and ok_cols:
            m = got.merge(want, how="outer", indicator=True)
            diff = m[m["_merge"] != "both"]
            print(diff.head(6).to_string())
    ray.shutdown()
    return fails


if __name__ == "__main__":
    raise SystemExit(main())
