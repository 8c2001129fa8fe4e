"""Local replica of the driver's correctness gate: run each queries()
entry and compare against oracle_sql() via DuckDB (row count, schema
names, order-insensitive values). Usage:

    python scripts/check_correctness.py [sf_dir] [query1,query2,...]

An optional comma-separated second argument restricts the gate to the
named queries (fast re-check after touching one operator family).
"""

import os
import sys
import time

# the checkout this script lives in, for this process and (inherited
# through PYTHONPATH) the Ray workers it starts
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
)


def norm_df(df):
    import pandas as pd

    import numpy as np

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(
            df[c].iloc[0], (list, tuple, np.ndarray)
        ):
            df[c] = df[c].map(
                lambda v: tuple(
                    round(float(x), 6)
                    if isinstance(x, (float, np.floating))
                    else x
                    for x in v
                )
            )
        try:
            import numpy as np

            if np.issubdtype(df[c].dtype, np.floating):
                df[c] = df[c].round(6)
        except Exception:
            pass
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


def main():
    import logging

    import duckdb
    import ray
    import ray.data

    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            logging_level="ERROR",
        )
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import __ray_entry__ as E

    # the FULL surface (driver-retired twins included) when available;
    # the driver itself sees the consolidated 50-entry queries()
    qs = E.full_queries() if hasattr(E, "full_queries") else E.queries()
    if len(sys.argv) > 2:
        only = set(sys.argv[2].split(","))
        unknown = only - set(qs)
        if unknown:
            raise SystemExit(f"unknown queries: {sorted(unknown)}")
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = (
        E.full_oracle_sql()
        if hasattr(E, "full_oracle_sql")
        else E.oracle_sql()
    )
    con = duckdb.connect()
    for tname in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings".split()
    ):
        con.sql(
            f"CREATE VIEW {tname} AS SELECT * FROM '{sf}/{tname}.parquet'"
        )

    failures = []
    for name, fn in qs.items():
        t0 = time.time()
        try:
            res = fn(sf)
            if hasattr(res, "to_pandas"):
                df = res.to_pandas()
            else:
                df = res
            el = time.time() - t0
        except Exception as e:
            failures.append((name, f"RAY ERROR: {e}"))
            print(f"{name:24s} RAY-ERROR {e}")
            continue
        if name not in oracles:
            print(f"{name:24s} rows={len(df):7d} ({el:5.1f}s) [rows-only]")
            continue
        t1 = time.time()
        odf = con.sql(oracles[name]).df()
        oel = time.time() - t1
        a, b = norm_df(df), norm_df(odf)
        status = "OK"
        if list(a.columns) != list(b.columns):
            status = f"SCHEMA MISMATCH {list(a.columns)} vs {list(b.columns)}"
        elif len(a) != len(b):
            status = f"ROWCOUNT {len(a)} vs {len(b)}"
        else:
            try:
                import pandas as pd

                # exact: the driver hashes values, so any bit-level
                # divergence after the shared round-6 rule must fail here
                pd.testing.assert_frame_equal(
                    a, b, check_dtype=False, check_exact=True
                )
            except AssertionError as e:
                status = "VALUES MISMATCH: " + str(e).split("\n")[0]
        if status != "OK":
            failures.append((name, status))
        print(
            f"{name:24s} rows={len(df):7d} ({el:5.1f}s ray, {oel:4.1f}s sql)"
            f" {status}"
        )
    print()
    if failures:
        print("FAILURES:")
        for n, s in failures:
            print(" ", n, s)
        sys.exit(1)
    print("all queries consistent with oracles")
    ray.shutdown()


if __name__ == "__main__":
    main()
