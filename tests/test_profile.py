"""profile_table on a frame with planted nulls / duplicates."""

import numpy as np
import pandas as pd

from bern_ray.functions.profile import profile_table


def test_profile_nulls_distinct_minmax(ray_session):
    import ray.data

    n = 1000
    df = pd.DataFrame(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": np.where(np.arange(n) % 7 == 0, np.nan, (np.arange(n) % 5) * 1.5),
            "s": pd.Series(
                [None if i % 11 == 0 else f"s{i % 13}" for i in range(n)]
            ),
            "t": pd.to_datetime("2024-01-01")
            + pd.to_timedelta(np.arange(n) % 50, unit="h"),
        }
    )
    ds = ray.data.from_pandas(df).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )
    out = (
        profile_table(ds, ["k", "v"], ["s"], ["t"], num_buckets=4)
        .to_pandas()
        .set_index("col")
    )
    assert out.loc["k", "n_rows"] == n
    assert out.loc["k", "n_null"] == 0
    assert out.loc["k", "n_distinct"] == n
    assert out.loc["k", "min_num"] == 0.0 and out.loc["k", "max_num"] == n - 1
    # v: ceil(1000/7)=143 nulls; distinct non-null values = {0,1.5,3,4.5,6}
    assert out.loc["v", "n_null"] == 143
    assert out.loc["v", "n_distinct"] == 5
    assert out.loc["v", "max_num"] == 6.0
    # s: 91 nulls; 13 distinct strings, lexicographic min/max
    assert out.loc["s", "n_null"] == 91
    assert out.loc["s", "n_distinct"] == 13
    assert out.loc["s", "min_str"] == "s0" and out.loc["s", "max_str"] == "s9"
    assert out.loc["s", "min_num"] == 0.0  # sentinel, null-free output
    # t: 50 distinct hourly stamps as epoch micros
    assert out.loc["t", "n_distinct"] == 50
    assert out.loc["t", "max_num"] - out.loc["t", "min_num"] == 49 * 3600e6


def test_column_overlap_planted(ray_session):
    import pyarrow as pa

    import ray.data

    from bern_ray.functions.profile import column_overlap

    a = pa.table({"x": pa.array([1, 2, 3, 4, 2, 3], type=pa.int64())})
    b = pa.table({"y": pa.array([3, 4, 5, 5, 6], type=pa.int64())})
    out = column_overlap(
        ray.data.from_arrow(a).repartition(3),
        "x",
        ray.data.from_arrow(b).repartition(2),
        "y",
        "a.x~b.y",
    ).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    # distinct A={1,2,3,4} B={3,4,5,6}, both={3,4}, union=6
    assert (r.n_a, r.n_b, r.n_both) == (4, 4, 2)
    assert abs(r.jaccard - round(2 / 6, 6)) < 1e-9

