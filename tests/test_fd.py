"""k-means silhouette: planted-data pins."""

import numpy as np
import pandas as pd


def test_kmeans_silhouette_planted(ray_session):
    import ray.data

    from bern_ray.functions.ann import kmeans_silhouette

    rng = np.random.default_rng(5)
    centers = np.array([[0.0] * 8, [10.0] * 8, [-10.0] * 8, [20.0] * 8])
    pts = np.vstack(
        [c + rng.normal(0, 0.5, size=(30, 8)) for c in centers]
    ).astype(np.float32)
    vid = np.arange(len(pts))
    df = pd.DataFrame(
        {"vec_id": vid, "embedding": [row.tolist() for row in pts]}
    )
    ds = ray.data.from_pandas(df).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    )
    out = kmeans_silhouette(ds, k=4, iters=5).to_pandas()
    # all four seeds start inside blob 0 (lowest-id rule), so one blob
    # may stay split — but at least one intact far blob must score
    # near 1, and support is conserved
    assert out.silhouette.max() > 0.9
    assert out.n_points.sum() == len(pts)
    # brute-force check of the simplified-silhouette arithmetic on the
    # same converged parameters
    from bern_ray.functions.ann import _kmeans_assign, _kmeans_params

    C, cids = _kmeans_params(ds, 4, 5, 9, 12)
    E = pts.astype(np.float64)
    d2 = np.round(((E[:, None, :] - C[None, :, :]) ** 2).sum(axis=2), 9)
    pos = np.argmin(d2, axis=1)
    rows = np.arange(len(pos))
    a = np.sqrt(d2[rows, pos])
    m = d2.copy()
    m[rows, pos] = np.inf
    b = np.sqrt(m.min(axis=1))
    s = np.round((b - a) / np.maximum(a, b), 9)
    exp = (
        pd.DataFrame({"cluster": cids[pos], "s": s})
        .groupby("cluster")["s"]
        .mean()
        .round(6)
    )
    got = out.set_index("cluster")["silhouette"].sort_index()
    assert np.allclose(got.to_numpy(), exp.sort_index().to_numpy())
    assert (_kmeans_assign(E, C, cids, 9) == cids[pos]).all()
