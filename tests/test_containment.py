"""setsim_containment_join: a planted near-subset pair (small doc
quoted inside a much larger one) is found at containment 1.0 even
though its jaccard is far below any near-dup threshold; pairs under
the absolute floor are excluded by contract."""

import pyarrow as pa
import pytest

import ray.data

from bern_ray.functions.dedup import setsim_containment_join


def _ds(texts):
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    return ray.data.from_arrow(t).repartition(2)


@pytest.mark.usefixtures("ray_session")
def test_quote_inclusion_found():
    quote = " ".join(f"q{i}" for i in range(20))  # 18 shingles
    host = quote + " " + " ".join(f"h{i}" for i in range(200))
    other = " ".join(f"z{i}" for i in range(50))
    out = setsim_containment_join(
        _ds([quote, host, other]), threshold=0.9, min_overlap=10
    ).to_pandas()
    pairs = set(zip(out["doc_id_a"], out["doc_id_b"]))
    assert (0, 1) in pairs
    row = out[(out["doc_id_a"] == 0) & (out["doc_id_b"] == 1)].iloc[0]
    assert row["containment"] == pytest.approx(1.0)
    # jaccard of the pair is tiny — the jaccard family would miss it
    assert 18 / (18 + 219 - 18) < 0.2
    assert (0, 2) not in pairs and (1, 2) not in pairs


@pytest.mark.usefixtures("ray_session")
def test_absolute_floor_excludes_small_overlaps():
    # full containment but only 3 shared shingles (< min_overlap 10)
    small = "a b c d e"  # 3 shingles
    host = small + " " + " ".join(f"x{i}" for i in range(50))
    out = setsim_containment_join(
        _ds([small, host]), threshold=0.9, min_overlap=10
    ).to_pandas()
    assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
def test_floor_applies_at_verification():
    # two 12-token docs -> 10 shingles each; the last token differs,
    # so |A∩B| = 9 < min_overlap 10 while min(|A|, |B|) = 10 passes
    # the candidate size filter and containment is exactly 0.9
    base = [f"w{i}" for i in range(11)]
    a = " ".join(base + ["ya"])
    b = " ".join(base + ["yb"])
    out = setsim_containment_join(
        _ds([a, b]), threshold=0.9, min_overlap=10
    ).to_pandas()
    assert len(out) == 0
