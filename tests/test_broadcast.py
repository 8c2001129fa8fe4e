"""stages/broadcast.py holds a bounded amount per process: the worker
cache keeps only recent values, and the linkage vocab is not pinned
for the life of the driver."""

import numpy as np
import pandas as pd

from bern_ray.stages import broadcast


class _FakeRef:
    def __init__(self, key):
        self.key = key

    def hex(self):
        return self.key


def test_cache_keeps_only_recent_values(monkeypatch):
    monkeypatch.setattr(broadcast, "_CACHE", type(broadcast._CACHE)())
    fetched = []

    def fake_get(ref):
        fetched.append(ref.key)
        return f"value-{ref.key}"

    monkeypatch.setattr(broadcast.ray, "get", fake_get)
    refs = [_FakeRef(f"r{i}") for i in range(3 * broadcast.CACHE_SIZE)]
    for ref in refs:
        assert broadcast.get_broadcast(ref) == f"value-{ref.key}"
        assert len(broadcast._CACHE) <= broadcast.CACHE_SIZE
    assert list(broadcast._CACHE) == [
        r.key for r in refs[-broadcast.CACHE_SIZE :]
    ]
    # a cached read fetches nothing and becomes the most recent
    oldest = refs[-broadcast.CACHE_SIZE]
    n = len(fetched)
    broadcast.get_broadcast(oldest)
    assert len(fetched) == n
    assert next(reversed(broadcast._CACHE)) == oldest.key
    # an evicted value is fetched again
    broadcast.get_broadcast(refs[0])
    assert fetched[-1] == "r0"
    assert len(broadcast._CACHE) == broadcast.CACHE_SIZE


def test_attr_vocab_is_not_pinned(ray_session):
    import ray.data

    from bern_ray.stages.blocking import build_attr_vocab

    ds = ray.data.from_pandas(
        pd.DataFrame(
            {
                "mention_id": np.arange(6),
                "surface": ["a", "b", "a", "c", "b", "d"],
                "oid": ["X:1", None, "X:1", "X:2", None, None],
            }
        )
    ).materialize()
    held = len(broadcast._KEEPALIVE)
    vocabs = [build_attr_vocab(ds) for _ in range(3)]
    assert len(broadcast._KEEPALIVE) == held
    surfaces, oids = vocabs[-1].arrays()
    assert list(surfaces) == ["a", "b", "c", "d"]
    assert list(oids) == ["X:1", "X:2"]
