"""Broadcast-once helpers: ``ray.put`` on the driver, cached
``ray.get`` per worker process.

The pattern for small-side lookup state (vocabularies, dictionaries,
query matrices): put ONCE, ship the tiny ObjectRef inside task
closures / actor constructor kwargs, and deserialize at most once per
worker process — never once per batch (a plain ``ray.get`` in a batch
fn re-deserializes pickled payloads such as string arrays every call).

``put_broadcast`` also pins the ref in a module-level keepalive list:
refs that live only inside serialized dataset plans are borrowed, and
an actor restart after the driver-side variable goes out of scope
would otherwise fail to recover its constructor args (ray#53727).
Callers whose refs ride only in task closures (the linkage vocab,
stages/blocking.py ``AttrVocab``) use plain ``ray.put`` and are not
pinned.

``get_broadcast`` keeps the ``CACHE_SIZE`` most recently read values
per process, so a long-lived worker running pass after pass holds a
bounded number of them (and of the plasma buffers their zero-copy
arrays pin), not every value it ever read.
"""

from __future__ import annotations

from collections import OrderedDict

import ray

CACHE_SIZE = 4  # two passes' worth of the linkage vocab's two arrays

_KEEPALIVE: list = []
_CACHE: OrderedDict = OrderedDict()


def put_broadcast(obj) -> "ray.ObjectRef":
    ref = ray.put(obj)
    _KEEPALIVE.append(ref)
    return ref


def get_broadcast(ref):
    """ray.get with a per-process LRU deserialization cache."""
    key = ref.hex()
    if key in _CACHE:
        _CACHE.move_to_end(key)
    else:
        _CACHE[key] = ray.get(ref)
        while len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)
    return _CACHE[key]
