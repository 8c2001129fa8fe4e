"""Registry consistency: the driver surface, the oracle map and the
local-gate surface agree, and every bern_ray module imports. Needs no
Ray session, so a stale exclude line or a dangling import fails here
before any query runs."""

import importlib
import pathlib

import pytest

import __ray_entry__ as E
from bern_ray.pipelines.relational import DRIVER_EXCLUDE, REGISTRY

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_driver_exclude_names_are_registered():
    assert sorted(DRIVER_EXCLUDE - set(REGISTRY)) == []


def test_oracles_and_surfaces_nest():
    queries = E.queries()
    full = E.full_queries()
    assert sorted(set(E.oracle_sql()) - set(queries)) == []
    assert sorted(set(queries) - set(full)) == []
    assert sorted(set(E.full_oracle_sql()) - set(full)) == []


@pytest.mark.parametrize(
    "module",
    sorted(
        ".".join(p.relative_to(REPO).with_suffix("").parts)
        for p in (REPO / "bern_ray").rglob("*.py")
        if p.name != "__init__.py"
    ),
)
def test_module_imports(module):
    importlib.import_module(module)
