"""The linkage, near-dup and meta-blocking paths shuffle through ONE
primitive, stages/bucketed.py's ``bucketed_apply``. Parses the modules
(no Ray session), so a hand-written ``groupby(...).map_groups`` bucket
shuffle or a second prep-batch constant fails here before anything
runs."""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).resolve().parents[1] / "bern_ray"

MODULES = [
    "stages/blocking.py",
    "stages/cc.py",
    "pipelines/linkage.py",
    "functions/dedup.py",
    "functions/metablocking.py",
]

# the per-cell IVF verify is keyed by a cluster-cell id, not a hash
# bucket; it is the one map_groups these modules keep
ALLOWED_MAP_GROUPS = {("functions/dedup.py", "_embedding_neardup_ivf")}


def _map_groups_owners(tree: ast.Module) -> list[str]:
    """Top-level function name enclosing each ``.map_groups(`` call."""
    owners = []
    for top in tree.body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                owners.append(getattr(top, "name", "<module>"))
    return owners


@pytest.mark.parametrize("module", MODULES)
def test_no_hand_written_bucket_shuffle(module):
    tree = ast.parse((PKG / module).read_text())
    stray = [
        owner
        for owner in _map_groups_owners(tree)
        if (module, owner) not in ALLOWED_MAP_GROUPS
    ]
    assert stray == []


@pytest.mark.parametrize("module", MODULES)
def test_no_second_prep_batch_constant(module):
    # PREP_BATCH (stages/bucketed.py) is the one shuffle-prep batch size
    assert "SHUFFLE_PREP_ROWS" not in (PKG / module).read_text()
