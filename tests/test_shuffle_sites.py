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


def _bucket_count_arg(call: ast.Call) -> ast.expr | None:
    """The bucket-count argument of a ``bucketed_apply`` (4th positional
    or ``num_buckets=``) or ``bucket_join`` (``num_buckets=``) call."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name not in ("bucketed_apply", "bucket_join"):
        return None
    for kw in call.keywords:
        if kw.arg == "num_buckets":
            return kw.value
    if name == "bucketed_apply" and len(call.args) >= 4:
        return call.args[3]
    return None


def test_linkage_bucket_counts_are_planned():
    """Every shuffle on the linkage pass takes a planned or named count
    (stages/partitions.py), never a literal sized for one input."""
    tree = ast.parse((PKG / "pipelines/linkage.py").read_text())
    literals = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(_bucket_count_arg(node), ast.Constant)
    ]
    assert literals == []


# the near-dup operators that materialize a per-doc table first, and so
# plan their bucket count from its row count
PLANNED_DEDUP_OPERATORS = {
    "minhash_neardup",
    "setsim_neardup",
    "setsim_join",
    "setsim_overlap_join",
    "setsim_containment_join",
    "weighted_jaccard_neardup",
    "icws_neardup",
}


def test_dedup_bucket_counts_are_planned():
    """No ``bucketed_apply`` in a planned near-dup operator takes the
    fixed ``_DEDUP_BUCKETS`` or a literal as its count."""
    tree = ast.parse((PKG / "functions/dedup.py").read_text())
    seen, fixed = set(), []
    for top in tree.body:
        if getattr(top, "name", None) not in PLANNED_DEDUP_OPERATORS:
            continue
        seen.add(top.name)
        for node in ast.walk(top):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "bucketed_apply"
            ):
                continue
            arg = _bucket_count_arg(node)
            if arg is None or isinstance(arg, ast.Constant) or (
                isinstance(arg, ast.Name) and arg.id == "_DEDUP_BUCKETS"
            ):
                fixed.append(top.name)
    assert seen == PLANNED_DEDUP_OPERATORS
    assert fixed == []


# the near-dup-pass operators whose small inputs skip every shuffle
DRIVER_ARM_OPERATORS = {"exact_dedup", "minhash_neardup", "setsim_neardup"}


def test_neardup_pass_operators_ask_for_a_driver_table():
    """Each operator the near-dup pass runs asks stages/partitions.py
    ``driver_table`` whether its materialized input is held."""
    tree = ast.parse((PKG / "functions/dedup.py").read_text())
    asking = {
        top.name
        for top in tree.body
        if getattr(top, "name", None) in DRIVER_ARM_OPERATORS
        and any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "driver_table"
            for node in ast.walk(top)
        )
    }
    assert asking == DRIVER_ARM_OPERATORS
