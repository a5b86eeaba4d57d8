"""The package surface: lazy exports, and what each sweep verb loads.

``import starmetric`` loads no submodule; each public name is imported
from its submodule on first use.  The sweep verbs never load the
infinite-star model, weak similarity or ``hashlib`` (which loads
OpenSSL).  The checks that depend on a fresh module table run in a child
interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starmetric

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = {
    "decision": (
        "CardinalityThree DecisionError InternalInconsistency KIND_X4 KIND_Y4 NotACenter NotFourPoints "
        "NotUltrametric QuadrupleReport UsCheckReport build_star exhaustive_quadruple_scan find_centers "
        "find_forbidden_quadruple four_point_tree_generable is_us path_tree_x4 path_tree_y4 "
        "semimetric_us_check x4_space y4_space"
    ),
    "harness": (
        "BoundExceeded PreconditionFailed ProbeReport RankedHierarchy center_extension_probe "
        "enumerate_classes enumerate_hierarchies small_tree_generable verify_obstruction_equivalence "
        "verify_tree_equivalence"
    ),
    "infinite": (
        "CompactnessReport CompactSubsetReport CompletionModel ConstantTail FiniteSpec FiniteTail "
        "GeometricTail HarmonicTail IndexOutOfRange InfiniteModelError MalformedPresentation NegativeInput "
        "NotCompact NotDecreasingToZero RaySpec StarSpec TailLaw dplus dplus_compact_subset dplus_space "
        "is_compact_star ray_distance ray_to_completion ray_truncation_space ray_truncation_tree star_to_ray "
        "tail_from_json"
    ),
    "rational": "RationalTooLarge rat",
    "similarity": (
        "CanonicalForm canonical_form isometric isometry_bijection rank_matrix weak_similarity_bijection "
        "weakly_similar"
    ),
    "spaces": (
        "AsymmetricMatrix DuplicateName EmptySubset FiniteSemimetricSpace MalformedMatrix NegativeDistance "
        "NonzeroDiagonal SpaceError TripleWitness UnknownPoint ZeroOffDiagonal distance_spectrum "
        "is_ultrametric reorder restrict space_from_json space_to_json ultrametric_violation "
        "validate_semimetric"
    ),
    "trees": (
        "LabeledStarGraph LabeledTree NegativeLabel NotATree NotGenerating TreeError TreeFormatError "
        "UnknownVertex format_tree_text generate_ultrametric generating_violation is_generating "
        "parse_tree_text star_distance to_dot"
    ),
}
SOURCE = {name: module for module, names in PUBLIC.items() for name in names.split()}


def _child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this tree's sources; it prints one JSON line last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    got = _child(
        "import json, sys, starmetric\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('starmetric.'))\n"
        "public = [n for n in dir(starmetric) if not n.startswith('_')]\n"
        "assert starmetric.infinite.MAX_TRUNCATION > 0\n"  # submodules stay reachable as attributes
        "print(json.dumps({'loaded': loaded, 'public': public, 'now': sorted(sys.modules.keys() & {\n"
        "    'starmetric.infinite', 'starmetric.similarity'})}))\n"
    )
    assert got == {"loaded": [], "public": sorted(SOURCE), "now": ["starmetric.infinite"]}


# the verb runs as ``python -m starmetric`` does; the modules it loaded are
# printed at exit, minus those the interpreter had loaded before it began
_VERB = """\
import atexit, json, runpy, sys
before = set(sys.modules)
atexit.register(lambda: print(json.dumps(sorted(set(sys.modules) - before))))
sys.argv = ["starmetric"] + {argv!r}
runpy.run_module("starmetric", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv",
    [["verify", "--theorem", "4.3", "--n", "7"], ["enumerate", "--n", "7"], ["enumerate", "--n", "5", "--json"]],
    ids=["verify", "enumerate", "enumerate-json"],
)
def test_sweep_verbs_load_only_what_they_use(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _VERB.format(argv=argv)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {"starmetric.cli", "starmetric.harness", "starmetric.decision"} <= loaded
    assert not loaded & {"starmetric.infinite", "starmetric.similarity", "hashlib", "_hashlib"}


def test_public_names_are_pinned():
    assert starmetric.__all__ == sorted(SOURCE)
    assert set(SOURCE) <= set(dir(starmetric))
    namespace: dict = {}
    exec("from starmetric import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(SOURCE)


def test_each_name_is_its_submodules_object():
    for name, module in SOURCE.items():
        assert getattr(starmetric, name) is getattr(importlib.import_module(f"starmetric.{module}"), name), name
        assert vars(starmetric)[name] is getattr(starmetric, name)  # cached after the first lookup


def test_unknown_names_raise_attribute_error():
    assert not hasattr(starmetric, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        starmetric.no_such_name  # noqa: B018
    from starmetric import harness  # a submodule still imports by name

    assert harness.MAX_POINTS == 8
