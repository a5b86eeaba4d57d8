"""Value types without ``dataclasses``, and the catalogue and JSON built from shared values.

The pure records are ``NamedTuple``s; the types that validate, coerce or
cache are plain classes on one frozen guard.  Both keep the dataclass
``repr`` text, equality and hash, except that a space hashes over its
points, spectrum and ranks, which its equality compares.  No CLI verb
loads ``dataclasses`` or ``inspect``.  Catalogue hierarchies arrive with the gaps the generator
recorded, and their spaces share point names and levels per size.
``space_to_json`` and the completion truncation work on ranks and are
pinned to the earlier forms kept in ``helpers``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from starmetric import (
    ConstantTail,
    FiniteSemimetricSpace,
    FiniteTail,
    GeometricTail,
    HarmonicTail,
    LabeledStarGraph,
    LabeledTree,
    RankedHierarchy,
    RaySpec,
    StarSpec,
    TripleWitness,
    canonical_form,
    center_extension_probe,
    dplus_compact_subset,
    enumerate_classes,
    enumerate_hierarchies,
    find_forbidden_quadruple,
    generate_ultrametric,
    is_compact_star,
    ray_to_completion,
    semimetric_us_check,
    space_to_json,
    validate_semimetric,
    verify_obstruction_equivalence,
    verify_tree_equivalence,
    x4_space,
)
from starmetric.harness import ClassDiscrepancy, MAX_POINTS
from helpers import (
    dist_bordered_truncation_space,
    per_cell_space_to_json,
    random_semimetric,
    random_star,
    random_ultrametric,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _star_space():
    return generate_ultrametric(LabeledStarGraph.of("c", 0, [("a", 1), ("b", "1/2"), ("d", 2)]))


# (factory, field names in order); each factory builds an equal, distinct instance per call
RECORDS = [
    (lambda: TripleWitness("a", "b", "c", Fraction(2), Fraction(1)), ("x", "y", "z", "lhs", "rhs")),
    (lambda: find_forbidden_quadruple(x4_space()), ("x", "y", "z", "w", "big", "small1", "small2", "kind")),
    (lambda: semimetric_us_check(x4_space()), ("in_us", "every4_us", "every4_tree", "cardinality_ok")),
    (lambda: ClassDiscrepancy(x4_space(), "details"), ("space", "details")),
    (
        lambda: verify_obstruction_equivalence(4),
        ("n", "classes", "us_classes", "obstructed_classes", "kind_counts", "discrepancies"),
    ),
    (
        lambda: verify_tree_equivalence().five_point_witnesses[0],
        ("space", "tree_generated", "star_generated", "obstruction_kind"),
    ),
    (lambda: verify_tree_equivalence(), ("classes_checked", "discrepancies", "five_point_witnesses")),
    (
        lambda: center_extension_probe(_star_space()),
        ("success", "added_point", "extension", "extension_ultrametric", "added_is_center", "note"),
    ),
    (lambda: canonical_form(x4_space()), ("ranks", "digest")),
    (lambda: is_compact_star(StarSpec(0, (), ConstantTail(1))), ("compact", "reason", "epsilon")),
    (lambda: dplus_compact_subset(["1/2"], HarmonicTail("1/4")), ("compact", "finite", "reason", "witness")),
    (lambda: ray_to_completion(RaySpec(("1",), HarmonicTail("1/2"), 0, True)), ("added_point", "star", "ray")),
]
PLAIN = [
    (x4_space, ("points", "dist")),
    (lambda: FiniteSemimetricSpace(("a", "b"), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))),
     ("points", "dist")),
    (lambda: RankedHierarchy((2, ((), (1, ((), ()))))), ("root",)),
    (lambda: LabeledTree.of([("u", 1), ("v", 0), ("w", 2)], [("w", "u"), ("u", "v")]), ("vertices", "edges", "labels")),
    (lambda: LabeledStarGraph.of("c", 1, [("a", 0), ("b", "3/2")]), ("vertices", "edges", "labels")),
    (lambda: HarmonicTail("1/2"), ("c",)),
    (lambda: GeometricTail(3, "1/2"), ("a", "r")),
    (lambda: ConstantTail(2), ("q",)),
    (FiniteTail, ()),
    (lambda: StarSpec(0, ("1", "1/3"), HarmonicTail(1), 2), ("center_label", "exceptional", "tail", "tail_skip")),
    (lambda: RaySpec(("2", "1"), GeometricTail(1, "1/2"), 1, True), ("prefix", "tail", "tail_skip", "decreasing")),
]


def _dataclass_twin(obj, fields):
    """The same values in a frozen dataclass of the same name, as the type was defined before."""
    twin = dataclasses.make_dataclass(type(obj).__name__, list(fields), frozen=True)
    return twin(*[getattr(obj, f) for f in fields])


@pytest.mark.parametrize(
    "factory,fields,plain", [(f, fs, False) for f, fs in RECORDS] + [(f, fs, True) for f, fs in PLAIN]
)
def test_former_dataclasses_keep_repr_equality_hash_and_frozenness(factory, fields, plain):
    a, b = factory(), factory()
    twin = _dataclass_twin(a, fields)
    assert a is not b
    assert repr(a) == repr(twin) == f"{type(a).__name__}(" + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    assert a == b and not a != b
    if isinstance(a, FiniteSemimetricSpace):  # hashed over what == compares, so the Fraction matrix is never built
        assert hash(a) == hash(b) == hash((a.points, a.spectrum, a.ranks))
    else:
        assert hash(a) == hash(b) == hash(twin)
    for name in fields or ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    if plain:  # the written classes keep the dataclass' error type, for assignment and deletion alike
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, "extra", None)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
    assert a == b  # nothing was changed by the refused assignments


def test_the_22_former_dataclasses_are_all_covered():
    names = {type(f()).__name__ for f, _ in RECORDS + PLAIN}
    assert len(RECORDS) == 12 and len(names) == 22
    assert all(isinstance(f(), tuple) for f, _ in RECORDS)
    assert not any(isinstance(f(), tuple) for f, _ in PLAIN)


def test_plain_classes_equal_only_their_own_class():
    tree = LabeledTree.of([("c", 1), ("a", 0)], [("c", "a")])
    star = LabeledStarGraph.of("c", 1, [("a", 0)])
    assert tree.vertices == star.vertices and tree.edges == star.edges and tree.labels == star.labels
    assert tree != star and star != tree
    assert HarmonicTail(1) != ConstantTail(1)


_STARTUP = """\
import json, sys
from starmetric.cli import run
codes = [run(argv) for argv in ({check!r}, ["verify", "--theorem", "4.3", "--n", "4", "--json"],
                                 ["enumerate", "--n", "4", "--json"])]
import starmetric.infinite, starmetric.similarity
print(json.dumps({{"codes": codes, "loaded": sorted({{"dataclasses", "inspect"}} & set(sys.modules))}}))
"""


def test_cli_verbs_and_every_module_load_neither_dataclasses_nor_inspect(tmp_path):
    space = tmp_path / "one.json"
    space.write_text('{"points": ["a"], "dist": [["0"]]}')
    code = _STARTUP.format(check=["check", "--json", str(space)])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # -S: no site hooks, so only what the program imports is counted
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "loaded": []}


@pytest.mark.parametrize("n", range(1, MAX_POINTS + 1))
def test_catalogue_gaps_match_the_checked_walk(n):
    for h in enumerate_hierarchies(n):
        checked = RankedHierarchy(h.root)
        assert checked == h
        assert checked._gaps == h._gaps
        assert checked.rank_matrix() == h.rank_matrix()


def test_class_spaces_share_names_and_levels_per_size():
    for n in (1, 4, 7):
        spaces = list(enumerate_classes(n))
        assert len({id(s.points) for s in spaces}) == 1
        by_levels = {}
        for s in spaces:
            assert by_levels.setdefault(len(s.spectrum), s.spectrum) is s.spectrum
            assert s.spectrum == tuple(map(Fraction, range(len(s.spectrum))))
        assert spaces[0].points == tuple(f"p{i}" for i in range(1, n + 1))


def _json_cases():
    rng = Random(61)
    yield from (s for n in range(1, 7) for s in enumerate_classes(n))
    for _ in range(30):
        yield generate_ultrametric(random_star(rng))
        yield random_ultrametric(rng, rng.randint(1, 9))
        yield random_semimetric(rng, rng.randint(1, 9))
    half, three = Fraction(1, 2), Fraction(3)
    yield FiniteSemimetricSpace(("u", "v", "w"), ((0, half, three), (half, 0, three), (three, three, 0)))
    yield validate_semimetric(["solo"], [["0"]])
    yield ray_to_completion(RaySpec(("3/2", "1"), HarmonicTail(1), 1, True)).truncation_space(9)


def test_space_to_json_matches_the_per_cell_form():
    for s in _json_cases():
        assert space_to_json(s) == per_cell_space_to_json(s)


RAYS = [
    RaySpec((), HarmonicTail(1), 0, True),
    RaySpec(("5", "5", "2"), HarmonicTail(2), 1, True),
    RaySpec((), GeometricTail(1, "1/2"), 0, True),
    RaySpec(("7/2",), GeometricTail(3, "2/3"), 2, True),
]


@pytest.mark.parametrize("ray", RAYS, ids=["harmonic", "harmonic-prefix", "geometric", "geometric-prefix"])
@pytest.mark.parametrize("k", [0, 1, 2, 17])
def test_completion_truncation_on_ranks_matches_the_bordered_dist(ray, k):
    model = ray_to_completion(ray)
    got = model.truncation_space(k)
    expected = dist_bordered_truncation_space(model, k)
    assert "dist" not in vars(got)  # built on ranks, reading no Fraction matrix
    assert got.points == expected.points
    assert got.spectrum == expected.spectrum
    assert got.ranks == expected.ranks
    assert got == expected and expected == got
    assert hash(got) == hash(expected)
    assert space_to_json(got) == per_cell_space_to_json(expected)
