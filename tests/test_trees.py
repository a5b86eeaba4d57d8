"""Labeled trees, the path-max metric, stars, text format, DOT export."""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    LabeledStarGraph,
    LabeledTree,
    NegativeLabel,
    NotATree,
    NotGenerating,
    TreeFormatError,
    UnknownVertex,
    format_tree_text,
    generate_ultrametric,
    generating_violation,
    is_generating,
    is_ultrametric,
    parse_tree_text,
    path_tree_x4,
    path_tree_y4,
    rat,
    star_distance,
    to_dot,
    validate_semimetric,
)
from helpers import random_star, random_tree


def test_tree_construction_errors():
    cases = [
        (lambda: LabeledTree.of([], []), NotATree, "a tree needs at least one vertex"),
        (lambda: LabeledTree(("a", "b"), (("a", "b"),), (1,)), NotATree, "one label per vertex required"),
        (lambda: LabeledTree.of([("a", 1), ("b", 1)], []), NotATree, "2 vertices need 1 edges, got 0"),
        (
            lambda: LabeledTree.of([("a", 1), ("b", 1), ("c", 1)], [("a", "b"), ("b", "c"), ("c", "a")]),
            NotATree,
            "3 vertices need 2 edges, got 3",
        ),
        # as many edges as a tree needs, with a cycle and one vertex left out
        (
            lambda: LabeledTree.of([("a", 1), ("b", 1), ("c", 1), ("d", 1)], [("a", "b"), ("b", "c"), ("a", "c")]),
            NotATree,
            "edge set is not connected",
        ),
        (lambda: LabeledTree.of([("a", 1), ("b", 1)], [("a", "b"), ("b", "a")]), NotATree, "duplicate edge ('a', 'b')"),
        (lambda: LabeledTree.of([("a", 1), ("b", 1)], [("a", "a")]), NotATree, "self-loop at 'a'"),
        (lambda: LabeledTree.of([("a", 1)], [("a", "zz")]), UnknownVertex, "edge endpoint 'zz' is not a vertex"),
        (lambda: LabeledTree.of([("a", 1)], [("zz", "a")]), UnknownVertex, "edge endpoint 'zz' is not a vertex"),
        (lambda: LabeledTree.of([("a", "-1")], []), NegativeLabel, "label of 'a' is -1 < 0"),
        (lambda: parse_tree_text("a x"), TreeFormatError, "not an exact rational: 'x'"),
    ]
    for make, exc, message in cases:
        with pytest.raises(exc) as info:
            make()
        assert str(info.value) == message


def test_edges_normalized_for_stable_output():
    t = LabeledTree.of([("a", 1), ("b", 2), ("c", 3)], [("c", "b"), ("b", "a")])
    assert t.edges == (("a", "b"), ("b", "c"))


def test_generating_violation():
    star = LabeledStarGraph.of("c", 0, [("u", 1), ("v", "1/2")])
    assert generating_violation(star) is None
    bad = LabeledTree.of([("a", 0), ("b", 0), ("c", 1)], [("a", "b"), ("b", "c")])
    assert generating_violation(bad) == ("a", "b")
    assert not is_generating(bad)
    assert is_generating(path_tree_x4())


def test_generate_rejects_non_generating():
    bad = LabeledTree.of([("a", 0), ("b", 0)], [("a", "b")])
    with pytest.raises(NotGenerating):
        generate_ultrametric(bad)


def test_zero_zero_edge_breaks_the_metric_directly():
    # raw path max over a zero-zero edge yields d = 0 for distinct points,
    # which the axioms reject; together with the previous test this covers
    # both directions of the generating criterion
    labels = {"a": Fraction(0), "b": Fraction(0)}
    raw = max(labels["a"], labels["b"])
    assert raw == 0
    with pytest.raises(Exception):
        validate_semimetric(["a", "b"], [[0, raw], [raw, 0]])


def test_path_tree_x4_hand_values():
    s = generate_ultrametric(path_tree_x4())
    # frozen by hand from the path-max rule over labels (2, 2, 3, 1, 1)
    assert s.d("v1", "v2") == 2
    assert s.d("v4", "v5") == 1
    assert s.d("v1", "v4") == 3
    expected = {
        ("v1", "v3"): 3,
        ("v1", "v5"): 3,
        ("v2", "v3"): 3,
        ("v2", "v4"): 3,
        ("v2", "v5"): 3,
        ("v3", "v4"): 3,
        ("v3", "v5"): 3,
    }
    for (u, v), val in expected.items():
        assert s.d(u, v) == val
    assert is_ultrametric(s)


def test_path_tree_y4_hand_values():
    s = generate_ultrametric(path_tree_y4())
    assert s.d("v1", "v2") == 2
    assert s.d("v4", "v5") == 2
    assert s.d("v1", "v4") == 3
    assert is_ultrametric(s)


def test_star_distance_closed_form():
    star = LabeledStarGraph.of("c", 0, [("u", "1/2"), ("v", "1/3")])
    assert star_distance(star, "u", "u") == 0
    assert star_distance(star, "c", "v") == Fraction(1, 3)
    assert star_distance(star, "u", "v") == Fraction(1, 2)
    with pytest.raises(UnknownVertex):
        star_distance(star, "u", "zz")


def test_star_distance_matches_generated_metric():
    rng = Random(11)
    for _ in range(50):
        star = random_star(rng, max_leaves=11)
        space = generate_ultrametric(star)
        for u in star.vertices:
            for v in star.vertices:
                assert star_distance(star, u, v) == space.d(u, v)


def test_path_max_monotone_in_labels():
    rng = Random(23)
    for _ in range(30):
        tree = random_tree(rng, rng.randint(2, 8))
        base = generate_ultrametric(tree)
        victim = rng.randrange(len(tree.vertices))
        bumped_labels = list(tree.labels)
        bumped_labels[victim] += Fraction(rng.randint(1, 5), rng.randint(1, 3))
        bumped = LabeledTree(tree.vertices, tree.edges, tuple(bumped_labels))
        space = generate_ultrametric(bumped)
        for i, u in enumerate(tree.vertices):
            for v in tree.vertices[i + 1 :]:
                assert space.d(u, v) >= base.d(u, v)


def test_text_format_round_trip():
    t = path_tree_x4()
    text = format_tree_text(t)
    assert "v1 2" in text and "v1 -- v2" in text
    assert parse_tree_text(text) == t


def test_text_format_comments_and_errors():
    t = parse_tree_text("# a star\nc 0\nu 1/2\nc -- u\n")
    assert t.label_of("u") == Fraction(1, 2)
    with pytest.raises(TreeFormatError):
        parse_tree_text("a\n")
    with pytest.raises(TreeFormatError):
        parse_tree_text("a 1 2\n")
    with pytest.raises(TreeFormatError):
        parse_tree_text("a -- \n")


def test_dot_export_stable():
    star = LabeledStarGraph.of("c", 0, [("u", 1), ("v", "1/2")])
    dot = to_dot(star)
    assert dot == (
        'graph {\n'
        '  "c" [label="c: 0"];\n'
        '  "u" [label="u: 1"];\n'
        '  "v" [label="v: 1/2"];\n'
        '  "c" -- "u";\n'
        '  "c" -- "v";\n'
        '}\n'
    )


def test_star_is_a_tree():
    star = LabeledStarGraph.of("c", 0, [("u", 1), ("v", "1/2")])
    assert isinstance(star, LabeledTree)
    assert star.vertices == ("c", "u", "v") and star.labels == (0, 1, Fraction(1, 2))
    assert (star.center, star.leaves) == ("c", ("u", "v"))
    assert (star.center_label, star.leaf_labels) == (0, (1, Fraction(1, 2)))
    assert star.label_of("v") == Fraction(1, 2)


def test_star_rejects_an_edge_that_misses_the_center():
    labels = (Fraction(0), Fraction(1), Fraction(1))
    with pytest.raises(NotATree):
        LabeledStarGraph(("c", "a", "b"), (("c", "a"), ("a", "b")), labels)
    # the same edges make a valid tree, and a valid star once "a" comes first
    LabeledTree(("c", "a", "b"), (("c", "a"), ("a", "b")), labels)
    assert LabeledStarGraph(("a", "c", "b"), (("c", "a"), ("a", "b")), labels).center == "a"


def test_star_tree_checks_still_apply():
    with pytest.raises(NegativeLabel):
        LabeledStarGraph.of("c", "-1", [("u", 1)])
    with pytest.raises(NotATree):
        LabeledStarGraph.of("c", 0, [("u", 1), ("u", 2)])
    with pytest.raises(NotATree):
        LabeledStarGraph(("c", "u"), (), (Fraction(0), Fraction(1)))


def test_one_point_star():
    star = LabeledStarGraph.of("c", 0, [])
    assert (star.center, star.leaves, star.edges, star.leaf_labels) == ("c", (), (), ())
    assert generate_ultrametric(star).points == ("c",)


def test_equal_stars_compare_and_hash_equal():
    a = LabeledStarGraph.of("c", 0, [("u", 1), ("v", "1/2")])
    b = LabeledStarGraph.of("c", "0", [("u", "2/2"), ("v", Fraction(1, 2))])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != LabeledStarGraph.of("c", 0, [("u", 1), ("v", "1/3")])


def test_star_and_plain_tree_give_the_same_outputs():
    rng = Random(8)
    for _ in range(200):
        star = random_star(rng, max_leaves=12)
        tree = LabeledTree(star.vertices, star.edges, star.labels)
        assert generate_ultrametric(star) == generate_ultrametric(tree)
        assert format_tree_text(star) == format_tree_text(tree)
        assert to_dot(star) == to_dot(tree)


@pytest.mark.parametrize("labels", [("0", "1/2", "3"), (0, 1, 3), (Fraction(0), Fraction(1, 2), Fraction(3))])
def test_raw_constructors_equal_of(labels):
    # lists in, tuples of Fractions stored: the constructor coerces, .of only pairs
    names = ["c", "u", "v"]
    pairs = list(zip(names, labels))
    tree = LabeledTree(names, [("v", "c"), ("c", "u")], list(labels))
    star = LabeledStarGraph(names, [("c", "u"), ("c", "v")], list(labels))
    for raw, read in ((tree, LabeledTree.of(pairs, [("c", "u"), ("c", "v")])), (star, LabeledStarGraph.of("c", labels[0], pairs[1:]))):
        assert raw == read and hash(raw) == hash(read)
    for t in (tree, star):
        assert t.vertices == ("c", "u", "v") and t.edges == (("c", "u"), ("c", "v"))
        assert type(t.labels) is tuple and all(type(lab) is Fraction for lab in t.labels)


@pytest.mark.parametrize("bad", [True, 0.5])
def test_every_tree_entry_refuses_bool_and_float_labels(bad):
    with pytest.raises(TypeError) as expected:
        rat(bad)
    makers = (
        lambda: LabeledTree(("c", "u"), (("c", "u"),), (bad, 1)),
        lambda: LabeledStarGraph(("c", "u"), (("c", "u"),), (1, bad)),
        lambda: LabeledTree.of([("c", 1), ("u", bad)], [("c", "u")]),
        lambda: LabeledStarGraph.of("c", bad, [("u", 1)]),
    )
    for make in makers:
        with pytest.raises(TypeError) as info:
            make()
        assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("bad", [1, "", None, True])
def test_every_tree_entry_refuses_names_that_are_not_nonempty_strings(bad):
    # the wording of FiniteSemimetricSpace's check on point names
    makers = (
        lambda: LabeledTree((bad, "u"), ((bad, "u"),), (1, 1)),
        lambda: LabeledStarGraph(("c", bad), (("c", bad),), (1, 1)),
        lambda: LabeledTree.of([("c", 1), (bad, 1)], [("c", bad)]),
        lambda: LabeledStarGraph.of(bad, 1, [("u", 1)]),
    )
    for make in makers:
        with pytest.raises(NotATree) as info:
            make()
        assert str(info.value) == f"vertex names must be nonempty strings, got {bad!r}"
