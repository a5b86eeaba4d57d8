"""Class enumeration against the brute oracle, equivalence sweeps, the probe."""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    BoundExceeded,
    PreconditionFailed,
    RankedHierarchy,
    canonical_form,
    center_extension_probe,
    enumerate_classes,
    enumerate_hierarchies,
    find_forbidden_quadruple,
    generate_ultrametric,
    is_ultrametric,
    is_us,
    small_tree_generable,
    validate_semimetric,
    verify_obstruction_equivalence,
    verify_tree_equivalence,
    weakly_similar,
    x4_space,
)
from helpers import (
    brute_rank_class_reps,
    brute_tree_generable_4,
    class_count,
    pool_hierarchy_roots,
    random_star,
    random_ultrametric,
)


def test_hierarchy_encoding_validation():
    RankedHierarchy(())  # single leaf
    RankedHierarchy((1, ((), ())))
    RankedHierarchy((2, ((), (1, ((), ())))))
    with pytest.raises(ValueError):
        RankedHierarchy((1, ((),)))  # one child
    with pytest.raises(ValueError):
        RankedHierarchy((2, ((), ())))  # level 1 unused
    with pytest.raises(ValueError):
        RankedHierarchy((1, ((), (1, ((), ())))))  # child level not below parent
    with pytest.raises(ValueError):
        RankedHierarchy((2, ((1, ((), ())), ())))  # children not sorted
    # a node is () or (int level, tuple of children), named when it is not
    for root, node in [
        ((True, ((), ())), (True, ((), ()))),  # a bool is no level
        ((1, [(), ()]), (1, [(), ()])),  # a list of children would not hash
        ((1.0, ((), ())), (1.0, ((), ()))),
        (((),), ((),)),
        (None, None),
        ([], []),
        ((1, ((), 5)), 5),
        ((2, ((), (1, ((), "x")))), "x"),
        ((2, ((1, ((), 5)), (1, ((), "x")))), 5),
        ((1, ((), ()), 0), (1, ((), ()), 0)),
    ]:
        with pytest.raises(ValueError) as info:
            RankedHierarchy(root)
        assert str(info.value) == f"a node must be () or (int level, tuple of children), got {node!r}"


def test_hierarchy_rank_matrix():
    # ((a b)_1 c)_2: pair at level 1, the third point joins at level 2
    h = RankedHierarchy((2, ((), (1, ((), ())))))
    assert h.rank_matrix() == ((0, 2, 2), (2, 0, 1), (2, 1, 0))
    s = h.to_space()
    assert s.points == ("p1", "p2", "p3")
    assert s.d("p2", "p3") == 1 and s.d("p1", "p2") == 2


def test_class_counts():
    # n <= 4 verified against the brute rank-matrix oracle below; n = 5
    # cross-checked by hand via chains of partitions (18 type chains plus
    # two orbit splittings); n = 6..8 golden from the first verified runs
    counts = [sum(1 for _ in enumerate_classes(n)) for n in range(1, 9)]
    assert counts == [1, 1, 2, 6, 20, 90, 468, 2910]


def test_class_counts_without_enumeration():
    # the count over multiset partitions is the catalogue's oracle; beyond
    # MAX_POINTS it meets the recorded anchors (n = 9 and 10 from sweeps
    # run with MAX_POINTS raised, n = 11 from a depth-first enumeration)
    for n in range(1, 9):
        assert class_count(n) == len(list(enumerate_classes(n)))
    assert [class_count(n) for n in range(9, 13)] == [20_644, 165_874, 1_484_344, 14_653_890]


def test_merge_generator_matches_pool_reference():
    # same encodings in the same order: k ascending, sorted within each k
    for n in range(1, 8):
        assert [h.root for h in enumerate_hierarchies(n)] == pool_hierarchy_roots(n)


def test_enumeration_matches_brute_oracle():
    for n in range(1, 5):
        reps = list(enumerate_classes(n))
        brute = brute_rank_class_reps(n)
        assert len(reps) == len(brute)
        # every brute matrix is weakly similar to exactly one representative
        for b in brute:
            matches = [r for r in reps if weakly_similar(b, r)]
            assert len(matches) == 1


def test_enumerated_classes_are_ultrametric_and_distinct():
    for n in range(1, 6):
        reps = list(enumerate_classes(n))
        for r in reps:
            assert is_ultrametric(r)
        forms = {canonical_form(r).digest for r in reps}
        assert len(forms) == len(reps)
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert not weakly_similar(a, b)


def test_enumerate_bounds():
    with pytest.raises(BoundExceeded):
        list(enumerate_classes(0))
    with pytest.raises(BoundExceeded):
        list(enumerate_classes(9))


def test_hierarchy_leaf_counts_consistent():
    for n in (1, 3, 5):
        for h in enumerate_hierarchies(n):
            assert h.leaf_count == n
            assert len(h.to_space()) == n


def test_obstruction_sweep_small():
    for n in range(1, 6):
        report = verify_obstruction_equivalence(n)
        assert report.ok, report.to_json()
    rep4 = verify_obstruction_equivalence(4)
    assert rep4.classes == 6
    kinds = dict(rep4.kind_counts)
    # the two non-star-generated 4-point classes are exactly X4 and Y4
    assert rep4.us_classes == 4 and kinds == {"X4": 1, "Y4": 1}


def test_obstruction_sweep_n8():
    report = verify_obstruction_equivalence(8)
    assert report.ok
    assert report.classes == 2910 and report.us_classes == 64
    assert dict(report.kind_counts) == {"X4": 2309, "Y4": 537}


def test_obstruction_sweep_includes_path_tree_classes():
    from starmetric import path_tree_x4, path_tree_y4

    reps = list(enumerate_classes(5))
    for tree in (path_tree_x4(), path_tree_y4()):
        space = generate_ultrametric(tree)
        matches = [r for r in reps if weakly_similar(space, r)]
        assert len(matches) == 1
        assert not is_us(matches[0])


def test_obstruction_sweep_parallel_matches_serial():
    serial = verify_obstruction_equivalence(4, jobs=1)
    parallel = verify_obstruction_equivalence(4, jobs=2)
    assert serial == parallel


def test_small_tree_generable_matches_brute_oracle():
    for s in enumerate_classes(4):
        assert small_tree_generable(s) == brute_tree_generable_4(s)
    rng = Random(97)
    for _ in range(25):
        s = random_ultrametric(rng, 4)
        assert small_tree_generable(s) == brute_tree_generable_4(s)


def test_small_tree_generable_low_n():
    assert small_tree_generable(validate_semimetric(["a"], [["0"]]))
    two = validate_semimetric(["a", "b"], [["0", "9"], ["9", "0"]])
    assert small_tree_generable(two)
    for s in enumerate_classes(3):
        assert small_tree_generable(s)
    with pytest.raises(BoundExceeded):
        small_tree_generable(next(enumerate_classes(5)))


def test_tree_equivalence_report():
    report = verify_tree_equivalence()
    assert report.ok, report.to_json()
    assert report.classes_checked == 1 + 1 + 2 + 6
    assert not report.discrepancies
    assert len(report.five_point_witnesses) == 2
    kinds = {w.obstruction_kind for w in report.five_point_witnesses}
    assert kinds == {"X4", "Y4"}
    for w in report.five_point_witnesses:
        assert w.tree_generated and not w.star_generated


def test_probe_on_star_generated_spaces():
    rng = Random(101)
    for _ in range(40):
        s = generate_ultrametric(random_star(rng, max_leaves=8))
        report = center_extension_probe(s)
        assert report.success
        assert report.extension_ultrametric and report.added_is_center
        assert len(report.extension) == len(s) + 1


def test_probe_two_point_space():
    s = validate_semimetric(["a", "b"], [["0", "4"], ["4", "0"]])
    report = center_extension_probe(s)
    assert report.success
    assert report.extension.d(report.added_point, "a") == 4
    assert report.extension.d(report.added_point, "b") == 4


def test_probe_single_point():
    s = validate_semimetric(["a"], [["0"]])
    report = center_extension_probe(s)
    assert report.success


def test_probe_name_collision_avoided():
    s = validate_semimetric(["c0", "b"], [["0", "4"], ["4", "0"]])
    report = center_extension_probe(s)
    assert report.added_point not in s.points


def test_probe_requires_obstruction_free():
    with pytest.raises(PreconditionFailed):
        center_extension_probe(x4_space())
    bad = validate_semimetric(["a", "b", "c"], [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]])
    with pytest.raises(PreconditionFailed):
        center_extension_probe(bad)


def test_probe_exhaustive_small_classes():
    # every obstruction-free class is star-generated, so the extension must land
    for n in range(1, 6):
        for s in enumerate_classes(n):
            if find_forbidden_quadruple(s) is None:
                assert center_extension_probe(s).success
