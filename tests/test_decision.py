"""Centers, star-generability, forbidden quadruples, the semimetric check."""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    CardinalityThree,
    LabeledStarGraph,
    NotACenter,
    NotFourPoints,
    NotUltrametric,
    build_star,
    exhaustive_quadruple_scan,
    find_centers,
    find_forbidden_quadruple,
    four_point_tree_generable,
    generate_ultrametric,
    is_us,
    path_tree_x4,
    path_tree_y4,
    reorder,
    restrict,
    semimetric_us_check,
    validate_semimetric,
    x4_space,
    y4_space,
)
from helpers import random_star, random_ultrametric


def figure2_truncation():
    """Star with center label 0 and leaves 1, 1/2, 1/3."""
    star = LabeledStarGraph.of("c", 0, [("v1", 1), ("v2", "1/2"), ("v3", "1/3")])
    return generate_ultrametric(star)


def test_find_centers_fixtures():
    assert find_centers(x4_space()) == ()
    assert find_centers(y4_space()) == ()
    two = validate_semimetric(["a", "b"], [["0", "5"], ["5", "0"]])
    assert find_centers(two) == ("a", "b")


def test_find_centers_figure2_truncation():
    # the criterion admits the star center and the smallest-labeled leaf:
    # both realize every other point's nearest-neighbor distance (the
    # uniqueness seen on the infinite star needs labels with no minimum)
    s = figure2_truncation()
    assert find_centers(s) == ("c", "v3")
    for c in find_centers(s):
        star = build_star(s, c)
        regen = generate_ultrametric(star)
        assert reorder(regen, s.points) == s


def test_find_centers_requires_ultrametric():
    bad = validate_semimetric(["a", "b", "c"], [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]])
    with pytest.raises(NotUltrametric):
        find_centers(bad)
    with pytest.raises(NotUltrametric):
        is_us(bad)
    with pytest.raises(NotUltrametric):
        find_forbidden_quadruple(bad)


def test_is_us_basics():
    assert not is_us(x4_space())
    assert not is_us(y4_space())
    single = validate_semimetric(["a"], [["0"]])
    assert is_us(single)
    assert find_centers(single) == ("a",)


def test_star_generated_spaces_are_us():
    rng = Random(5)
    for _ in range(80):
        star = random_star(rng, max_leaves=14)
        assert is_us(generate_ultrametric(star))


def test_build_star_two_points():
    s = validate_semimetric(["a", "b"], [["0", "5"], ["5", "0"]])
    star = build_star(s, "a")
    assert star.center == "a"
    assert star.center_label == 0
    assert star.leaves == ("b",)
    assert star.leaf_labels == (Fraction(5),)


def test_build_star_figure2_labels():
    s = figure2_truncation()
    star = build_star(s, "c")
    assert star.center_label == 0
    assert dict(zip(star.leaves, star.leaf_labels)) == {
        "v1": Fraction(1),
        "v2": Fraction(1, 2),
        "v3": Fraction(1, 3),
    }


def test_build_star_round_trip_random():
    rng = Random(17)
    for _ in range(200):
        star = random_star(rng, max_leaves=10)
        s = generate_ultrametric(star)
        centers = find_centers(s)
        assert centers
        for c in centers:
            regen = generate_ultrametric(build_star(s, c))
            assert reorder(regen, s.points) == s


def test_build_star_rejects_non_center():
    s = figure2_truncation()
    with pytest.raises(NotACenter):
        build_star(s, "v1")


def test_quadruple_fixtures():
    rep = find_forbidden_quadruple(x4_space())
    assert rep is not None
    assert (rep.kind, rep.big, rep.small1, rep.small2) == ("X4", 3, 1, 2)
    assert {rep.x, rep.z} == {"p1", "p3"} and {rep.y, rep.w} == {"p2", "p4"}
    rep = find_forbidden_quadruple(y4_space())
    assert rep is not None
    assert (rep.kind, rep.big, rep.small1, rep.small2) == ("Y4", 3, 2, 2)


def test_quadruple_structure_invariants():
    s = generate_ultrametric(path_tree_y4())
    rep = find_forbidden_quadruple(s)
    assert rep is not None
    assert rep.kind == "Y4"
    assert {rep.x, rep.y, rep.z, rep.w} <= {"v1", "v2", "v4", "v5"}
    for u, v in ((rep.x, rep.y), (rep.x, rep.w), (rep.z, rep.y), (rep.z, rep.w)):
        assert s.d(u, v) == rep.big
    assert s.d(rep.x, rep.z) == rep.small1 < rep.big
    assert s.d(rep.y, rep.w) == rep.small2 < rep.big
    assert rep.small1 <= rep.small2


def test_path_tree_x4_yields_x4_kind():
    s = generate_ultrametric(path_tree_x4())
    rep = find_forbidden_quadruple(s)
    assert rep is not None and rep.kind == "X4"


def test_star_generated_spaces_have_no_quadruple():
    rng = Random(29)
    for _ in range(60):
        star = random_star(rng, max_leaves=9)
        s = generate_ultrametric(star)
        assert find_forbidden_quadruple(s) is None
        assert exhaustive_quadruple_scan(s) is None


def test_constructive_and_exhaustive_routes_agree():
    rng = Random(31)
    for _ in range(150):
        s = random_ultrametric(rng, rng.randint(1, 8))
        constructive = find_forbidden_quadruple(s)
        oracle = exhaustive_quadruple_scan(s)
        assert (constructive is None) == (oracle is None)
        assert is_us(s) == (constructive is None)


def test_quadruple_small_spaces_none():
    s = validate_semimetric(["a", "b"], [["0", "1"], ["1", "0"]])
    assert find_forbidden_quadruple(s) is None


def test_four_point_tree_generable():
    assert not four_point_tree_generable(x4_space())
    alleq = validate_semimetric(
        ["a", "b", "c", "d"],
        [["0", "1", "1", "1"], ["1", "0", "1", "1"], ["1", "1", "0", "1"], ["1", "1", "1", "0"]],
    )
    assert four_point_tree_generable(alleq)
    star = LabeledStarGraph.of("c", 0, [("u", 1), ("v", 2), ("w", 3)])
    assert four_point_tree_generable(generate_ultrametric(star))


def test_four_point_tree_generable_errors():
    with pytest.raises(NotFourPoints):
        four_point_tree_generable(validate_semimetric(["a"], [["0"]]))
    bad = validate_semimetric(
        ["a", "b", "c", "d"],
        [
            ["0", "1", "2", "9"],
            ["1", "0", "2", "2"],
            ["2", "2", "0", "2"],
            ["9", "2", "2", "0"],
        ],
    )
    with pytest.raises(NotUltrametric):
        four_point_tree_generable(bad)


def test_semimetric_check_fixtures():
    rep = semimetric_us_check(x4_space())
    assert (rep.in_us, rep.every4_us, rep.every4_tree) == (False, False, False)
    assert rep.agree and rep.cardinality_ok

    t1 = generate_ultrametric(path_tree_x4())
    rep = semimetric_us_check(t1)
    assert (rep.in_us, rep.every4_us, rep.every4_tree) == (False, False, False)
    assert rep.agree


def test_semimetric_check_right_triangle():
    tri = validate_semimetric(["a", "b", "c"], [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]])
    with pytest.raises(CardinalityThree) as err:
        semimetric_us_check(tri)
    rep = err.value.report
    assert not rep.cardinality_ok
    assert (rep.in_us, rep.every4_us, rep.every4_tree) == (False, True, True)


def test_semimetric_check_small_spaces():
    two = validate_semimetric(["a", "b"], [["0", "5"], ["5", "0"]])
    rep = semimetric_us_check(two)
    assert (rep.in_us, rep.every4_us, rep.every4_tree) == (True, True, True)


def test_semimetric_check_statements_agree_randomly():
    rng = Random(41)
    from helpers import random_semimetric

    for _ in range(120):
        n = rng.choice([4, 5, 6])
        s = random_ultrametric(rng, n) if rng.random() < 0.5 else random_semimetric(rng, n)
        rep = semimetric_us_check(s)
        assert rep.agree


def test_restriction_with_center_stays_us():
    # star-generated space restricted to a subset containing the center
    rng = Random(43)
    for _ in range(40):
        star = random_star(rng, max_leaves=8)
        s = generate_ultrametric(star)
        pts = [p for p in s.points if p != star.center]
        rng.shuffle(pts)
        subset = [star.center] + pts[: rng.randint(0, len(pts))]
        sub = restrict(s, subset)
        assert star.center in find_centers(sub)
