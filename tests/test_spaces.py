"""Validation, ultrametricity witnesses, spectra, restriction, JSON round trips."""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    AsymmetricMatrix,
    DuplicateName,
    EmptySubset,
    FiniteSemimetricSpace,
    MalformedMatrix,
    NegativeDistance,
    NonzeroDiagonal,
    RationalTooLarge,
    UnknownPoint,
    ZeroOffDiagonal,
    distance_spectrum,
    generate_ultrametric,
    is_ultrametric,
    rat,
    reorder,
    restrict,
    space_from_json,
    space_to_json,
    ultrametric_violation,
    validate_semimetric,
    x4_space,
    y4_space,
)
from starmetric.rational import MAX_DECIMAL_EXPONENT, MAX_RATIONAL_CHARS
from helpers import random_tree


def test_single_point_valid():
    s = validate_semimetric(["a"], [["0"]])
    assert s.points == ("a",)
    assert s.dist == ((Fraction(0),),)


def test_x4_fixture_valid_and_ultrametric():
    s = x4_space()
    assert len(s) == 4
    assert is_ultrametric(s)


@pytest.mark.parametrize(
    "points,rows,exc",
    [
        (["a", "b"], [["0", "0"], ["0", "0"]], ZeroOffDiagonal),
        (["a", "b"], [["0", "1"], ["2", "0"]], AsymmetricMatrix),
        (["a", "b"], [["0", "-1"], ["-1", "0"]], NegativeDistance),
        (["a", "b"], [["1", "2"], ["2", "0"]], NonzeroDiagonal),
        (["a", "a"], [["0", "1"], ["1", "0"]], DuplicateName),
        (["a", "b"], [["0", "1"]], MalformedMatrix),
        (["a", "b"], [["0"], ["1", "0"]], MalformedMatrix),
        ([], [], MalformedMatrix),
        (["a", "b"], [["0", "x"], ["x", "0"]], MalformedMatrix),
        (["a", "b"], [[0, True], [True, 0]], MalformedMatrix),
        (["a", "b"], [[Fraction(0), 0.5], [0.5, Fraction(0)]], MalformedMatrix),
        (["a", "b", "c"], [["0", "1"], ["1", "0"]], MalformedMatrix),
        ([["a"], "b"], [["0", "1"], ["1", "0"]], MalformedMatrix),
        (["a", "b"], [[0, Fraction(-1)], [Fraction(-1), 0]], NegativeDistance),
        (["a", "b"], [[0, Fraction(1)], [Fraction(2), 0]], AsymmetricMatrix),
        # a str is no sequence of names or cells: "01" is not the row [0, 1]
        (["a", "b"], ["01", "10"], MalformedMatrix),
        (("a", "b"), ("01", "10"), MalformedMatrix),
        ("ab", [["0", "1"], ["1", "0"]], MalformedMatrix),
        (["a", "b"], [["0", "1"], "10"], MalformedMatrix),
        (["a", "a"], [["0", "1"], "10"], MalformedMatrix),
        (["a", "b"], "0110", MalformedMatrix),
    ],
)
def test_validation_errors(points, rows, exc):
    # the reader and the constructor are one path: same first fault, same class, same message
    raised = []
    for enter in (validate_semimetric, FiniteSemimetricSpace):
        with pytest.raises(exc) as info:
            enter(points, rows)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    # where JSON can say it, the reader raises the same first fault with the same message
    if isinstance(points, (str, list)) and isinstance(rows, (str, list)) and all(isinstance(r, (str, list)) for r in rows):
        with pytest.raises(exc) as info:
            space_from_json({"points": points, "dist": rows})
        assert (type(info.value), str(info.value)) == raised[0]


@pytest.mark.parametrize("cells", [("0", "1/2"), (0, Fraction(1, 2)), (Fraction(0), Fraction(1, 2))])
def test_lists_and_tuples_give_one_space_from_both_entry_points(cells):
    zero, half = cells
    points, rows = ["a", "b"], [[zero, half], [half, zero]]
    spaces = [
        enter(p, r)
        for enter in (validate_semimetric, FiniteSemimetricSpace)
        for p, r in ((points, rows), (tuple(points), tuple(map(tuple, rows))))
    ]
    for s in spaces:
        assert s == spaces[0] and hash(s) == hash(spaces[0])
        assert "dist" not in vars(s)  # equality and hash compare points, spectrum and ranks
        assert s.points == ("a", "b") and s.dist == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))


def test_first_violation_wins():
    # row-major scan: the diagonal problem in row 0 beats the asymmetry in row 1
    with pytest.raises(NonzeroDiagonal):
        validate_semimetric(["a", "b", "c"], [["1", "1", "1"], ["2", "0", "1"], ["1", "1", "0"]])


def test_validate_idempotent_on_own_output():
    s = y4_space()
    again = validate_semimetric(s.points, s.dist)
    assert again == s


def test_ultrametric_witness_345_triangle():
    s = validate_semimetric(["a", "b", "c"], [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]])
    w = ultrametric_violation(s)
    assert w is not None
    assert w.lhs == 5 and w.rhs == 4
    assert not is_ultrametric(s)


def test_two_point_spaces_vacuously_ultrametric():
    s = validate_semimetric(["a", "b"], [["0", "7"], ["7", "0"]])
    assert is_ultrametric(s)


def test_generated_trees_are_ultrametric():
    rng = Random(7)
    for _ in range(60):
        tree = random_tree(rng, rng.randint(1, 12))
        assert is_ultrametric(generate_ultrametric(tree))


def test_spectrum_fixtures():
    assert distance_spectrum(x4_space()) == (0, 1, 2, 3)
    assert distance_spectrum(y4_space()) == (0, 2, 3)
    single = validate_semimetric(["a"], [["0"]])
    assert distance_spectrum(single) == (0,)


def test_restrict_identity_and_single():
    s = x4_space()
    assert restrict(s, s.points) == s
    one = restrict(s, ["p2"])
    assert one.points == ("p2",)
    assert one.dist == ((Fraction(0),),)


def test_restrict_preserves_order_and_spectrum_subset():
    rng = Random(3)
    for _ in range(40):
        tree = random_tree(rng, rng.randint(2, 9))
        s = generate_ultrametric(tree)
        pts = list(s.points)
        rng.shuffle(pts)
        sub = restrict(s, pts[: rng.randint(1, len(pts))])
        assert list(sub.points) == [p for p in s.points if p in set(sub.points)]
        assert set(distance_spectrum(sub)) <= set(distance_spectrum(s))
        assert is_ultrametric(sub)  # hereditary


def test_restrict_errors():
    s = x4_space()
    with pytest.raises(EmptySubset):
        restrict(s, [])
    with pytest.raises(UnknownPoint):
        restrict(s, ["p1", "nope"])
    with pytest.raises(DuplicateName):
        reorder(s, ["p1", "p1"])


def test_reorder_round_trip():
    s = x4_space()
    back = reorder(reorder(s, ("p3", "p1", "p4", "p2")), s.points)
    assert back == s


def test_json_round_trip_exact():
    s = validate_semimetric(
        ["a", "b", "c"],
        [["0", "1/3", "0.25"], ["1/3", "0", "1/3"], ["0.25", "1/3", "0"]],
    )
    assert s.d("a", "c") == Fraction(1, 4)
    obj = space_to_json(s)
    assert obj["dist"][0][1] == "1/3"
    assert space_from_json(obj) == s


def test_json_requires_keys():
    with pytest.raises(MalformedMatrix):
        space_from_json({"points": ["a"]})
    with pytest.raises(MalformedMatrix):
        space_from_json([1, 2])


def test_float_entries_rejected():
    with pytest.raises(MalformedMatrix):
        validate_semimetric(["a", "b"], [[0, 0.5], [0.5, 0]])


def test_rat_bounds_length_and_exponent():
    with pytest.raises(RationalTooLarge):
        rat("1e20000")
    with pytest.raises(RationalTooLarge):
        rat("-3.5E-20000")
    with pytest.raises(RationalTooLarge):
        rat("7" * (MAX_RATIONAL_CHARS + 1))
    assert issubclass(RationalTooLarge, ValueError)
    assert rat(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
    assert rat("2.5e-3") == Fraction(1, 400)
