"""Spaces store points, spectrum and ranks; ``dist`` is built only when read.

``validate_semimetric`` parses a square matrix of ``str``, ``int`` and
``Fraction`` cells straight to the spectrum and the rank matrix; an
ordered scan runs only to raise the first bad row or cell.  These tests
pin the parse to the earlier per-row-code parse kept in ``helpers``
(same ranks, spectrum and distances; same exception type and message),
check that the similarity and decision verbs never build
``dist``, and that equality, hashing and immutability keep their meaning.
"""

import dataclasses
from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    FiniteSemimetricSpace,
    build_star,
    canonical_form,
    center_extension_probe,
    distance_spectrum,
    find_centers,
    find_forbidden_quadruple,
    generate_ultrametric,
    isometry_bijection,
    reorder,
    restrict,
    semimetric_us_check,
    space_from_json,
    space_to_json,
    ultrametric_violation,
    validate_semimetric,
    weak_similarity_bijection,
)
from helpers import coded_validate_semimetric, monotone_transform, permuted_copy, random_semimetric, random_ultrametric


class _Int(int):
    pass


class _Str(str):
    pass


# equal values in several spellings; bools and floats sit among them on purpose
SPELLINGS = [
    ["1/2", "2/4", "0.5", " 1/2 ", Fraction(1, 2)],
    ["1", "01", "1.0", "2/2", 1, True, 1.0, Fraction(1)],
    ["3/4", "6/8", "0.75", "75e-2"],
    ["2", "4/2", 2, "+2"],
]
ZEROS = ["0", "0/1", "0.0", "-0", 0, False, 0.0, Fraction(0)]
ODD = ["-1", "-1/2", -1, None, [1], {"a": 1}, "abc", "1/0", "", "9" * 1001, "1e2000", 10**40]

CASES = {
    "True next to 1": [["0", 1], [True, "0"]],
    "True hidden behind an equal int": [["0", 1, 1], [1, "0", True], [1, 1, "0"]],
    "1.0 next to '1'": [["0", "1"], [1.0, "0"]],
    "1.0 hidden behind an equal Fraction": [["0", Fraction(1)], [1.0, "0"]],
    "int and str subclass cells": [["0", _Int(2)], [_Str("2"), "0"]],
    "Fraction and int cells": [[0, Fraction(1, 2), "3"], [Fraction(1, 2), 0, 2], ["3", 2, Fraction(0)]],
    "'1/2' mirrored by '0.5'": [["0", "1/2"], ["0.5", "0"]],
    "diagonal '0/1' and '0.0'": [["0/1", "1", "2"], ["1", "0.0", "1"], ["2", "1", "0"]],
    "bad cell before a short row": [["0", "1", "1"], ["1", "0", "1/0"], ["1", "1"]],
    "short row before a bad cell": [["0", "1", "1"], ["1", "0"], ["1", "1/0", "0"]],
    "None cell": [["0", None], [None, "0"]],
    "list cell": [["0", "1"], [[1], "0"]],
    "dict cell": [["0", {"a": 1}], ["1", "0"]],
    "negative values": [["0", "-1"], ["-1", "0"]],
    "negative int": [["0", -1], [-1, "0"]],
    "1,001-character string": [["0", "9" * 1001], ["9" * 1001, "0"]],
    "asymmetric strings": [["0", "1"], ["2", "0"]],
    "zero off the diagonal": [["0", "0"], ["0", "0"]],
    "nonzero diagonal": [["1", "2"], ["2", "0"]],
    "one point": [["0.0"]],
}


def _outcome(validate, points, rows):
    try:
        return validate(points, rows)
    except Exception as exc:
        return type(exc), str(exc)


def _same_parse(points, rows) -> bool:
    """Whether the parse agrees with the reference; returns whether the input was valid."""
    got = _outcome(validate_semimetric, points, rows)
    expected = _outcome(coded_validate_semimetric, points, rows)
    if isinstance(expected, tuple):
        assert got == expected
        return False
    assert "dist" not in vars(got)
    assert got.points == expected.points
    assert got.ranks == expected.ranks
    assert got.spectrum == distance_spectrum(expected)
    assert got.dist == expected.dist
    return True


@pytest.mark.parametrize("name", list(CASES))
def test_named_cases_match_reference(name):
    rows = CASES[name]
    _same_parse([f"p{i + 1}" for i in range(len(rows))], rows)


def _random_rows(rng: Random, n: int) -> list[list]:
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(ZEROS) if rng.random() < 0.9 else rng.choice(ODD[:4] + ["1"])
        for j in range(i + 1, n):
            if rng.random() < 0.85:  # one value in two spellings
                group = rng.choice(SPELLINGS)
                rows[i][j], rows[j][i] = rng.choice(group), rng.choice(group)
            else:
                cells = [v for group in SPELLINGS for v in group] + ZEROS + ODD
                rows[i][j], rows[j][i] = rng.choice(cells), rng.choice(cells)
    if n > 1 and rng.random() < 0.1:
        rows[rng.randrange(n)].pop()
    return rows


def test_seeded_matrices_match_reference():
    rng = Random(12)
    valid = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        valid += _same_parse([f"p{i + 1}" for i in range(n)], _random_rows(rng, n))
    assert 30 < valid < 570  # both outcomes are well represented


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_seeded_string_spaces_match_reference(n):
    rng = Random(n)
    for make in (random_semimetric, random_ultrametric):
        s = make(rng, n)
        rows = space_to_json(s)["dist"]
        assert _same_parse(s.points, rows)
        # the same matrix with every cell an exact Fraction
        assert _same_parse(s.points, [[Fraction(x) for x in row] for row in rows])


def _parsed(s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    return space_from_json(space_to_json(s))


@pytest.mark.parametrize("seed", range(6))
def test_similarity_verbs_build_no_dist(seed):
    rng = Random(seed)
    s = random_ultrametric(rng, 7) if seed % 2 else random_semimetric(rng, 7)
    for t in (permuted_copy(rng, s), monotone_transform(rng, s), random_semimetric(rng, 7)):
        a, b = _parsed(s), _parsed(t)
        weak_similarity_bijection(a, b)
        isometry_bijection(a, b)
        canonical_form(a)
        canonical_form(b)
        assert a == a and (a == b) == (s == t)
        assert "dist" not in vars(a) and "dist" not in vars(b)


@pytest.mark.parametrize("seed", range(6))
def test_decision_verbs_build_no_dist(seed):
    rng = Random(seed)
    s = _parsed(random_ultrametric(rng, 9))
    semimetric_us_check(s)
    if find_forbidden_quadruple(s) is None:
        center_extension_probe(s)
    for c in find_centers(s):
        assert reorder(generate_ultrametric(build_star(s, c)), s.points) == s
    t = _parsed(random_semimetric(rng, 9))
    w = ultrametric_violation(t)
    assert w is None or (w.lhs, w.rhs) == (t.d(w.x, w.y), max(t.d(w.x, w.z), t.d(w.z, w.y)))
    restrict(t, t.points[::2])
    assert "dist" not in vars(s) and "dist" not in vars(t)


@pytest.mark.parametrize("seed", range(4))
def test_parsed_and_public_spaces_are_equal_and_hash_equal(seed):
    rng = Random(seed)
    s = _parsed(random_semimetric(rng, 6) if seed % 2 else random_ultrametric(rng, 6))
    t = FiniteSemimetricSpace(s.points, s.dist)
    assert vars(t)["spectrum"] == s.spectrum and vars(t)["ranks"] == s.ranks  # ranked at construction
    assert t.dist == s.dist  # rebuilt from spectrum and ranks, as on the parsed space
    assert s == t and t == s
    assert hash(s) == hash(t) and hash(t) == hash(s)
    other = FiniteSemimetricSpace(s.points, monotone_transform(rng, s).dist)
    assert s != other and other != s
    assert _parsed(other) != s  # same ranks, other spectrum


def test_reorder_keeps_or_renumbers_the_spectrum():
    rng = Random(5)
    s = _parsed(random_semimetric(rng, 8))
    for order in (s.points[::-1], s.points[2:5], s.points[:1], (s.points[3], s.points[0])):
        sub = reorder(s, order)
        idx = [s.index(p) for p in order]
        fresh = FiniteSemimetricSpace(tuple(order), tuple(tuple(s.dist[a][b] for b in idx) for a in idx))
        assert sub.ranks == fresh.ranks and sub.spectrum == fresh.spectrum
        assert "dist" not in vars(sub)
        assert sub == fresh  # fresh ranked its distances when built, so this compares points, spectra and ranks


def test_attributes_cannot_be_assigned():
    s = validate_semimetric(["a", "b"], [["0", "1"], ["1", "0"]])
    t = FiniteSemimetricSpace(s.points, s.dist)
    for space in (s, t):
        for name in ("points", "dist", "ranks", "spectrum", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(space, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del space.points
    assert s.dist == ((0, 1), (1, 0)) == t.dist
