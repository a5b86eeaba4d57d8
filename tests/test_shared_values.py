"""One Fraction per distinct distance value, and integer work per entry.

``validate_semimetric`` parses each distinct string once and returns
the space with its rank matrix already set, ``ranks`` groups entries by
object identity, ``generate_ultrametric`` takes path
maxima on label ranks and ``RankedHierarchy.to_space`` shares one
Fraction per level and hands over the rank core it already holds.  These tests pin each to the earlier per-entry
Fraction form kept in ``helpers``.  Hypothesis runs derandomized, so
every run draws the same examples.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from starmetric import (
    FiniteSemimetricSpace,
    LabeledStarGraph,
    LabeledTree,
    generate_ultrametric,
    is_ultrametric,
    space_from_json,
    space_to_json,
    validate_semimetric,
)
from starmetric.cli import run
from starmetric.harness import enumerate_hierarchies
from helpers import (
    fraction_generate_ultrametric,
    permuted_copy,
    rand_pos_frac,
    random_semimetric,
    random_ultrametric,
    reference_validate_semimetric,
)

# equal values in several spellings; True sits next to 1 on purpose
SPELLINGS = [
    ["1/2", "2/4", "0.5", " 1/2 ", Fraction(1, 2)],
    ["1", "01", "1.0", "2/2", 1, True, Fraction(1)],
    ["3/4", "6/8", "0.75", "75e-2"],
    ["2", "4/2", 2, "+2"],
]
ZEROS = ["0", "0/3", "-0", "0.0", 0, False, Fraction(0)]
ODD = [
    "-1",
    "-1/2",
    -1,
    0.5,
    1.0,
    None,
    [1],
    [],
    {"a": 1},
    "abc",
    "1/0",
    "",
    " ",
    "9" * 1001,
    "1e2000",
    "1/" + "7" * 998,
    10**40,
    "123456789123456789/987654321",
]


@st.composite
def matrices(draw):
    """Small matrices that are mostly symmetric, with odd cells mixed in."""
    n = draw(st.integers(1, 4))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(ZEROS + ODD[:3] + ["1"]))
        for j in range(i + 1, n):
            pick = draw(st.integers(0, 4))
            if pick < 3:  # one value in two spellings
                spellings = draw(st.sampled_from(SPELLINGS))
                rows[i][j], rows[j][i] = draw(st.sampled_from(spellings)), draw(st.sampled_from(spellings))
            else:
                cell = st.sampled_from([v for group in SPELLINGS for v in group] + ZEROS + ODD)
                rows[i][j], rows[j][i] = draw(cell), draw(cell)
    if n > 1 and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    return [f"p{i + 1}" for i in range(n)], rows


def _outcome(validate, points, rows):
    try:
        return validate(points, rows)
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(matrices())
def test_parse_matches_reference(m):
    points, rows = m
    got = _outcome(validate_semimetric, points, rows)
    expected = _outcome(reference_validate_semimetric, points, rows)
    assert got == expected
    if not isinstance(expected, tuple):
        # the parse sets the rank matrix; the reference's space derives it
        assert "ranks" in vars(got)
        assert got.ranks == expected.ranks


def _ones_row(n: int, i: int) -> list:
    return ["0" if j == i else "1" for j in range(n)]


# each row of strings already seen maps in one pass; these take the cell-by-cell path
FALLBACK_ROWS = {
    "unhashable after seen rows": [_ones_row(3, 0), _ones_row(3, 1), ["1", [1], "0"]],
    "bad string before unhashable": [_ones_row(3, 0), _ones_row(3, 1), ["1", "abc", {"a": 1}]],
    "True next to 1 and '1'": [_ones_row(3, 0), [1, "0", True], ["1", True, "0"]],
    "True among seen strings": [_ones_row(3, 0), ["1", "0", "1"], ["1", True, "0"]],
    "bad cell before a short row": [_ones_row(3, 0), ["1", "0", "1/0"], ["1", "1"]],
    "short row before a bad cell": [_ones_row(3, 0), ["1", "0"], ["1", "1/0", "0"]],
    "valid int in the last row": [["0", "1", "2"], ["1", "0", "1"], ["2", 1, "0"]],
    "asymmetric int in the last row": [["0", "1", "2"], ["1", "0", "1"], ["2", 3, "0"]],
    "negative int in the last row": [["0", "1", "-1"], ["1", "0", "1"], [-1, "1", "0"]],
    "Fraction in the last row": [["0", "1/2"], [Fraction(1, 2), "0"]],
    "zero in the last row of 128": [_ones_row(128, i) for i in range(127)] + [[0] + _ones_row(128, 127)[1:]],
    "bad last row of 128": [_ones_row(128, i) for i in range(127)] + [_ones_row(128, 127)[:-1] + [0.5]],
}


def test_fallback_rows_match_reference():
    for name, rows in FALLBACK_ROWS.items():
        points = [f"p{i + 1}" for i in range(len(rows))]
        got = _outcome(validate_semimetric, points, rows)
        assert got == _outcome(reference_validate_semimetric, points, rows), name
        if not isinstance(got, tuple):
            assert got.ranks == FiniteSemimetricSpace(got.points, got.dist).ranks, name


def _family_space(rng: Random, family: str, n: int) -> FiniteSemimetricSpace:
    if family == "star":
        leaves = [(f"u{i + 1}", rand_pos_frac(rng)) for i in range(n - 1)]
        return generate_ultrametric(LabeledStarGraph.of("c", 0, leaves))
    return (random_semimetric if family == "semi" else random_ultrametric)(rng, n)


def _json_copy(s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    return space_from_json(json.loads(json.dumps(space_to_json(s))))


def test_parsed_spaces_hold_their_rank_matrix():
    rng = Random(13)
    for n in (1, 2, 5, 17, 64, 128, 256):
        for family in ("semi", "ultra", "star"):
            s = _family_space(rng, family, n)
            for space in (s, permuted_copy(rng, s)):
                parsed = _json_copy(space)
                assert "ranks" in vars(parsed)
                assert parsed.ranks == FiniteSemimetricSpace(parsed.points, parsed.dist).ranks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["semi", "ultra", "star"]), st.integers(1, 40))
def test_json_round_trip(seed, family, n):
    s = _family_space(Random(seed), family, n)
    back = _json_copy(s)
    assert back == s
    assert back.ranks == s.ranks == FiniteSemimetricSpace(s.points, s.dist).ranks


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices())
def test_malformed_input_through_the_cli(m):
    points, rows = m
    # JSON has no Fraction; write those cells as strings
    rows = json.loads(json.dumps(rows, default=str))
    expected = _outcome(reference_validate_semimetric, points, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"points": points, "dist": rows}, fh)
        us, check = _run(["us", path]), _run(["check", path])
    if isinstance(expected, tuple):
        assert us == check == (2, "", f"error: {path}: {expected[1]}\n")
    else:
        assert us[0] in (0, 1)
        assert check[0] == (0 if is_ultrametric(expected) else 1)


def test_equal_strings_share_one_fraction():
    s = validate_semimetric(["a", "b", "c"], [["0", "1/2", "2/4"], ["1/2", "0", "1/2"], ["2/4", "1/2", "0"]])
    assert s.dist[0][1] is s.dist[1][0] is s.dist[1][2]
    # different spellings of one value are parsed apart but rank together
    assert s.dist[0][2] == s.dist[0][1]
    assert s.ranks == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def _unshared(s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    rows = tuple(tuple(Fraction(v.numerator, v.denominator) for v in row) for row in s.dist)
    return FiniteSemimetricSpace(s.points, rows)


def _respelled(rng: Random, s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    def spell(v: Fraction) -> str:
        k = rng.randint(1, 3)
        return f"{v.numerator * k}/{v.denominator * k}"

    return validate_semimetric(s.points, [[spell(v) for v in row] for row in s.dist])


def test_ranks_do_not_depend_on_shared_objects():
    rng = Random(5)
    for trial in range(200):
        n = rng.randint(1, 9)
        s = random_semimetric(rng, n) if trial % 2 else random_ultrametric(rng, n)
        shared = validate_semimetric(s.points, [[str(v) for v in row] for row in s.dist])
        assert len({id(v) for row in shared.dist for v in row}) == len({v for row in s.dist for v in row})
        for other in (_unshared(s), _respelled(rng, s)):
            assert other == shared
            assert other.ranks == shared.ranks


def _tied_tree(rng: Random, n: int) -> LabeledTree:
    """Random generating tree whose labels come from a few values, often as distinct objects."""
    names = [f"v{i + 1}" for i in range(n)]
    edges = [(names[rng.randint(0, i - 1)], names[i]) for i in range(1, n)]
    pool = [Fraction(rng.randint(1, 5), rng.randint(1, 2)) for _ in range(3)]
    labels = {}
    for v in names:
        value = Fraction(0) if rng.random() < 0.2 else rng.choice(pool)
        labels[v] = rng.choice([value, Fraction(value.numerator, value.denominator), str(value)])
    for u, v in edges:
        if Fraction(labels[u]) == 0 and Fraction(labels[v]) == 0:
            labels[v] = rng.choice(pool)
    return LabeledTree.of([(v, labels[v]) for v in names], edges)


def test_generate_ultrametric_matches_fraction_reference():
    rng = Random(11)
    for _ in range(300):
        tree = _tied_tree(rng, rng.randint(1, 14))
        got = generate_ultrametric(tree)
        expected = fraction_generate_ultrametric(tree)
        assert got.points == expected.points
        n = len(got.points)
        assert all(got.dist[i][j] == expected.dist[i][j] for i in range(n) for j in range(n))
        assert got.ranks == expected.ranks
        off = [got.dist[i][j] for i in range(n) for j in range(n) if i != j]
        # tied labels come out as one object
        assert len({id(v) for v in off}) == len(set(off))


def test_class_spaces_rank_as_their_hierarchy():
    for n in range(1, 9):
        for h in enumerate_hierarchies(n):
            s = h.to_space()
            # to_space hands over the ranks and the chain; a fresh space derives them from the distances
            assert {"ranks", "hierarchy"} <= vars(s).keys() and "ultrametric_witness" not in vars(s)
            assert s.hierarchy == (tuple(range(n)), (0, *h._gaps))
            fresh = FiniteSemimetricSpace(s.points, s.dist)
            assert s.ranks == fresh.ranks
            assert s.ultrametric_witness is None and fresh.ultrametric_witness is None
            assert all(v == r for row, rrow in zip(s.dist, s.ranks) for v, r in zip(row, rrow))
