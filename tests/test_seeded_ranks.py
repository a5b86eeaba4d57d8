"""Decisions on the ranks a constructor already holds.

Distinct values are ranked by the exact key ``((p << 64) // q, value)``;
``generate_ultrametric`` and ``center_extension_probe`` hand their rank
matrices (and, for generated spaces, the ultrametric verdict) to the
space they build; ``semimetric_us_check`` decides each 4-subset from its
six pair ranks.  These tests pin each to the earlier code kept in
``helpers`` or to a fresh recompute on the same points and distances.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from starmetric import (
    CardinalityThree,
    FiniteSemimetricSpace,
    LabeledStarGraph,
    LabeledTree,
    center_extension_probe,
    distance_spectrum,
    enumerate_classes,
    four_point_tree_generable,
    generate_ultrametric,
    semimetric_us_check,
    validate_semimetric,
)
from starmetric.decision import _four_point, _row_minima
from starmetric.spaces import _rank_cells, _ranked_values
from helpers import (
    fraction_rank_codes,
    rand_pos_frac,
    random_semimetric,
    random_star,
    random_tree,
    random_ultrametric,
    sliced_row_minima,
    submatrix_center_indices,
    submatrix_has_diameter_point,
    submatrix_semimetric_us_check,
)


def _report(check, s):
    try:
        return check(s)
    except CardinalityThree as err:
        return err.report


def _pinned_us_check(s) -> None:
    assert _report(semimetric_us_check, s) == _report(submatrix_semimetric_us_check, s)


def test_six_ranks_match_submatrix_reference():
    # every pattern of six pair ranks over three values, ultrametric or not
    for ab, ac, ad, bc, bd, cd in product((1, 2, 3), repeat=6):
        sub = ((0, ab, ac, ad), (ab, 0, bc, bd), (ac, bc, 0, cd), (ad, bd, cd, 0))
        expected = (bool(submatrix_center_indices(sub)), submatrix_has_diameter_point(sub))
        assert _four_point(ab, ac, ad, bc, bd, cd) == expected


def test_us_check_matches_submatrix_reference_on_catalogue():
    count = 0
    for n in range(1, 8):
        for s in enumerate_classes(n):
            _pinned_us_check(s)
            count += 1
    assert count == 588


def test_us_check_matches_submatrix_reference_on_seeded_spaces():
    rng = Random(20)
    for i in range(240):
        n = rng.randint(1, 10)
        if i % 3 == 0:
            s = random_semimetric(rng, n)
        elif i % 3 == 1:
            s = random_ultrametric(rng, n)
        else:
            s = generate_ultrametric(random_star(rng, max_leaves=9))
        _pinned_us_check(s)
        assert _row_minima(s.ranks) == sliced_row_minima(s.ranks)
        if len(s) == 4 and i % 3:
            assert four_point_tree_generable(s) == submatrix_has_diameter_point(s.ranks)


TINY = Fraction(1, 2**70)
BIG = 10**900


@pytest.mark.parametrize(
    "values",
    [
        [Fraction(1, 3) + k * TINY for k in (3, -2, 0, 5, -7, 1)],
        [Fraction(BIG + k, BIG - 1) for k in (2, -1, 0, 7, 1)] + [Fraction(1), Fraction(BIG, 3)],
        [Fraction(-1, 2), Fraction(0), Fraction(3), Fraction(-7, 3), Fraction(-1, 2) - TINY],
        [3, Fraction(5, 2), 0, -4, 1, Fraction(1), 2],
    ],
    ids=["2^-70-apart", "900-digit", "negative", "ints"],
)
def test_exact_key_orders_like_sorted(values):
    rng = Random(len(values))
    for _ in range(5):
        rng.shuffle(values)
        spectrum, rank = _ranked_values(dict(enumerate(values)))
        assert list(spectrum) == sorted(set(values))
        assert [spectrum[rank[i]] for i in range(len(values))] == values
    fractions = [Fraction(v) for v in values]
    codes = [[rng.randrange(len(fractions)) for _ in range(4)] for _ in range(4)]
    assert _rank_cells(dict(enumerate(fractions)), codes)[1] == fraction_rank_codes(fractions, codes)


def test_spectrum_of_close_values():
    a, b = Fraction(1, 3), Fraction(1, 3) + TINY
    s = validate_semimetric(["p", "q", "r"], [[0, b, a], [b, 0, b], [a, b, 0]])
    assert distance_spectrum(s) == (0, a, b)
    assert s.ranks == ((0, 2, 1), (2, 0, 2), (1, 2, 0))


def _pinned_to_fresh(s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    """A handed-over rank matrix equals a recompute on the same points and distances."""
    assert "ranks" in vars(s)
    fresh = FiniteSemimetricSpace(s.points, s.dist)
    assert s.ranks == fresh.ranks
    return fresh


def _seeded_trees(rng: Random):
    yield LabeledTree.of([("a", 3)], [])
    yield LabeledTree.of([("a", 0)], [])
    # every leaf label below the center label: none of them is a distance
    yield LabeledStarGraph.of("c", 5, [("u", 1), ("v", 2), ("w", 1)])
    pool = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(3)]
    for i in range(297):
        if i % 3 == 0:
            yield random_tree(rng, rng.randint(1, 30))
        elif i % 3 == 1:
            center = rng.choice(pool)
            leaves = [(f"u{j}", rng.choice(pool[1:]) if center == 0 else rng.choice(pool)) for j in range(rng.randint(0, 12))]
            yield LabeledStarGraph.of("c", center, leaves)
        else:
            yield random_star(rng, max_leaves=20)


def test_generated_spaces_hand_over_ranks_and_verdict():
    rng = Random(21)
    trees = list(_seeded_trees(rng))
    assert len(trees) == 300
    absent = 0
    for t in trees:
        g = generate_ultrametric(t)
        fresh = _pinned_to_fresh(g)
        assert vars(g)["ultrametric_witness"] is None
        assert fresh.ultrametric_witness is None
        absent += len({lab for lab in t.labels if lab} - set(distance_spectrum(g))) > 0
    assert absent > 10


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_probe_extension_hands_over_ranks(n):
    rng = Random(n)
    leaves = [(f"u{i}", rand_pos_frac(rng)) for i in range(n - 1)]
    generated = generate_ultrametric(LabeledStarGraph.of("c", 0, leaves))
    parsed = validate_semimetric(generated.points, [[str(v) for v in row] for row in generated.dist])
    for s in (generated, parsed):
        rep = center_extension_probe(s)
        assert rep.success
        fresh = _pinned_to_fresh(rep.extension)
        assert fresh.ultrametric_witness is None
