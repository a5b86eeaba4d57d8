"""Decisions on the ranks a constructor already holds.

Distinct values are ranked by the exact key ``((p << 64) // q, value)``;
``generate_ultrametric`` and ``center_extension_probe`` hand their rank
matrices (and, for generated spaces, the hierarchy) to the space they
build; ``semimetric_us_check`` reads its every-4 statements off the
shape of the hierarchy.  These tests pin each to the earlier code kept
in ``helpers`` (the every-4 statements to each 4-subset's 4x4 rank
submatrix) or to a fresh recompute on the same points and distances.
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
from starmetric.decision import _row_minima
from starmetric.spaces import _rank_cells, _ranked_values
from helpers import (
    fraction_rank_codes,
    permuted_copy,
    rand_pos_frac,
    random_semimetric,
    random_star,
    random_tree,
    random_ultrametric,
    sliced_row_minima,
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


def test_four_point_tree_generable_matches_submatrix_reference():
    # every ultrametric pattern of six pair ranks over three values
    checked = 0
    for ab, ac, ad, bc, bd, cd in product((1, 2, 3), repeat=6):
        rows = ((0, ab, ac, ad), (ab, 0, bc, bd), (ac, bc, 0, cd), (ad, bd, cd, 0))
        s = validate_semimetric(["a", "b", "c", "d"], rows)
        if s.hierarchy is not None:
            assert four_point_tree_generable(s) == submatrix_has_diameter_point(s.ranks)
            checked += 1
    assert checked == 60


def test_us_check_matches_submatrix_reference_on_catalogue():
    rng = Random(30)
    count = 0
    for n in range(1, 9):
        for s in enumerate_classes(n):
            _pinned_us_check(s)
            _pinned_us_check(permuted_copy(rng, s))
            count += 1
    assert count == 3498


def test_us_check_matches_submatrix_reference_on_seeded_spaces():
    rng = Random(20)
    shapes = [0, 0]  # ultrametrics of four or more points, without and with every 4-subset in US
    for i in range(600):
        n = rng.randint(1, 16)
        if i % 3 == 0:
            s = random_semimetric(rng, n)
        elif i % 3 == 1:
            s = random_ultrametric(rng, n)
        else:
            s = generate_ultrametric(random_star(rng, max_leaves=n))
        _pinned_us_check(s)
        if len(s) >= 4 and s.hierarchy is not None:
            shapes[semimetric_us_check(s).every4_us] += 1
        assert _row_minima(s.ranks) == sliced_row_minima(s.ranks)
        if len(s) == 4 and i % 3:
            assert four_point_tree_generable(s) == submatrix_has_diameter_point(s.ranks)
    assert min(shapes) > 50


def test_close_pairs_at_the_chain_ends_break_every_four():
    # {p1, p2} at 1 and {q1, q2} at 2, every other pair at 3: the chain
    # starts and ends with the two pairs, and its join ranks are 1, 3, 3, 3, 2,
    # so no join rank is larger than both its neighbours
    names = ["p1", "p2", "m1", "m2", "q1", "q2"]
    close = {frozenset(("p1", "p2")): 1, frozenset(("q1", "q2")): 2}
    s = validate_semimetric(names, [[0 if a == b else close.get(frozenset((a, b)), 3) for b in names] for a in names])
    order, join = s.hierarchy
    assert order == (0, 1, 2, 3, 4, 5)
    assert [join[v] for v in order[1:]] == [1, 3, 3, 3, 2]
    assert semimetric_us_check(s) == (False, False, False, True)
    _pinned_us_check(s)


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
        # the verdict comes from the hierarchy handed over, not from a Prim pass
        assert vars(g)["hierarchy"] is not None and "ultrametric_witness" not in vars(g)
        assert g.ultrametric_witness is None
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
