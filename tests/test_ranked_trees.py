"""Trees carry their label ranks, and the star round trip ranks no labels.

``generate_ultrametric`` reads a tree's label ranks from
``LabeledTree._label_ranks``: sorted distinct values with 0 at rank 0 and
every label among them, and each vertex's rank.  A tree built through
``of`` or ``__init__`` ranks its labels once, on first use; a star from
``build_star`` carries its space's spectrum and the center's rank row.
These tests pin the handed-over pair to the ranked one: the same star
rebuilt through ``LabeledStarGraph.of`` with freshly spelled labels must
generate the same space, ranks, spectrum and hierarchy.
"""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    GeometricTail,
    HarmonicTail,
    LabeledStarGraph,
    RaySpec,
    build_star,
    enumerate_classes,
    find_centers,
    generate_ultrametric,
    ray_truncation_space,
)
from starmetric import spaces, trees

from helpers import permuted_copy, rand_pos_frac, random_star, random_tree


def _catalogue() -> list:
    """A seeded relabeling of every class with n <= 8."""
    rng = Random(2001)
    return [permuted_copy(rng, s) for n in range(1, 9) for s in enumerate_classes(n)]


def _seeded() -> list:
    """Seeded star and ray spaces up to n = 64, each also relabeled."""
    rng = Random(2002)
    out = [generate_ultrametric(random_star(rng, max_leaves=n)) for n in (1, 2, 3, 5, 8, 13, 21, 34, 63) * 2]
    for _ in range(3):
        tail = HarmonicTail(rand_pos_frac(rng)) if rng.random() < 0.5 else GeometricTail(rand_pos_frac(rng), Fraction(1, 2))
        for ray in (RaySpec((), tail, rng.randint(0, 3), decreasing=True), RaySpec((), tail)):
            out += [ray_truncation_space(ray, k) for k in (1, 2, 5, 16, 64)]
    return out + [permuted_copy(rng, s) for s in out]


SPACES = {"catalogue": _catalogue(), "seeded": _seeded()}


def _respelled(star: LabeledStarGraph) -> LabeledStarGraph:
    """The same star through ``of``, every label a fresh ``Fraction`` read from its text."""
    return LabeledStarGraph.of(
        star.center, Fraction(str(star.center_label)),
        [(v, Fraction(str(lab))) for v, lab in zip(star.leaves, star.leaf_labels)],
    )


@pytest.mark.parametrize("kind", SPACES)
def test_handed_over_ranks_generate_what_ranked_labels_do(kind):
    stars = 0
    for s in SPACES[kind]:
        for c in find_centers(s):
            star = build_star(s, c)
            values, ranks = vars(star)["_label_ranks"]  # handed over, not ranked
            assert values is s.spectrum and ranks[0] == 0
            assert [values[k] for k in ranks] == list(star.labels)
            got = generate_ultrametric(star)
            want = generate_ultrametric(_respelled(star))
            assert got == want
            assert (got.ranks, got.spectrum, got.hierarchy) == (want.ranks, want.spectrum, want.hierarchy)
            # the distances are the space's own objects, as a ranked star's are
            assert all(a is b for a, b in zip(got.spectrum[1:], s.spectrum[1:]))
            stars += 1
    assert stars > 50


def test_build_star_round_trip_ranks_no_labels(monkeypatch):
    cases = [(s, c) for kind in SPACES for s in SPACES[kind][::5] for c in find_centers(s)]
    want = [generate_ultrametric(_respelled(build_star(s, c))) for s, c in cases]

    def refuse(value_of):
        raise AssertionError("labels ranked again")

    monkeypatch.setattr(spaces, "_ranked_values", refuse)
    monkeypatch.setattr(trees, "_ranked_values", refuse)
    assert [generate_ultrametric(build_star(s, c)) for s, c in cases] == want
    assert len(cases) > 20


def test_a_tree_built_through_of_ranks_its_labels_once(monkeypatch):
    calls = []

    def counted(value_of):
        calls.append(len(value_of))
        return spaces._ranked_values(value_of)

    monkeypatch.setattr(trees, "_ranked_values", counted)
    rng = Random(2003)
    for t in (random_tree(rng, 9), random_star(rng, max_leaves=9)):
        calls.clear()
        first, second = generate_ultrametric(t), generate_ultrametric(t)
        assert first == second and first.hierarchy == second.hierarchy
        assert len(calls) == 1
