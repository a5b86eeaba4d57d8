"""Rank matrices, weak similarity, canonical forms, exact isometry."""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from starmetric import (
    FiniteSemimetricSpace,
    LabeledStarGraph,
    canonical_form,
    distance_spectrum,
    enumerate_classes,
    find_centers,
    find_forbidden_quadruple,
    four_point_tree_generable,
    generate_ultrametric,
    is_ultrametric,
    is_us,
    isometric,
    isometry_bijection,
    rank_matrix,
    validate_semimetric,
    weak_similarity_bijection,
    weakly_similar,
    x4_space,
    y4_space,
)
from helpers import (
    dfs_canonical_form,
    matrix_bijection,
    monotone_transform,
    permuted_copy,
    random_semimetric,
    random_star,
    random_ultrametric,
    recursive_matrix_bijection,
)


def test_rank_matrix_x4():
    rm = rank_matrix(x4_space())
    # points p1..p4; pair (p1,p3) rank 1, (p2,p4) rank 2, cross rank 3
    assert rm[0][2] == rm[2][0] == 1
    assert rm[1][3] == rm[3][1] == 2
    assert rm[0][1] == rm[0][3] == rm[1][2] == rm[2][3] == 3
    assert all(rm[i][i] == 0 for i in range(4))


def test_rank_matrix_all_equal():
    s = validate_semimetric(
        ["a", "b", "c"], [["0", "7", "7"], ["7", "0", "7"], ["7", "7", "0"]]
    )
    rm = rank_matrix(s)
    assert all(rm[i][j] == 1 for i in range(3) for j in range(3) if i != j)


def test_rank_matrix_invariant_under_monotone_maps():
    rng = Random(2)
    for _ in range(40):
        s = random_semimetric(rng, rng.randint(2, 7))
        squared = validate_semimetric(s.points, [[v * v for v in row] for row in s.dist])
        assert rank_matrix(squared) == rank_matrix(s)
        assert rank_matrix(monotone_transform(rng, s)) == rank_matrix(s)


def test_weakly_similar_fixtures():
    assert not weakly_similar(x4_space(), y4_space())  # spectra sizes 4 vs 3
    s = x4_space()
    assert weak_similarity_bijection(s, s) == {p: p for p in s.points}


def test_weak_similarity_respects_transform_and_relabel():
    rng = Random(13)
    for _ in range(60):
        s = random_semimetric(rng, rng.randint(2, 7))
        other = permuted_copy(rng, monotone_transform(rng, s))
        phi = weak_similarity_bijection(s, other)
        assert phi is not None
        rm_s, rm_o = rank_matrix(s), rank_matrix(other)
        for i, p in enumerate(s.points):
            for j, q in enumerate(s.points):
                assert rm_s[i][j] == rm_o[other.index(phi[p])][other.index(phi[q])]


def test_weak_similarity_equivalence_laws():
    rng = Random(19)
    pool = [random_ultrametric(rng, rng.randint(2, 6)) for _ in range(8)]
    pool += [random_semimetric(rng, rng.randint(2, 6)) for _ in range(8)]
    for a in pool:
        assert weakly_similar(a, a)
    for a in pool:
        for b in pool:
            assert weakly_similar(a, b) == weakly_similar(b, a)
    # transitivity along constructed chains
    for a in pool:
        b = permuted_copy(rng, monotone_transform(rng, a))
        c = permuted_copy(rng, monotone_transform(rng, b), rename="r")
        assert weakly_similar(a, b) and weakly_similar(b, c) and weakly_similar(a, c)
    # negative consistency: a ~ b and not b ~ c forbids a ~ c
    for a in pool:
        b = permuted_copy(rng, a)
        for c in pool:
            if not weakly_similar(b, c):
                assert not weakly_similar(a, c)


def test_weak_similarity_preserves_ultrametricity():
    rng = Random(37)
    for _ in range(40):
        a = random_ultrametric(rng, rng.randint(2, 7))
        b = permuted_copy(rng, monotone_transform(rng, a))
        assert weakly_similar(a, b)
        assert is_ultrametric(b)


def test_order_level_invariance_of_decisions():
    rng = Random(53)
    for _ in range(50):
        a = random_ultrametric(rng, rng.randint(2, 7))
        b = permuted_copy(rng, monotone_transform(rng, a))
        phi = weak_similarity_bijection(a, b)
        assert phi is not None
        assert is_us(a) == is_us(b)
        assert {phi[p] for p in find_centers(a)} == set(find_centers(b))
        assert (find_forbidden_quadruple(a) is None) == (find_forbidden_quadruple(b) is None)
        if len(a.points) == 4:
            assert four_point_tree_generable(a) == four_point_tree_generable(b)


def test_canonical_form_relabel_invariance():
    rng = Random(61)
    for _ in range(40):
        s = random_ultrametric(rng, rng.randint(1, 7))
        other = permuted_copy(rng, s)
        assert canonical_form(s) == canonical_form(other)
        assert canonical_form(monotone_transform(rng, s)) == canonical_form(s)


def test_canonical_form_fixtures_distinct():
    assert canonical_form(x4_space()) != canonical_form(y4_space())


def test_canonical_form_three_point_classes():
    alleq = validate_semimetric(
        ["a", "b", "c"], [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]
    )
    close_pair = validate_semimetric(
        ["a", "b", "c"], [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]
    )
    assert canonical_form(alleq) != canonical_form(close_pair)
    assert not weakly_similar(alleq, close_pair)


def test_canonical_form_is_minimal_row_major():
    # brute cross-check on small random spaces
    rng = Random(67)
    makers = (
        lambda: random_ultrametric(rng, rng.randint(2, 6)),
        lambda: random_semimetric(rng, rng.randint(2, 6)),
        lambda: generate_ultrametric(random_star(rng, max_leaves=5)),
    )
    for i in range(60):
        s = makers[i % 3]()
        rm = rank_matrix(s)
        n = len(rm)
        best = min(
            tuple(rm[p[i]][p[j]] for i in range(n) for j in range(i + 1, n))
            for p in permutations(range(n))
        )
        form = canonical_form(s)
        got = tuple(form.ranks[i][j] for i in range(n) for j in range(i + 1, n))
        assert got == best


def test_canonical_digest_stable():
    form = canonical_form(x4_space())
    again = canonical_form(permuted_copy(Random(71), x4_space()))
    assert form.digest == again.digest
    assert form.to_json()["digest"] == form.digest


def _random_space(rng: Random, n: int) -> FiniteSemimetricSpace:
    kind = rng.randrange(3)
    if kind == 0:
        return random_semimetric(rng, n)
    if kind == 1:
        return random_ultrametric(rng, n)
    return generate_ultrametric(random_star(rng, max_leaves=n - 1)) if n > 1 else random_ultrametric(rng, 1)


def test_canonical_form_matches_dfs_reference_on_random_spaces():
    rng = Random(83)
    for _ in range(400):
        s = _random_space(rng, rng.randint(1, 8))
        assert canonical_form(s) == dfs_canonical_form(s)


def test_canonical_form_matches_dfs_reference_on_every_class():
    for n in range(1, 8):
        for s in enumerate_classes(n):
            assert canonical_form(s) == dfs_canonical_form(s)


def _two_value_space(rng: Random, n: int) -> FiniteSemimetricSpace:
    # rows often share a sorted profile, so the bijection search backtracks
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = str(rng.randint(1, 2))
    return validate_semimetric([f"p{i + 1}" for i in range(n)], rows)


def test_matrix_bijection_matches_recursive_reference():
    rng = Random(89)
    similar = 0
    for t in range(1500):
        n = rng.randint(1, 9)
        make = _two_value_space if t % 2 else _random_space
        a = make(rng, n)
        b = permuted_copy(rng, a) if rng.random() < 0.5 else make(rng, n)
        got = matrix_bijection(a.ranks, b.ranks)
        assert got == recursive_matrix_bijection(a.ranks, b.ranks)
        similar += got is not None
    assert 0 < similar < 1500


def _assert_form_invariant(rng: Random, s: FiniteSemimetricSpace) -> None:
    form = canonical_form(s)
    assert matrix_bijection(rank_matrix(s), form.ranks) is not None
    assert canonical_form(permuted_copy(rng, monotone_transform(rng, s))) == form


def test_canonical_form_anchors_beyond_the_recursive_search():
    # each of these took the earlier recursive DFS more than 30 s
    rng = Random(97)
    harmonic = LabeledStarGraph.of("c", 0, [(f"u{i}", Fraction(1, i)) for i in range(1, 17)])
    _assert_form_invariant(rng, generate_ultrametric(harmonic))
    _assert_form_invariant(rng, random_semimetric(rng, 12))


def test_canonical_form_hypercube():
    # path metric of the 4-cube: vertex-transitive, every row profile 1^4 2^6 3^4 4^1
    names = [f"v{i}" for i in range(16)]
    rows = [[str(bin(i ^ j).count("1")) for j in range(16)] for i in range(16)]
    cube = validate_semimetric(names, rows)
    form = canonical_form(cube)
    assert form.ranks[0] == (0,) + (1,) * 4 + (2,) * 6 + (3,) * 4 + (4,)
    _assert_form_invariant(Random(101), cube)


def _large_star(n: int) -> FiniteSemimetricSpace:
    # generated by the star with center p1 (label 0) and leaf labels 2..n;
    # built directly, since parsing 10^6 entries would dominate the test
    values = [Fraction(v) for v in range(n + 1)]
    rows = tuple(tuple(values[max(i, j) + 1 if i != j else 0] for j in range(n)) for i in range(n))
    return FiniteSemimetricSpace(tuple(f"p{i + 1}" for i in range(n)), rows)


def test_canonical_form_on_a_large_space_does_not_recurse():
    star = _large_star(1050)
    # ranks already ascend along every row, so the input order is minimal
    assert canonical_form(star).ranks == rank_matrix(star)


def test_weak_similarity_on_a_large_space_does_not_recurse():
    star = _large_star(1050)
    n = len(star.points)
    order = list(range(n))
    Random(103).shuffle(order)
    shuffled = FiniteSemimetricSpace(
        tuple(f"q{i + 1}" for i in range(n)), tuple(tuple(star.dist[a][b] for b in order) for a in order)
    )
    phi = weak_similarity_bijection(star, shuffled)
    assert phi is not None
    idx = [shuffled.index(phi[p]) for p in star.points]
    rm_s, rm_q = rank_matrix(star), rank_matrix(shuffled)
    assert all(rm_s[i] == tuple(rm_q[idx[i]][k] for k in idx) for i in range(n))


def test_isometry():
    s = x4_space()
    q = permuted_copy(Random(73), s)
    assert isometric(s, q)
    phi = isometry_bijection(s, q)
    assert phi is not None
    for u in s.points:
        for v in s.points:
            assert s.d(u, v) == q.d(phi[u], phi[v])
    stretched = monotone_transform(Random(74), s)
    if stretched.dist != s.dist:
        assert not isometric(s, stretched)
    assert len(distance_spectrum(s)) == len(distance_spectrum(stretched))
    assert weakly_similar(s, stretched)


def test_isometry_matches_permutation_oracle():
    # distances from {1, 2, 3} make equal spectra common, with and without an isometry
    rng = Random(79)
    found = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        a = _small_values_space(rng, n)
        b = permuted_copy(rng, a) if rng.random() < 0.4 else _small_values_space(rng, n)
        exists = any(
            all(a.dist[i][j] == b.dist[p[i]][p[j]] for i in range(n) for j in range(n))
            for p in permutations(range(n))
        )
        phi = isometry_bijection(a, b)
        assert (phi is not None) == exists
        if phi is not None:
            found += 1
            assert sorted(phi.values()) == sorted(b.points)
            assert all(a.d(u, v) == b.d(phi[u], phi[v]) for u in a.points for v in a.points)
    assert 0 < found < 150


def _small_values_space(rng: Random, n: int):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, 3)
    return validate_semimetric([f"p{i + 1}" for i in range(n)], [[str(v) for v in row] for row in rows])


def test_weakly_similar_counterexample_same_spectrum_size():
    # same spectrum sizes but different rank structure
    a = validate_semimetric(
        ["a", "b", "c"], [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]
    )
    b = validate_semimetric(
        ["a", "b", "c"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]
    )
    assert not weakly_similar(a, b)
