"""Weak similarity's routes, pinned to the search by sorted row profiles.

Every route of ``weak_similarity_bijection`` returns the first bijection
of the row-by-row search, so it must equal ``helpers.matrix_bijection``,
the search before routing, dict for dict; ``isometry_bijection`` must
equal it wherever the spectra agree.  The route tests patch a route to
raise, or count its calls, instead of timing it.
"""

from random import Random

import pytest

from starmetric import (
    canonical_form,
    enumerate_classes,
    generate_ultrametric,
    isometry_bijection,
    similarity,
    validate_semimetric,
    weak_similarity_bijection,
)
from helpers import (
    cubic_pair,
    graph_space,
    matrix_bijection_dict,
    monotone_transform,
    permuted_copy,
    random_semimetric,
    random_star,
    random_ultrametric,
    twins_with_one_fault,
)


def _assert_pinned(a, b) -> dict | None:
    want = matrix_bijection_dict(a, b)
    got = weak_similarity_bijection(a, b)
    assert got == want and list(got or ()) == list(want or ())
    assert isometry_bijection(a, b) == (want if a.spectrum == b.spectrum else None)
    return got


def _carries(phi, a, b) -> bool:
    idx = [b.index(phi[p]) for p in a.points]
    return all(a.ranks[i][k] == b.ranks[idx[i]][idx[k]] for i in range(len(idx)) for k in range(len(idx)))


def _upper_filled(rng: Random, n: int, top: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, top)
    return rows


def _valued_space(rng: Random, n: int, top: int):
    # distances from 1..top: ties everywhere, so rows share sums and sorted rows
    return validate_semimetric([f"p{i + 1}" for i in range(n)], _upper_filled(rng, n, top))


def _changed_copy(rng: Random, s):
    # a permuted copy with one or two entries moved to another value of the space
    n = len(s.points)
    rows = [list(row) for row in s.dist]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[j][i] = rng.choice(s.spectrum[1:])
    return permuted_copy(rng, validate_semimetric(s.points, rows))


@pytest.fixture
def refine_calls(monkeypatch):
    calls = []
    refine = similarity._refine

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(similarity, "_refine", counted)
    return calls


def _raises(*_args):
    raise AssertionError("this route must not be taken")


def test_routes_match_the_reference_on_seeded_pairs(refine_calls):
    rng = Random(331)
    similar = refined = 0
    for t in range(3200):
        n = rng.randint(2, 12)
        kind = t % 4
        if kind == 0:  # random semimetrics with few values
            a = _valued_space(rng, n, rng.randint(2, 5))
            b = permuted_copy(rng, monotone_transform(rng, a)) if rng.random() < 0.5 else _valued_space(rng, n, 5)
        elif kind in (1, 2):  # two- and three-valued random graphs
            a = _valued_space(rng, n, kind + 1)
            b = permuted_copy(rng, a) if rng.random() < 0.5 else _valued_space(rng, n, kind + 1)
        else:
            a = _valued_space(rng, n, rng.randint(2, 4))
            b = _changed_copy(rng, a)
        before = len(refine_calls)
        similar += _assert_pinned(a, b) is not None
        refined += len(refine_calls) > before
    assert 800 < similar < 2400
    assert refined > 500


def test_routes_match_the_reference_on_every_small_class():
    rng = Random(337)
    for n in range(1, 7):
        classes = list(enumerate_classes(n))
        for s, other in zip(classes, classes[1:] + classes[:1]):
            _assert_pinned(s, permuted_copy(rng, monotone_transform(rng, s)))
            _assert_pinned(s, permuted_copy(rng, other))


def test_routes_match_the_reference_on_every_graph_of_five_points():
    # every two-valued space on five points, against a relabeled copy and its complement
    rng = Random(347)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for mask in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
        a = graph_space(5, edges)
        order = list(range(5))
        rng.shuffle(order)
        assert _assert_pinned(a, graph_space(5, edges, order, "q")) is not None
        _assert_pinned(a, graph_space(5, [e for e in pairs if e not in edges], order, "q"))


def test_perfbench_shaped_pair_never_enters_a_search(monkeypatch):
    # a random semimetric has rows that sums or sorted rows single out: the map is forced
    rng = Random(349)
    a = random_semimetric(rng, 64)
    pairs = [(a, permuted_copy(rng, monotone_transform(rng, a))), (a, random_semimetric(rng, 64))]
    wants = [matrix_bijection_dict(x, y) for x, y in pairs]
    monkeypatch.setattr(similarity, "_refined_search", _raises)
    monkeypatch.setattr(similarity, "_row_search", _raises)
    assert wants[0] is not None and wants[1] is None
    assert [weak_similarity_bijection(x, y) for x, y in pairs] == wants


def test_equal_sums_with_other_sorted_rows_are_told_apart(monkeypatch):
    # p1's row {1, 1, 4} against q1's row {2, 2, 2}: the rank sums agree, 6 6 7 9
    a = validate_semimetric(
        ["p1", "p2", "p3", "p4"], [["0", "1", "1", "4"], ["1", "0", "3", "2"], ["1", "3", "0", "3"], ["4", "2", "3", "0"]]
    )
    b = validate_semimetric(
        ["q1", "q2", "q3", "q4"], [["0", "2", "2", "2"], ["2", "0", "1", "3"], ["2", "1", "0", "4"], ["2", "3", "4", "0"]]
    )
    assert sorted(map(sum, a.ranks)) == sorted(map(sum, b.ranks))
    monkeypatch.setattr(similarity, "_refine", _raises)
    assert weak_similarity_bijection(a, b) is None is matrix_bijection_dict(a, b)
    monkeypatch.undo()
    # seeded pairs whose sum multisets agree while their sorted-row multisets
    # differ: +1 on entries (i, j), (k, l) and -1 on (i, l), (k, j) keeps every
    # row sum; matrices with every value 1..4 are their own ranks
    rng = Random(353)
    found = 0
    while found < 200:
        n = rng.randint(4, 8)
        a = _upper_filled(rng, n, 4)
        b = [row[:] for row in a]
        i, j, k, l = rng.sample(range(n), 4)
        for u, v, step in ((i, j, 1), (k, l, 1), (i, l, -1), (k, j, -1)):
            b[u][v] = b[v][u] = b[u][v] + step
        if any(b[u][v] in (0, 5) for u, v in ((i, j), (k, l), (i, l), (k, j))):
            continue
        if any({v for row in m for v in row} != {0, 1, 2, 3, 4} for m in (a, b)):
            continue
        if sorted(sorted(row) for row in a) != sorted(sorted(row) for row in b):
            found += 1
            order = rng.sample(range(n), n)
            names = [f"p{i + 1}" for i in range(n)]
            relabeled = [[b[u][v] for v in order] for u in order]
            assert _assert_pinned(validate_semimetric(names, a), validate_semimetric(names, relabeled)) is None


def test_an_ultrametric_pair_never_enters_the_cell_route(monkeypatch):
    rng = Random(359)
    spaces = [random_ultrametric(rng, rng.randint(2, 24)) for _ in range(60)]
    spaces += [generate_ultrametric(random_star(rng, max_leaves=20)) for _ in range(60)]
    wants = []
    for s in spaces:
        for t in (permuted_copy(rng, monotone_transform(rng, s)), permuted_copy(rng, s)):
            wants.append((s, t, matrix_bijection_dict(s, t)))
    monkeypatch.setattr(similarity, "_cell_search", _raises)
    for s, t, want in wants:
        assert want is not None and weak_similarity_bijection(s, t) == want


@pytest.mark.parametrize("n", [6, 40, 256])
def test_a_pair_with_twins_reaches_the_refinement_search(refine_calls, n):
    order = list(range(n))
    Random(367).shuffle(order)
    a, b = twins_with_one_fault(n), twins_with_one_fault(n, order, "q")
    assert a.hierarchy is None
    phi = _assert_pinned(a, b)
    assert phi is not None and _carries(phi, a, b)
    assert 0 < len(refine_calls) <= 3 * n  # one refinement per placed twin, not a blind search


# (n, seed) of helpers.cubic_pair: a random cubic graph, a relabeled copy
# and a second random cubic graph.  The reference decides the AFFORDABLE
# pairs in under a second.  On the REFERENCE_ANSWERS pairs it took 8 s,
# 4 s, 12 s and 63 s to its first bijection onto the relabeled copy,
# pinned here as it returned it; on (28, 1) it was stopped after 150 s.
AFFORDABLE = [(20, 3), (20, 8)]
REFERENCE_ANSWERS = {
    (20, 1): [2, 19, 13, 7, 15, 17, 0, 11, 3, 12, 9, 5, 10, 4, 1, 6, 16, 8, 14, 18],
    (20, 2): [9, 1, 16, 6, 14, 13, 2, 18, 7, 19, 4, 8, 0, 12, 3, 15, 11, 10, 17, 5],
    (28, 2): [2, 27, 25, 21, 6, 12, 14, 26, 7, 4, 15, 11, 5, 8, 17, 16, 23, 13, 9, 0, 24, 19, 20, 10, 22, 18, 1, 3],
    (28, 5): [14, 26, 2, 25, 9, 12, 20, 21, 1, 22, 24, 11, 15, 8, 0, 10, 3, 17, 7, 19, 18, 4, 16, 13, 27, 23, 6, 5],
}
CUBIC = AFFORDABLE + list(REFERENCE_ANSWERS) + [(28, 1)]


@pytest.mark.parametrize("n,seed", CUBIC)
def test_cubic_pairs_reach_the_refinement_search(refine_calls, n, seed):
    a, relabeled, other = cubic_pair(n, seed)
    assert a.hierarchy is None and len({tuple(sorted(row)) for row in a.ranks}) == 1  # one cell
    phi = weak_similarity_bijection(a, relabeled)
    assert phi is not None and _carries(phi, a, relabeled)
    # refinement calls: one at the root, then at most one per candidate for the first row
    assert 0 < len(refine_calls) <= n
    del refine_calls[:]
    assert weak_similarity_bijection(a, other) is None
    assert 0 < len(refine_calls) <= n + 1
    assert canonical_form(a) != canonical_form(other)
    if (n, seed) in AFFORDABLE:
        _assert_pinned(a, relabeled)
        _assert_pinned(a, other)
    if (n, seed) in REFERENCE_ANSWERS:
        assert [relabeled.index(phi[p]) for p in a.points] == REFERENCE_ANSWERS[n, seed]
