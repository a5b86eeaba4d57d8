"""The canonical form of a space that is not ultrametric, by a row-first, orbit-pruned search.

``similarity._search_form`` branches only on the points of the first
cell whose row is least, and a leaf whose matrix equals the best, or a
twin of a candidate already tried, gives an automorphism that prunes the
candidates in its orbit.  These tests pin it to the search it replaced,
which pruned twins only (``helpers.twin_search_form``), and to the
recursive DFS; check that
relabeled copies keep the digest; and gate the families on which the
earlier search met m! equivalent branches by a count of node expansions,
never by wall time.
"""

from random import Random

import pytest

from starmetric import canonical_form, enumerate_classes, similarity, validate_semimetric
from helpers import (
    dfs_canonical_form,
    monotone_transform,
    path_blocks,
    permuted_copy,
    random_semimetric,
    twin_search_form,
    twins_with_one_fault,
)


@pytest.fixture
def form(monkeypatch):
    """``canonical_form`` with its node expansions counted, one per call of ``_candidates``.

    Returns the form and the count of that one call, and raises once the
    count passes n^2 for n points, so a search that loses its pruning
    fails in seconds; none of these inputs comes near the bound.
    """
    calls = []
    candidates = similarity._candidates

    def counted(rm, cells):
        calls.append(None)
        if len(calls) > len(rm) ** 2:
            raise AssertionError(f"more than {len(rm) ** 2} node expansions on {len(rm)} points")
        return candidates(rm, cells)

    monkeypatch.setattr(similarity, "_candidates", counted)

    def counted_form(s):
        calls.clear()
        return canonical_form(s), len(calls)

    return counted_form


def _assert_pinned(form, s, dfs: bool = True) -> None:
    got = form(s)[0]
    assert got == twin_search_form(s)
    if dfs:
        assert got == dfs_canonical_form(s)


def _perturbed(rng: Random, s):
    # one entry moved to another value of the spectrum, between two of them or above them all
    n = len(s.points)
    rows = [list(row) for row in s.dist]
    i, j = rng.sample(range(n), 2)
    values = s.spectrum[1:]
    rows[i][j] = rows[j][i] = rng.choice([*values, values[-1] + 1, (values[0] + values[-1]) / 2])
    return permuted_copy(rng, validate_semimetric(s.points, rows))


@pytest.mark.parametrize("n", range(2, 8))
def test_every_class_with_one_entry_perturbed(form, n):
    rng = Random(2600 + n)
    searched = 0
    for s in enumerate_classes(n):
        q = _perturbed(rng, s)
        searched += q.hierarchy is None
        _assert_pinned(form, q)
    assert n < 3 or searched > 0


def _few_valued(rng: Random, n: int, top: int):
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = str(rng.randint(1, top))
    return validate_semimetric([f"p{i + 1}" for i in range(n)], rows)


def test_seeded_semimetrics(form):
    rng = Random(2611)
    for t in range(600):
        n = rng.randint(1, 9)
        s = random_semimetric(rng, n) if t % 3 == 0 else _few_valued(rng, n, rng.randint(1, 4))
        # the recursive DFS meets most orders of a few-valued space on nine points
        _assert_pinned(form, s, dfs=n <= 8 or t % 3 == 0)


@pytest.mark.parametrize("m", range(1, 7))
def test_path_blocks_match_the_references(form, m):
    # the recursive DFS takes seconds from m = 4 on
    _assert_pinned(form, path_blocks(m), dfs=m <= 3)


def test_relabeled_copies_keep_the_digest(form):
    rng = Random(2621)
    spaces = [path_blocks(4), twins_with_one_fault(9)]
    spaces += [_few_valued(rng, rng.randint(4, 9), 3) for _ in range(40)]
    for s in spaces:
        want = form(s)[0]
        for _ in range(3):
            got = form(permuted_copy(rng, monotone_transform(rng, s)))[0]
            assert got == want and got.digest == want.digest


def _block_order(m: int) -> list[int]:
    # each block's middle point first, then its two ends
    return [3 * k + i for k in range(m) for i in (1, 0, 2)]


@pytest.mark.parametrize("m", [10, 12])
def test_path_blocks_take_quadratically_many_expansions(form, m):
    # the twin-pruning search expanded 6,765 nodes at m = 6 and 44,441 at m = 7
    s = path_blocks(m)
    got, expanded = form(s)
    order = _block_order(m)
    assert got.ranks == tuple(tuple(s.ranks[u][v] for v in order) for u in order)
    assert 0 < expanded <= (3 * m * m + 5 * m) // 2


def test_twins_with_one_fault_take_one_expansion_a_position(form):
    s = twins_with_one_fault(40)
    got, expanded = form(s)
    assert got.ranks == s.ranks  # the twins first, then the pair at 3
    assert 0 < expanded <= 40  # each twin swap is found without a leaf


def test_twin_classes_are_gone():
    # twins are tested among a node's candidates, so no global twin scan remains
    assert not hasattr(similarity, "_twin_classes")
