"""An ultrametric's canonical form read off its Prim chain.

``FiniteSemimetricSpace.hierarchy`` keeps what the O(n^2) ultrametric
check walks: the Prim visit order and each point's join rank, or None
when the check fails.  ``similarity._chain_form`` builds the minimal
row-major rank matrix from that chain with no search; the ordered
partition search, ``similarity._search_form``, still serves every other
semimetric.  These tests pin the chain route to that search, called
directly, and to the recursive DFS kept in ``helpers``; check that the
chain's path maxima are the rank matrix; check that generated and
catalogue spaces are built with their chain, so that no Prim pass runs
on them; and cover the m-block family on which the search meets m!
equivalent branches.
"""

from random import Random

import pytest

from starmetric import (
    CardinalityThree,
    canonical_form,
    enumerate_classes,
    enumerate_hierarchies,
    generate_ultrametric,
    is_us,
    semimetric_us_check,
    validate_semimetric,
)
from starmetric import spaces
from starmetric.similarity import _chain_form, _search_form
from starmetric.spaces import _path_maxima
from helpers import (
    caterpillar_blocks,
    dfs_canonical_form,
    fraction_ultrametric_violation,
    matrix_bijection,
    monotone_transform,
    permuted_copy,
    random_star,
    random_tree,
    random_ultrametric,
)


def _chain_maxima(s):
    order, join = s.hierarchy
    return _path_maxima(len(order), [(join[v], u, v) for u, v in zip(order, order[1:])])[0]


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_route_equals_the_search_on_every_class(n):
    rng = Random(100 + n)
    for s in enumerate_classes(n):
        q = permuted_copy(rng, monotone_transform(rng, s))
        form = _chain_form(q)
        assert form == _search_form(q) == canonical_form(q)
        assert _chain_form(s) == form
        if n <= 6:  # the recursive DFS takes seconds on the 2,910 classes of n = 8
            assert form == dfs_canonical_form(q)


def test_chain_route_equals_the_search_on_star_and_merge_spaces():
    rng = Random(109)
    for t in range(3000):
        n = rng.randint(1, 16)
        if t % 2 or n == 1:
            s = random_ultrametric(rng, n)
        else:
            s = permuted_copy(rng, generate_ultrametric(random_star(rng, max_leaves=n - 1)))
        assert _chain_form(s) == _search_form(s)
        if len(s) <= 7:
            assert _chain_form(s) == dfs_canonical_form(s)


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_path_maxima_are_the_ranks(n):
    rng = Random(200 + n)
    for s in enumerate_classes(n):
        q = permuted_copy(rng, s)
        order, join = q.hierarchy
        assert sorted(order) == list(range(n)) and order[0] == 0 and join[0] == 0
        assert _chain_maxima(q) == q.ranks


def _no_prim_pass(r):
    raise AssertionError("a space built with its chain ran the Prim pass")


def _born_with_chain(s) -> None:
    assert "hierarchy" in vars(s) and "ultrametric_witness" not in vars(s)
    assert s.ultrametric_witness is None
    assert _chain_maxima(s) == s.ranks
    assert _chain_form(s) == _search_form(s)  # as built, without relabeling
    # with the Prim pass patched out, these can only read the chain handed over
    canonical_form(s)
    is_us(s)
    try:
        semimetric_us_check(s)
    except CardinalityThree:
        pass


@pytest.mark.parametrize("n", range(1, 9))
def test_class_spaces_are_born_with_their_chain(n, monkeypatch):
    monkeypatch.setattr(spaces, "_equals_subdominant", _no_prim_pass)
    for h in enumerate_hierarchies(n):
        _born_with_chain(h.to_space())


def test_generated_spaces_are_born_with_their_chain(monkeypatch):
    monkeypatch.setattr(spaces, "_equals_subdominant", _no_prim_pass)
    rng = Random(233)
    for t in range(1500):
        n = rng.randint(1, 16)
        tree = random_star(rng, max_leaves=15) if t % 2 else random_tree(rng, n)
        _born_with_chain(generate_ultrametric(tree))


def _few_valued_semimetric(rng: Random, n: int):
    # values from {1, 2, 3}: a good share of these are ultrametric
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = str(rng.randint(1, 3))
    return validate_semimetric([f"p{i + 1}" for i in range(n)], rows)


def test_hierarchy_is_none_exactly_when_a_witness_exists():
    rng = Random(211)
    kinds = [0, 0]
    for _ in range(1500):
        s = _few_valued_semimetric(rng, rng.randint(1, 7))
        expected = fraction_ultrametric_violation(s)
        assert (s.hierarchy is None) == (expected is not None)
        assert (s.hierarchy is None) == (s.ultrametric_witness is not None)
        if s.hierarchy is not None:
            assert _chain_maxima(s) == s.ranks
        kinds[expected is None] += 1
    assert min(kinds) > 100


@pytest.mark.parametrize("m", range(1, 7))
def test_blocks_match_the_search(m):
    s = caterpillar_blocks(m)
    form = canonical_form(s)
    assert form == _search_form(s)
    assert form.ranks == s.ranks  # listed block by block, the points are already minimal


def test_ten_blocks_are_invariant():
    # 30 points: the search would meet 10! equivalent branches
    s = caterpillar_blocks(10)
    form = canonical_form(s)
    assert form.ranks == s.ranks
    rng = Random(227)
    for _ in range(5):
        q = permuted_copy(rng, monotone_transform(rng, s))
        assert canonical_form(q) == form
        assert matrix_bijection(q.ranks, form.ranks) is not None
