"""The path-maximum kernel and its callers.

``spaces._path_maxima`` joins the two components of each tree edge in
rank order and writes the rank into every pair across them; the joined
member lists, with the rank at which each list's first member joined,
form the chain of the ultrametric the maxima make.  A ranked
hierarchy is its leaf order plus the merge level between adjacent
leaves, so its rank matrix is the kernel on that chain; a ray truncation
is the space its labeled path generates.  These tests compare the kernel
with a per-pair path walk on random trees, check that its chain yields
the same maxima, pin its callers to the earlier
recursive walk, Fraction running maxima and per-entry distance calls
kept in ``helpers``, and check that hierarchies of any depth build.  The
completion's truncation is the space of its star, born with its chain.
"""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    CompletionModel,
    FiniteSemimetricSpace,
    GeometricTail,
    HarmonicTail,
    IndexOutOfRange,
    LabeledStarGraph,
    NotATree,
    NotGenerating,
    RankedHierarchy,
    RaySpec,
    enumerate_hierarchies,
    generate_ultrametric,
    is_generating,
    ray_to_completion,
    ray_truncation_space,
    ray_truncation_tree,
)
from starmetric.harness import LEAF
from starmetric.infinite import MAX_TRUNCATION
from starmetric.spaces import _path_maxima
from helpers import (
    caterpillar_root,
    dist_bordered_truncation_space,
    fraction_ray_truncation_space,
    per_entry_truncation_space,
    rand_nonneg_frac,
    rand_pos_frac,
    random_hierarchy_root,
    recursive_rank_matrix,
)

SIZES = (1, 2, 20, 64)


def _walked_path_maxima(n: int, edges) -> list[list[int]]:
    """Per source, walk the tree keeping the largest edge rank seen."""
    adj = [[] for _ in range(n)]
    for rank, u, v in edges:
        adj[u].append((v, rank))
        adj[v].append((u, rank))
    rows = [[0] * n for _ in range(n)]
    for src in range(n):
        stack, seen = [(src, 0)], {src}
        while stack:
            u, top = stack.pop()
            rows[src][u] = top
            for w, rank in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, max(top, rank)))
    return rows


def test_path_maxima_matches_a_walk_on_random_trees():
    rng = Random(37)
    for _ in range(300):
        n = rng.randint(1, 40)
        ids = list(range(n))
        rng.shuffle(ids)  # vertex numbers that do not follow the tree
        edges = [(rng.randint(1, 5), ids[rng.randint(0, i - 1)], ids[i]) for i in range(1, n)]
        edges = [(rank, v, u) if rng.random() < 0.5 else (rank, u, v) for rank, u, v in edges]
        rng.shuffle(edges)
        got, (order, join) = _path_maxima(n, edges)
        assert [list(row) for row in got] == _walked_path_maxima(n, edges)
        assert sorted(order) == list(range(n)) and join[order[0]] == 0
        # read along the chain, the largest join rank between two points is their path maximum
        assert _path_maxima(n, [(join[v], u, v) for u, v in zip(order, order[1:])])[0] == got


def test_rank_matrix_matches_recursive_walk_on_every_class():
    for n in range(1, 9):
        for h in enumerate_hierarchies(n):
            assert h.leaf_count == n
            assert h.rank_matrix() == recursive_rank_matrix(h.root)


def test_rank_matrix_matches_recursive_walk_on_random_hierarchies():
    rng = Random(17)
    for _ in range(300):
        n = rng.randint(1, 40)
        h = RankedHierarchy(random_hierarchy_root(rng, n))
        assert h.leaf_count == n
        assert h.rank_matrix() == recursive_rank_matrix(h.root)


def _mutated(rng: Random, node):
    if node == LEAF:
        return node
    level, children = node
    children = tuple(_mutated(rng, c) for c in children)
    roll = rng.random()
    if roll < 0.08:
        level = rng.randint(0, level + 1)
    elif roll < 0.16:
        children = children[::-1]
    elif roll < 0.2:
        children = children[:1]
    return level, children


def _outcome(fn, root):
    try:
        return fn(root)
    except Exception as exc:
        return type(exc), str(exc)


def test_validation_matches_recursive_walk_on_broken_encodings():
    rng = Random(29)
    rejected = 0
    for _ in range(600):
        root = _mutated(rng, random_hierarchy_root(rng, rng.randint(2, 12)))
        got = _outcome(lambda r: RankedHierarchy(r).rank_matrix(), root)
        assert got == _outcome(recursive_rank_matrix, root)
        rejected += isinstance(got[0], type)
    assert rejected > 100


@pytest.mark.parametrize("n", [1200, 3000])
def test_deep_caterpillar_builds_and_converts(n):
    # the hierarchy of an n-point star space: a spine of depth n - 1
    h = RankedHierarchy(caterpillar_root(n))
    assert h.leaf_count == n
    s = h.to_space()
    assert s.ranks[0] == (0,) + (n - 1,) * (n - 1)
    assert s.ranks == FiniteSemimetricSpace(s.points, s.dist).ranks


def _rays(rng: Random) -> list[RaySpec]:
    """Seeded decreasing, non-monotone and zero-label rays with at least 64 labels."""
    rays = []
    for _ in range(4):
        prefix = tuple(sorted((rand_pos_frac(rng) + 1 for _ in range(rng.randint(0, 5))), reverse=True))
        skip = rng.randint(0, 3)
        if rng.random() < 0.5:
            tail = HarmonicTail(rand_pos_frac(rng))
        else:
            tail = GeometricTail(rand_pos_frac(rng), Fraction(rng.randint(1, 4), 5))
        if prefix and prefix[-1] < tail.label(skip + 1):
            prefix = ()
        rays.append(RaySpec(prefix, tail, skip, decreasing=True))
        rays.append(RaySpec(tuple(rand_nonneg_frac(rng, 4) for _ in range(rng.randint(0, 70))), tail, skip))
        zeros = tuple(Fraction(0) if rng.random() < 0.5 else rand_pos_frac(rng, 3) for _ in range(64))
        rays.append(RaySpec(zeros))
    return rays


def test_ray_truncation_matches_fraction_running_max():
    refused = 0
    for ray in _rays(Random(41)):
        for k in SIZES:
            if not is_generating(ray_truncation_tree(ray, k)):
                with pytest.raises(NotGenerating):
                    ray_truncation_space(ray, k)
                refused += 1
                continue
            got = ray_truncation_space(ray, k)
            expected = fraction_ray_truncation_space(ray, k)
            assert got == expected
            assert got.ranks == expected.ranks
            cells = [v for row in got.dist for v in row]
            assert len({id(v) for v in cells}) == len(set(cells))
    assert refused


def test_ray_truncation_with_two_adjacent_zero_labels_generates_nothing():
    # the path x2 -- x3 has only zero labels, so d(x2, x3) would be 0
    with pytest.raises(NotGenerating, match="x2 -- x3"):
        ray_truncation_space(RaySpec(("1", "0", "0", "1")), 4)


def test_completion_truncation_matches_per_entry_distances():
    rays = [ray for ray in _rays(Random(43)) if ray.decreasing_to_zero]
    assert rays
    for ray in rays:
        model = ray_to_completion(ray)
        for k in (0,) + SIZES:
            got = model.truncation_space(k)
            expected = per_entry_truncation_space(model, k)
            assert got == expected == dist_bordered_truncation_space(model, k)
            assert got.ranks == expected.ranks
            # born with its chain, which gives the ranks
            order, join = vars(got)["hierarchy"]
            assert _path_maxima(k + 1, [(join[v], u, v) for u, v in zip(order, order[1:])])[0] == got.ranks


def test_completion_truncation_of_no_vertices_is_the_added_point():
    model = ray_to_completion(RaySpec((), HarmonicTail(1), 0, True))
    got = model.truncation_space(0)
    assert (got.points, got.spectrum, got.ranks) == (("x0",), (Fraction(0),), ((0,),))
    assert "hierarchy" in vars(got)
    assert got == per_entry_truncation_space(model, 0) == dist_bordered_truncation_space(model, 0)


def test_completion_truncation_rejects_sizes_out_of_range():
    model = ray_to_completion(RaySpec((), HarmonicTail(1), 0, True))
    with pytest.raises(IndexOutOfRange, match="^truncation of -1 points is below 0$"):
        model.truncation_space(-1)
    with pytest.raises(IndexOutOfRange, match=f"^truncation of {MAX_TRUNCATION + 1} points exceeds {MAX_TRUNCATION}$"):
        model.truncation_space(MAX_TRUNCATION + 1)


def test_completion_truncation_rejects_an_added_point_named_as_a_vertex():
    # the star's own validation refuses the name, which the bordered matrix took twice
    model = ray_to_completion(RaySpec((), HarmonicTail(1), 0, True))
    renamed = CompletionModel("x2", model.star, model.ray)
    with pytest.raises(NotATree, match="duplicate vertex names"):
        renamed.truncation_space(3)
    assert renamed.truncation_space(1).points == ("x2", "x1")


def test_completion_truncation_is_the_compact_star_on_its_vertices():
    # the completion adds the center x0, labeled 0, of a star whose leaves are the ray vertices
    rays = [ray for ray in _rays(Random(47)) if ray.decreasing_to_zero]
    assert rays
    for ray in rays:
        model = ray_to_completion(ray)
        for k in SIZES:
            star = LabeledStarGraph.of("x0", 0, [(f"x{i}", ray.label(i)) for i in range(1, k + 1)])
            assert model.truncation_space(k) == generate_ultrametric(star)
