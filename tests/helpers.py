"""Seeded random generators and brute-force oracles shared by the tests.

The oracles here are kept independent of the library code paths they
check: ultrametricity is re-decided by a direct Fraction scan, tree
generability by exhaustive shape/label search, class enumeration is
re-counted from raw rank matrices, and path maxima are recomputed over
explicit paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from random import Random

from starmetric import (
    FiniteSemimetricSpace,
    LabeledStarGraph,
    LabeledTree,
    TripleWitness,
    distance_spectrum,
    generate_ultrametric,
    validate_semimetric,
)


def rand_pos_frac(rng: Random, top: int = 12) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def rand_nonneg_frac(rng: Random, top: int = 12) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(0)
    return rand_pos_frac(rng, top)


def random_star(rng: Random, max_leaves: int = 10) -> LabeledStarGraph:
    n_leaves = rng.randint(1, max_leaves)
    center_zero = rng.random() < 0.5
    center_label = Fraction(0) if center_zero else rand_pos_frac(rng)
    leaves = []
    for i in range(n_leaves):
        label = rand_pos_frac(rng) if center_zero else rand_nonneg_frac(rng)
        leaves.append((f"u{i + 1}", label))
    return LabeledStarGraph.of("c", center_label, leaves)


def random_tree(rng: Random, n: int) -> LabeledTree:
    """Random generating labeled tree: random attachment, zero-zero edges repaired."""
    names = [f"v{i + 1}" for i in range(n)]
    edges = [(names[rng.randint(0, i - 1)], names[i]) for i in range(1, n)]
    labels = {v: rand_nonneg_frac(rng) for v in names}
    for u, v in edges:
        if labels[u] == 0 and labels[v] == 0:
            labels[v] = rand_pos_frac(rng)
    return LabeledTree.of([(v, labels[v]) for v in names], edges)


def random_ultrametric(rng: Random, n: int) -> FiniteSemimetricSpace:
    """Random ultrametric via a random merge process (not only tree-generated shapes)."""
    names = [f"p{i + 1}" for i in range(n)]
    dist = {frozenset((a, b)): None for a, b in combinations(names, 2)}
    blocks = [[v] for v in names]
    value = Fraction(0)
    while len(blocks) > 1:
        value += Fraction(rng.randint(1, 4), rng.randint(1, 3))
        k = rng.randint(2, len(blocks))
        rng.shuffle(blocks)
        merged, rest = blocks[:k], blocks[k:]
        for gi in range(len(merged)):
            for gj in range(gi + 1, len(merged)):
                for a in merged[gi]:
                    for b in merged[gj]:
                        dist[frozenset((a, b))] = value
        blocks = [[v for g in merged for v in g]] + rest
    rows = [
        [Fraction(0) if a == b else dist[frozenset((a, b))] for b in names]
        for a in names
    ]
    return validate_semimetric(names, rows)


def random_semimetric(rng: Random, n: int) -> FiniteSemimetricSpace:
    names = [f"p{i + 1}" for i in range(n)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rand_pos_frac(rng, 6)
    return validate_semimetric(names, rows)


def monotone_transform(rng: Random, s: FiniteSemimetricSpace) -> FiniteSemimetricSpace:
    """Apply a random strictly increasing map to the distance values."""
    spec = distance_spectrum(s)
    new_values = [Fraction(0)]
    for _ in spec[1:]:
        new_values.append(new_values[-1] + rand_pos_frac(rng, 6))
    table = dict(zip(spec, new_values))
    rows = [[table[v] for v in row] for row in s.dist]
    return validate_semimetric(s.points, rows)


def permuted_copy(rng: Random, s: FiniteSemimetricSpace, rename: str = "q") -> FiniteSemimetricSpace:
    """Shuffle point order and rename points; weakly similar and isometric to s."""
    order = list(range(len(s.points)))
    rng.shuffle(order)
    names = [f"{rename}{i + 1}" for i in range(len(order))]
    rows = [[s.dist[a][b] for b in order] for a in order]
    return validate_semimetric(names, rows)


def brute_rank_class_reps(n: int) -> list[FiniteSemimetricSpace]:
    """All ultrametric rank matrices on n points, one space per permutation orbit.

    Raw search; feasible for n <= 4 and used as the enumeration oracle.
    """
    if n == 1:
        return [validate_semimetric(["p1"], [["0"]])]
    pairs = list(combinations(range(n), 2))
    seen = {}
    for vals in product(range(1, n), repeat=len(pairs)):
        used = set(vals)
        if used != set(range(1, len(used) + 1)):
            continue
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, vals):
            m[i][j] = m[j][i] = v
        if any(
            m[i][j] > max(m[i][k], m[k][j])
            for i in range(n)
            for j in range(n)
            for k in range(n)
        ):
            continue
        canon = min(
            tuple(m[p[i]][p[j]] for i in range(n) for j in range(i + 1, n))
            for p in permutations(range(n))
        )
        if canon not in seen:
            names = [f"p{i + 1}" for i in range(n)]
            rows = [[Fraction(v) for v in row] for row in m]
            seen[canon] = FiniteSemimetricSpace(tuple(names), tuple(tuple(r) for r in rows))
    return list(seen.values())


def brute_tree_generable_4(s: FiniteSemimetricSpace) -> bool:
    """Exhaustive search over 4-vertex tree shapes, labels, and bijections."""
    assert len(s.points) == 4
    values = distance_spectrum(s)
    shapes = [
        [(0, 1), (1, 2), (2, 3)],  # path
        [(0, 1), (0, 2), (0, 3)],  # star
    ]
    for shape in shapes:
        for order in permutations(s.points):
            for labels in product(values, repeat=4):
                tree = LabeledTree.of(list(zip(order, labels)), [(order[a], order[b]) for a, b in shape])
                try:
                    gen = generate_ultrametric(tree)
                except Exception:
                    continue
                if all(gen.d(u, v) == s.d(u, v) for u, v in combinations(s.points, 2)):
                    return True
    return False


def path_max_oracle(labels: list[Fraction], m: int, n: int) -> Fraction:
    """Distance on an explicit labeled path, recomputed directly (1-based)."""
    if m == n:
        return Fraction(0)
    lo, hi = min(m, n), max(m, n)
    return max(labels[lo - 1 : hi])


def fraction_ultrametric_violation(s: FiniteSemimetricSpace) -> TripleWitness | None:
    """First triple with d(x,y) > max(d(x,z), d(z,y)), by a direct Fraction scan.

    The O(n^3) reference for the library's rank-matrix check: pairs by
    ascending index (i < j), probe point z by index, no ranks involved.
    """
    d = s.dist
    n = len(s.points)
    for i in range(n):
        di = d[i]
        for j in range(i + 1, n):
            dij = di[j]
            dj = d[j]
            for k in range(n):
                if k == i or k == j:
                    continue
                rhs = di[k] if di[k] >= dj[k] else dj[k]
                if dij > rhs:
                    return TripleWitness(s.points[i], s.points[j], s.points[k], dij, rhs)
    return None


def brute_centers(s: FiniteSemimetricSpace) -> tuple[str, ...]:
    """Points x0 with d(x0, x) <= d(y, x) for all x != x0 and y != x, straight from the definition."""
    d = s.dist
    n = len(s.points)
    return tuple(
        s.points[c]
        for c in range(n)
        if all(d[c][x] <= d[y][x] for x in range(n) if x != c for y in range(n) if y != x)
    )
