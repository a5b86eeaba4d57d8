"""Seeded random generators and brute-force oracles shared by the tests.

The oracles here are kept independent of the library code paths they
check: ultrametricity is re-decided by a direct Fraction scan, tree
generability by exhaustive shape/label search, class enumeration is
re-counted from raw rank matrices and re-generated by the earlier
pool-and-pick search, path maxima are recomputed over explicit paths,
and canonical forms and rank-matrix bijections are recomputed by the
earlier recursive searches.  Matrix parsing and tree generation keep
their earlier forms, one ``Fraction`` per entry with Fraction
comparisons, as references for the shared-value paths.  The ranked
hierarchy's recursive validation and rank walk, and the ray and
completion truncations with Fraction running maxima or one distance
call per entry, are kept as references for the chain kernel.  Value
ranking by Fraction comparisons, nearest-neighbor ranks from row slices
and the four-point statements on 4x4 submatrices are kept as references
for the exact sort key, the unsliced row minima and the every-4
statements read off the hierarchy.  The parse through per-row codes,
with its eager ``dist``, is kept as the reference for the parse
straight to spectrum and ranks.  The per-cell
``space_to_json`` and the completion truncation bordered on its
``Fraction`` matrix are kept as references for the rank-mapped JSON
form and the rank-bordered truncation.  The star built through the
validating ``LabeledStarGraph.of`` is kept as the reference for
``build_star``'s trusted star.  Tree generation that dedupes sorted
labels with ``!=``, and twin classes compared entry by entry, are kept
as references for the shared ranking kernel and the sliced twin test.
The hand-written ``to_json`` body of every record, tail law and
presentation is kept as the reference for the one field encoder.  The
center-extension probe that searched for an obstruction and checked its
extension is kept as the reference for the probe that reads both off
the chain.  The search by sorted row profiles alone is kept as the
reference for both routes of weak similarity; random cubic graphs, as
two-valued spaces, and ultrametric classes whose points share their
sorted rows, blown up into twins, are the inputs on which that search
met most orders, and spaces that are all one distance but for one pair
have twins everywhere without being ultrametric.  The partition search
that pruned twins only is kept as the reference for the one that
branches on the least row and prunes by orbits; m three-point path
blocks are the input on which it met m! branches.  The O(n^2) pair scan, run on caterpillars
too, is kept as the reference for the obstruction search that answers
None off the chain.  Class counts come from a memoised sum over multiset partitions of block
multiplicities, which enumerates no class: the oracle for the catalogue's
size.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, groupby, permutations, product
from random import Random

from starmetric import (
    CardinalityThree,
    FiniteSemimetricSpace,
    IndexOutOfRange,
    LabeledStarGraph,
    LabeledTree,
    TripleWitness,
    UsCheckReport,
    distance_spectrum,
    generate_ultrametric,
    is_ultrametric,
    ultrametric_violation,
    validate_semimetric,
)
from starmetric.decision import (
    InternalInconsistency,
    _bottom_run,
    _nearest,
    _normalized_report,
    _require_ultrametric,
    exhaustive_quadruple_scan,
    find_centers,
    find_forbidden_quadruple,
)
from starmetric.harness import LEAF, PreconditionFailed, ProbeReport
from starmetric.rational import rat
from starmetric.spaces import (
    AsymmetricMatrix,
    DuplicateName,
    MalformedMatrix,
    NegativeDistance,
    NonzeroDiagonal,
    ZERO,
    ZeroOffDiagonal,
    _path_maxima,
    _pick,
    _raise_first_axiom_violation,
)
from starmetric.trees import NotGenerating, generating_violation
from starmetric.similarity import CanonicalForm, _form, rank_matrix


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


@lru_cache(maxsize=None)
def _subsets(levels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = [()]
    for x in levels:
        out += [s + (x,) for s in out]
    return tuple(out)


@lru_cache(maxsize=None)
def _canonical_trees(m: int, levels: tuple[int, ...]) -> tuple[tuple, ...]:
    """All canonical hierarchies with m leaves using exactly these levels."""
    if m == 1:
        return (LEAF,) if not levels else ()
    if not levels:
        return ()
    top = levels[-1]
    below = levels[:-1]
    pool: list[tuple[tuple, int, frozenset]] = []
    for size in range(1, m):
        for sub in _subsets(below):
            for enc in _canonical_trees(size, sub):
                pool.append((enc, size, frozenset(sub)))
    pool.sort(key=lambda item: item[0])
    need_all = frozenset(below)
    results: list[tuple] = []
    chosen: list[tuple] = []

    def pick(start: int, size_left: int, still_needed: frozenset) -> None:
        if size_left == 0:
            if not still_needed and len(chosen) >= 2:
                results.append((top, tuple(chosen)))
            return
        for idx in range(start, len(pool)):
            enc, size, used = pool[idx]
            if size > size_left:
                continue
            chosen.append(enc)
            pick(idx, size_left - size, still_needed - used)
            chosen.pop()

    pick(0, m, need_all)
    return tuple(sorted(results))


def pool_hierarchy_roots(n: int) -> list[tuple]:
    """Canonical hierarchy encodings on n leaves, levels 1..k with k ascending.

    The earlier pool-and-pick enumeration, kept as the reference order for
    the library's level-by-level merge generator.
    """
    if n == 1:
        return [()]
    return [enc for k in range(1, n) for enc in _canonical_trees(n, tuple(range(1, k + 1)))]


def dfs_canonical_form(s: FiniteSemimetricSpace) -> CanonicalForm:
    """Lexicographically minimal row-major rank matrix over all point orders.

    The earlier recursive DFS, kept as the reference for the library's
    row-per-point search: one representative per twin class at each node,
    and a branch is cut as soon as its first-row prefix exceeds the best.
    """
    rm = rank_matrix(s)
    n = len(rm)
    if n == 1:
        return _form(((0,),), [0])
    twins = elementwise_twin_classes(rm, n)
    best: list[tuple[int, ...] | None] = [None]
    perm: list[int] = []
    in_perm = [False] * n

    def flat() -> tuple[int, ...]:
        return tuple(rm[perm[i]][perm[j]] for i in range(n) for j in range(i + 1, n))

    def dfs(depth: int, tight: bool) -> None:
        if depth == n:
            f = flat()
            if best[0] is None or f < best[0]:
                best[0] = f
            return
        tried: set[int] = set()
        for cand in range(n):
            if in_perm[cand] or twins[cand] in tried:
                continue
            tried.add(twins[cand])
            now_tight = tight
            if depth >= 1 and best[0] is not None and tight:
                # determined row-major prefix so far is rm[perm[0]][perm[1..depth]]
                val = rm[perm[0]][cand]
                ref = best[0][depth - 1]
                if val > ref:
                    continue
                if val < ref:
                    now_tight = False
            perm.append(cand)
            in_perm[cand] = True
            dfs(depth + 1, now_tight)
            perm.pop()
            in_perm[cand] = False

    dfs(0, True)
    assert best[0] is not None
    upper = best[0]
    ranks = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            ranks[i][j] = ranks[j][i] = upper[pos]
            pos += 1
    return _form(ranks, range(n))


def twin_search_form(s: FiniteSemimetricSpace) -> CanonicalForm:
    """The earlier ``similarity._search_form``: one point per twin class at each node, no orbit pruning.

    Kept as the reference for the search that branches only on the least
    row and prunes by the automorphisms it finds.
    """
    rm = s.ranks
    n = len(rm)
    twins = elementwise_twin_classes(rm, n)

    def placements(cells: list[list[int]]):
        first, rest = cells[0], cells[1:]
        for p in {twins[q]: q for q in first}.values():
            rank = rm[p].__getitem__
            split: list[list[int]] = []
            for cell in [[q for q in first if q != p], *rest]:
                split += [cell] if len(cell) == 1 else (list(g) for _, g in groupby(sorted(cell, key=rank), rank))
            yield tuple(map(rank, chain.from_iterable(split))), split

    rows: list[tuple[int, ...]] = []
    best: list[tuple[int, ...]] = []
    stack = [placements([list(range(n))])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        row, cells = step
        rows[len(stack) - 1 :] = [row]
        if best and rows > best[: len(rows)]:
            continue
        if cells:
            stack.append(placements(cells))
        else:
            best = rows[:]
    return _form([tuple(best[j][i - j - 1] for j in range(i)) + (0,) + best[i] for i in range(n)], range(n))


def _row_profile(mat, i: int, n: int) -> tuple:
    return tuple(sorted(mat[i][j] for j in range(n) if j != i))


def recursive_matrix_bijection(ma, mb) -> list[int] | None:
    """Index bijection carrying rank matrix ``ma`` onto ``mb`` entrywise, or None.

    The earlier recursive backtracking, kept as the reference for the
    library's loop: rows assigned in input order, candidates (points with
    the same sorted row profile) tried in input order, first complete
    assignment returned.
    """
    n = len(ma)
    if len(mb) != n:
        return None
    prof_a = [_row_profile(ma, i, n) for i in range(n)]
    prof_b = [_row_profile(mb, i, n) for i in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)]
    assigned: list[int] = []
    used = [False] * n

    def extend() -> bool:
        i = len(assigned)
        if i == n:
            return True
        row = ma[i]
        for j in candidates[i]:
            if used[j]:
                continue
            rowb = mb[j]
            if all(row[t] == rowb[assigned[t]] for t in range(i)):
                used[j] = True
                assigned.append(j)
                if extend():
                    return True
                assigned.pop()
                used[j] = False
        return False

    return assigned if extend() else None


def matrix_bijection(ma, mb) -> list[int] | None:
    """Index bijection carrying rank matrix ``ma`` onto ``mb`` entrywise, or None.

    The library's search before it was routed, and its ultrametric route
    until that was read off the hierarchies, kept as the reference for
    ``weak_similarity_bijection``'s routes: backtracking over rows, pruned
    by per-point sorted row profiles, in a loop that counts the candidates
    tried per row.  A profile is the whole sorted row: in a rank matrix
    the diagonal 0 is each row's only 0, so it adds the same leading 0 to
    every profile.  Deterministic: rows assigned in input order,
    candidates tried in input order, first complete assignment returned.
    """
    n = len(ma)
    if len(mb) != n:
        return None
    prof_a = [tuple(sorted(row)) for row in ma]
    prof_b = [tuple(sorted(row)) for row in mb]
    if sorted(prof_a) != sorted(prof_b):
        return None
    rows_of: dict[tuple[int, ...], list[int]] = {}
    for j, prof in enumerate(prof_b):
        rows_of.setdefault(prof, []).append(j)
    candidates = [rows_of[prof] for prof in prof_a]
    assigned: list[int] = []
    used = [False] * n
    tried = [0] * n
    while len(assigned) < n:
        i = len(assigned)
        row, cands = ma[i], candidates[i]
        while tried[i] < len(cands):
            j = cands[tried[i]]
            tried[i] += 1
            rowb = mb[j]
            if not used[j] and all(row[t] == rowb[assigned[t]] for t in range(i)):
                used[j] = True
                assigned.append(j)
                break
        else:
            if i == 0:
                return None
            tried[i] = 0
            used[assigned.pop()] = False
    return assigned


def matrix_bijection_dict(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> dict[str, str] | None:
    """``weak_similarity_bijection`` as it was: the reference's map between point names, or None."""
    if len(a.points) != len(b.points) or len(a.spectrum) != len(b.spectrum):
        return None
    mapping = matrix_bijection(a.ranks, b.ranks)
    return None if mapping is None else {a.points[i]: b.points[j] for i, j in enumerate(mapping)}


def reference_validate_semimetric(points, rows) -> FiniteSemimetricSpace:
    """The earlier ``validate_semimetric``: ``rat`` on every cell, Fraction comparisons.

    The reference for the parse that shares one Fraction per distinct
    string: same checks, same order, same messages.
    """
    names = tuple(points)
    if not names:
        raise MalformedMatrix("a space needs at least one point")
    seen: set[str] = set()
    for name in names:
        if not isinstance(name, str) or not name:
            raise MalformedMatrix(f"point names must be nonempty strings, got {name!r}")
        if name in seen:
            raise DuplicateName(f"duplicate point name {name!r}")
        seen.add(name)
    n = len(names)
    if len(rows) != n:
        raise MalformedMatrix(f"matrix has {len(rows)} rows for {n} points")
    mat: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrix(f"row {i} has {len(row)} entries for {n} points")
        try:
            mat.append(tuple(rat(x) for x in row))
        except (ValueError, TypeError) as exc:
            raise MalformedMatrix(f"row {i}: {exc}") from exc
    for i in range(n):
        if mat[i][i] != 0:
            raise NonzeroDiagonal(f"d({names[i]}, {names[i]}) = {mat[i][i]} != 0")
        for j in range(i + 1, n):
            a, b = mat[i][j], mat[j][i]
            if a != b:
                raise AsymmetricMatrix(f"d({names[i]}, {names[j]}) = {a} != {b} = d({names[j]}, {names[i]})")
            if a < 0:
                raise NegativeDistance(f"d({names[i]}, {names[j]}) = {a} < 0")
            if a == 0:
                raise ZeroOffDiagonal(f"d({names[i]}, {names[j]}) = 0 for distinct points")
    return FiniteSemimetricSpace(names, tuple(mat))


def coded_validate_semimetric(points, rows) -> FiniteSemimetricSpace:
    """The earlier ``validate_semimetric``: cells to codes, ``dist`` built eagerly, ``ranks`` patched on.

    The reference for the parse straight to spectrum and ranks: a row of
    seen strings maps in one pass, any other row goes cell by cell with
    one ``rat`` per unseen string and per other cell.  Same checks, same
    order, same messages.
    """
    names = tuple(points)
    if not names:
        raise MalformedMatrix("a space needs at least one point")
    seen: set[str] = set()
    for name in names:
        if not isinstance(name, str) or not name:
            raise MalformedMatrix(f"point names must be nonempty strings, got {name!r}")
        if name in seen:
            raise DuplicateName(f"duplicate point name {name!r}")
        seen.add(name)
    n = len(names)
    if len(rows) != n:
        raise MalformedMatrix(f"matrix has {len(rows)} rows for {n} points")
    code_of: dict[str, int] = {}  # exact str cells only
    values: list[Fraction] = []
    codes: list[list[int]] = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrix(f"row {i} has {len(row)} entries for {n} points")
        try:
            codes.append(list(map(code_of.__getitem__, row)))
            continue
        except (KeyError, TypeError):  # an unseen or unhashable cell
            pass
        cells = []
        try:
            for x in row:
                c = code_of.get(x) if type(x) is str else None
                if c is None:
                    c = len(values)
                    values.append(rat(x))
                    if type(x) is str:
                        code_of[x] = c
                cells.append(c)
        except (ValueError, TypeError) as exc:
            raise MalformedMatrix(f"row {i}: {exc}") from exc
        codes.append(cells)
    dist = _pick(values, codes)
    ranks = fraction_rank_codes(values, codes)
    if not _coded_is_semimetric(dist, ranks):
        _raise_first_axiom_violation(names, dist)
    space = FiniteSemimetricSpace(names, dist)
    vars(space)["ranks"] = ranks
    return space


def _coded_is_semimetric(dist, r) -> bool:
    # rank 0 is the smallest value; when d(x0, x0) = 0 has it, the axioms
    # say rank 0 sits exactly on the diagonal and the ranks are symmetric
    return (
        dist[0][0] == 0
        and all(row[i] == 0 and row.count(0) == 1 for i, row in enumerate(r))
        and tuple(zip(*r)) == r
    )


def fraction_generate_ultrametric(t) -> FiniteSemimetricSpace:
    """The earlier ``generate_ultrametric``: path maxima by Fraction comparison.

    The reference for the library's path maxima on label ranks.
    """
    tree = t
    bad = generating_violation(tree)
    if bad is not None:
        raise NotGenerating(f"edge {bad[0]} -- {bad[1]} has both endpoint labels zero")
    n = len(tree.vertices)
    index = {v: i for i, v in enumerate(tree.vertices)}
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in tree.edges:
        iu, iv = index[u], index[v]
        adj[iu].append(iv)
        adj[iv].append(iu)
    labels = tree.labels
    rows = [[Fraction(0)] * n for _ in range(n)]
    for src in range(n):
        seen = [False] * n
        seen[src] = True
        stack = [(src, labels[src])]
        row = rows[src]
        while stack:
            u, running = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    m = running if running >= labels[w] else labels[w]
                    row[w] = m
                    stack.append((w, m))
    return FiniteSemimetricSpace(tree.vertices, tuple(tuple(r) for r in rows))


def recursive_rank_matrix(root) -> tuple[tuple[int, ...], ...]:
    """The earlier ``RankedHierarchy``: recursive validation, then a recursive rank walk.

    Raises what the constructor raised; otherwise returns what
    ``rank_matrix`` returned, rank(x, y) = level of the least common
    ancestor, written pair by pair between sibling subtrees.
    """
    levels: set[int] = set()

    def check(node, bound) -> None:
        if node == LEAF:
            return
        level, children = node
        levels.add(level)
        if bound is not None and level >= bound:
            raise ValueError(f"child level {level} not below parent level {bound}")
        if len(children) < 2:
            raise ValueError("internal nodes need at least two children")
        if tuple(sorted(children)) != tuple(children):
            raise ValueError("children must be sorted (canonical encoding)")
        for c in children:
            check(c, level)

    check(root, None)
    if levels != set(range(1, len(levels) + 1)):
        raise ValueError(f"levels must be exactly 1..k, got {sorted(levels)}")

    def leaves(node) -> int:
        return 1 if node == LEAF else sum(leaves(c) for c in node[1])

    n = leaves(root)
    ranks = [[0] * n for _ in range(n)]
    counter = [0]

    def walk(node) -> list[int]:
        if node == LEAF:
            counter[0] += 1
            return [counter[0] - 1]
        level, children = node
        groups = [walk(c) for c in children]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for a in groups[gi]:
                    for b in groups[gj]:
                        ranks[a][b] = ranks[b][a] = level
        return [a for g in groups for a in g]

    walk(root)
    return tuple(tuple(row) for row in ranks)


def random_hierarchy_root(rng: Random, n: int) -> tuple:
    """Canonical encoding of a random merge process: one or more groups merge per level."""
    blocks = [LEAF] * n
    level = 0
    while len(blocks) > 1:
        level += 1
        rng.shuffle(blocks)
        merged = []
        while len(blocks) >= 2 and (not merged or rng.random() < 0.4):
            k = rng.randint(2, min(len(blocks), 4))
            merged.append((level, tuple(sorted(blocks[:k]))))
            blocks = blocks[k:]
        blocks = merged + blocks
    return blocks[0]


def caterpillar_root(n: int) -> tuple:
    """The n-leaf hierarchy of an n-point star space: one leaf per level on a spine of depth n - 1."""
    node = LEAF
    for level in range(1, n):
        node = (level, (LEAF, node))
    return node


def caterpillar_blocks(m: int) -> FiniteSemimetricSpace:
    """m three-point caterpillar blocks under one root: a cherry at 1, its third point at 2, blocks 3 apart.

    The blocks are interchangeable and no two points of different blocks
    are twins, so a search over point orders meets m! equivalent branches.
    Listed block by block, cherry first, the points are already in their
    minimal order.
    """
    n = 3 * m

    def d(i: int, j: int) -> str:
        if i == j:
            return "0"
        if i // 3 != j // 3:
            return "3"
        return "2" if 2 in (i % 3, j % 3) else "1"

    return validate_semimetric([f"p{i + 1}" for i in range(n)], [[d(i, j) for j in range(n)] for i in range(n)])


def path_blocks(m: int) -> FiniteSemimetricSpace:
    """m three-point path blocks: ranks 1, 1 along each path and 2 across its ends, blocks 3 apart.

    Not ultrametric, as each path's ends are farther apart than either is
    from the middle.  The blocks are interchangeable and no two points
    are twins, so a search that prunes only twins meets m! equivalent
    branches.
    """
    n = 3 * m

    def d(i: int, j: int) -> str:
        if i == j:
            return "0"
        if i // 3 != j // 3:
            return "3"
        return "2" if {i % 3, j % 3} == {0, 2} else "1"

    return validate_semimetric([f"p{i + 1}" for i in range(n)], [[d(i, j) for j in range(n)] for i in range(n)])


def graph_space(n: int, edges, order=None, prefix: str = "v") -> FiniteSemimetricSpace:
    """A graph on 0..n-1 as a two-valued space, edge 1 and non-edge 2; point k is vertex ``order[k]``."""
    order = list(range(n)) if order is None else order
    adjacent = {frozenset(e) for e in edges}
    rows = [["0" if u == v else "1" if frozenset((u, v)) in adjacent else "2" for v in order] for u in order]
    return validate_semimetric([f"{prefix}{k + 1}" for k in range(n)], rows)


def twins_with_one_fault(n: int, order=None, prefix: str = "p") -> FiniteSemimetricSpace:
    """All distances 2 but the last pair at 3: not ultrametric, and the first n - 2 points are twins; point k is ``order[k]``."""
    order = list(range(n)) if order is None else order
    last = {n - 2, n - 1}
    rows = [["0" if u == v else "3" if {u, v} == last else "2" for v in order] for u in order]
    return validate_semimetric([f"{prefix}{k + 1}" for k in range(n)], rows)


# The two 8-point ultrametric classes whose points have the same sorted
# rows while the classes are not weakly similar: sorted row profiles
# cannot tell them apart
PROFILE_TWINS = (
    (3, ((2, (LEAF,) * 4), (2, ((1, (LEAF, LEAF)), (1, (LEAF, LEAF)))))),
    (3, ((2, (LEAF, LEAF, (1, (LEAF, LEAF)))), (2, (LEAF, LEAF, (1, (LEAF, LEAF)))))),
)


def blown_up(root: tuple, t: int) -> tuple:
    """``root`` with every level one higher and every leaf replaced by t twins at level 1."""
    if root == LEAF:
        return (1, (LEAF,) * t)
    level, children = root
    return (level + 1, tuple(blown_up(c, t) for c in children))


def tree_order_space(root: tuple, prefix: str = "p") -> FiniteSemimetricSpace:
    """The ultrametric of a merge tree, its points in the tree's child order, which need not be canonical.

    The distance between two points is the level of their least common
    ancestor; the space goes through ``validate_semimetric``, as a file
    would, so its hierarchy comes from the ultrametric check.
    """
    level_of: dict[tuple[int, int], int] = {}  # (u, v) with u < v: the level of their least common ancestor
    count = [0]

    def walk(node) -> list[int]:
        if node == LEAF:
            count[0] += 1
            return [count[0] - 1]
        level, children = node
        groups = [walk(c) for c in children]
        for gi, g in enumerate(groups):
            for h in groups[gi + 1 :]:
                level_of.update({(u, v): level for u in g for v in h})
        return [u for g in groups for u in g]

    n = len(walk(root))
    dist = [[str(level_of.get((min(u, v), max(u, v)), 0)) for v in range(n)] for u in range(n)]
    return validate_semimetric([f"{prefix}{k + 1}" for k in range(n)], dist)


def decoy_pair(t: int, similar: bool = False) -> tuple[FiniteSemimetricSpace, FiniteSemimetricSpace]:
    """The ``PROFILE_TWINS`` classes with each leaf blown up into t twins: 8t points each, equal sorted rows, not similar.

    With ``similar``, both blown-up classes under one root at level 5
    against the copy that lists the other class first: 16t points, weakly
    similar.  A search pruned only by sorted rows and by ranks to the
    rows placed backtracks through the twins on both pairs.
    """
    first, second = (blown_up(c, t) for c in PROFILE_TWINS)
    if similar:
        return tree_order_space((5, (first, second))), tree_order_space((5, (second, first)), "q")
    return tree_order_space(first), tree_order_space(second, "q")


def random_cubic_edges(rng: Random, n: int) -> list[tuple[int, int]]:
    """Edges of a random simple cubic graph on 0..n-1 (n even): the pairing model, redrawn until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return sorted(edges)


def cubic_pair(n: int, seed: int) -> tuple[FiniteSemimetricSpace, FiniteSemimetricSpace, FiniteSemimetricSpace]:
    """A random cubic graph's space, a relabeled copy of it, and the space of a second random cubic graph.

    Every row has the same sum and the same sorted row, so the spaces
    are one cell each: a search that only checks ranks to the rows
    already placed meets most of the n! orders.
    """
    rng = Random(100 * seed + n)
    first, second = random_cubic_edges(rng, n), random_cubic_edges(rng, n)
    order = list(range(n))
    rng.shuffle(order)
    return graph_space(n, first), graph_space(n, first, order, "q"), graph_space(n, second, prefix="w")


def fraction_ray_truncation_space(r, k: int) -> FiniteSemimetricSpace:
    """The earlier ``ray_truncation_space``: Fraction running maxima along each row."""
    if k < 1:
        raise IndexOutOfRange("truncation needs at least one point")
    labels = list(r.labels(k))
    rows = [[ZERO] * k for _ in range(k)]
    for i in range(k):
        top = labels[i]
        for j in range(i + 1, k):
            top = max(top, labels[j])
            rows[i][j] = rows[j][i] = top
    names = tuple(f"x{i}" for i in range(1, k + 1))
    return FiniteSemimetricSpace(names, tuple(map(tuple, rows)))


def per_entry_truncation_space(model, k: int) -> FiniteSemimetricSpace:
    """The earlier ``CompletionModel.truncation_space``: one ``distance`` call per entry."""
    names = (model.added_point,) + tuple(f"x{i}" for i in range(1, k + 1))
    rows = tuple(tuple(model.distance(i, j) for j in range(k + 1)) for i in range(k + 1))
    return FiniteSemimetricSpace(names, rows)


def dist_bordered_truncation_space(model, k: int) -> FiniteSemimetricSpace:
    """The earlier ``CompletionModel.truncation_space``: the ray truncation's ``dist`` bordered by the labels."""
    from starmetric import ray_truncation_space

    labels = (ZERO, *model.ray.labels(k))
    core = ray_truncation_space(model.ray, k) if k else FiniteSemimetricSpace((), ())
    rows = [labels] + [(labels[i], *row) for i, row in enumerate(core.dist, start=1)]
    return FiniteSemimetricSpace((model.added_point, *core.points), tuple(rows))


def searched_center_extension_probe(s: FiniteSemimetricSpace) -> ProbeReport:
    """The earlier ``center_extension_probe``: the constructive obstruction search, then the checks on the extension."""
    w = ultrametric_violation(s)
    if w is not None:
        raise PreconditionFailed(f"input is not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs}")
    if find_forbidden_quadruple(s) is not None:
        raise PreconditionFailed("input contains a four-point obstruction")
    name = "c0"
    serial = 0
    while name in s.points:
        serial += 1
        name = f"c{serial}"
    r, spectrum = s.ranks, s.spectrum
    if len(r) == 1:
        spectrum, mins = (*spectrum, Fraction(1)), (1,)
    else:
        mins = _nearest(s)
    ranks = tuple([row + (m,) for row, m in zip(r, mins)] + [(*mins, 0)])
    extension = FiniteSemimetricSpace._trusted(
        points=s.points + (name,), spectrum=spectrum, ranks=ranks, _nearest=(*mins, min(mins)),
        hierarchy=_searched_extension_chain(s, mins),
    )
    ext_ultra = is_ultrametric(extension)
    added_center = ext_ultra and name in find_centers(extension)
    success = ext_ultra and added_center
    note = (
        "extension is star-generated with the added point as center"
        if success
        else "unresolved: the one-point extension failed; this is not counterevidence"
    )
    return ProbeReport(success, name, extension, ext_ultra, added_center, note)


def _searched_extension_chain(s: FiniteSemimetricSpace, mins: tuple[int, ...]) -> tuple:
    """The earlier ``harness._extension_chain``, which read the bottom run itself and raised on None."""
    order, join = s.hierarchy
    run = _bottom_run(order, join)
    if run is not None:
        at, least = run[1], min(mins)
        c = order[at - 1]
        rc = s.ranks[c]
        if mins == (*rc[:c], least, *rc[c + 1 :]):
            return (*order[:at], len(order), *order[at:]), (*join, least)
    raise InternalInconsistency("the grown chain does not give the added point's nearest ranks")


def per_cell_space_to_json(s: FiniteSemimetricSpace) -> dict:
    """The earlier ``space_to_json``: ``str`` of every cell of the ``Fraction`` matrix."""
    return {
        "points": list(s.points),
        "dist": [[str(v) for v in row] for row in s.dist],
    }


def fraction_rank_codes(values: list[Fraction], codes: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The earlier ``spaces._rank_codes``: distinct values sorted by Fraction comparisons."""
    distinct = {(v.numerator, v.denominator): v for v in values}
    rank = {k: r for r, k in enumerate(sorted(distinct, key=distinct.__getitem__))}
    return tuple(tuple(rank[values[c].numerator, values[c].denominator] for c in row) for row in codes)


def validated_build_star(s: FiniteSemimetricSpace, x0: str) -> LabeledStarGraph:
    """The earlier ``build_star``: the star goes through ``LabeledStarGraph.of`` and all its checks.

    ``x0`` must be a center of the ultrametric space ``s``.
    """
    i0 = s.index(x0)
    row, values = s.ranks[i0], s.spectrum
    return LabeledStarGraph.of(x0, ZERO, [(p, values[row[j]]) for j, p in enumerate(s.points) if j != i0])


def sliced_row_minima(r: tuple[tuple[int, ...], ...]) -> list[int]:
    """The earlier ``decision._row_minima``: the minimum of each row with its diagonal entry sliced out."""
    return [min(row[:i] + row[i + 1 :], default=0) for i, row in enumerate(r)]


def submatrix_center_indices(r: tuple[tuple[int, ...], ...]) -> list[int]:
    mins = sliced_row_minima(r)
    return [i for i, row in enumerate(r) if all(a <= m for a, m in zip(row, mins))]


def submatrix_has_diameter_point(r: tuple[tuple[int, ...], ...]) -> bool:
    diam = max(map(max, r))
    return any(sorted(row)[1] == diam for row in r)


def submatrix_semimetric_us_check(s: FiniteSemimetricSpace) -> UsCheckReport:
    """The earlier ``semimetric_us_check``: each 4-subset as a 4x4 rank submatrix.

    Centers and diameter points are found on the submatrix rows, and
    ``in_us`` on the rows of the whole rank matrix; raises
    ``CardinalityThree`` for three points, as the library does.
    """
    n = len(s.points)
    ultra = is_ultrametric(s)
    in_us = ultra and bool(submatrix_center_indices(s.ranks))
    every4_us = every4_tree = ultra or n < 4
    if n >= 4 and ultra:
        r = s.ranks
        for quad in combinations(range(n), 4):
            sub = tuple(tuple(r[a][b] for b in quad) for a in quad)
            if every4_us and not submatrix_center_indices(sub):
                every4_us = False
            if every4_tree and not submatrix_has_diameter_point(sub):
                every4_tree = False
            if not every4_us and not every4_tree:
                break
    report = UsCheckReport(in_us, every4_us, every4_tree, cardinality_ok=(n != 3))
    if n == 3:
        raise CardinalityThree(report)
    return report


def pair_scan_quadruple(s: FiniteSemimetricSpace):
    """The earlier ``find_forbidden_quadruple``: the O(n^2) pair scan on every ultrametric, caterpillars too."""
    _require_ultrametric(s)
    r = s.ranks
    n = len(r)
    if n < 4:
        return None
    mins = _nearest(s)
    for i in range(n):
        ri, mi = r[i], mins[i]
        for j in range(i + 1, n):
            if ri[j] <= (mi if mi >= mins[j] else mins[j]):
                continue
            zi = ri.index(mi)
            wi = r[j].index(mins[j])
            if zi == wi or zi == j or wi == i:
                rep = exhaustive_quadruple_scan(s)
                if rep is None:
                    raise InternalInconsistency("obstruction pair found but the exhaustive scan sees no quadruple")
                return rep
            return _normalized_report(s, i, j, zi, wi)
    return None


def elementwise_twin_classes(rm, n: int) -> list[int]:
    """The earlier ``similarity._twin_classes``: rows compared entry by entry, skipping both twins."""
    cls = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if cls[v] != v:
                continue
            if all(rm[u][w] == rm[v][w] for w in range(n) if w != u and w != v):
                cls[v] = cls[u]
    return cls


def deduped_generate_ultrametric(t) -> FiniteSemimetricSpace:
    """The earlier ``generate_ultrametric``: sorted labels deduped by ``!=`` before the path maxima.

    The reference for generation through ``spaces._ranked_values``.
    """
    values, rank_of = [ZERO], {}
    for lab in sorted({id(lab): lab for lab in t.labels}.values()):  # as the exact key orders them
        if lab != values[-1]:
            values.append(lab)
        rank_of[id(lab)] = len(values) - 1
    ranks = [rank_of[id(lab)] for lab in t.labels]
    edges = [(max(ranks[u], ranks[v]), u, v) for u, adj in enumerate(t._adj) for v in adj if u < v]
    used = sorted({e[0] for e in edges})
    if used and not used[0]:
        u, v = generating_violation(t)
        raise NotGenerating(f"edge {u} -- {v} has both endpoint labels zero")
    dense = [0] * len(values)
    for r, k in enumerate(used, 1):
        dense[k] = r
    maxima = _path_maxima(len(ranks), [(dense[k], u, v) for k, u, v in edges])[0]
    return FiniteSemimetricSpace._trusted(
        points=t.vertices, spectrum=(ZERO, *[values[k] for k in used]), ranks=maxima, ultrametric_witness=None
    )


def hand_written_json(record) -> dict:
    """The earlier hand-written ``to_json`` of every record, tail law and presentation.

    The reference for the one encoder, ``spaces._record_json``: each type
    wrote its own fields, and nested records, tails and spaces go through
    these same bodies.
    """
    return _HAND_WRITTEN[type(record).__name__](record)


def _witness_json(w) -> dict:
    return {"x": w.x, "y": w.y, "z": w.z, "lhs": str(w.lhs), "rhs": str(w.rhs)}


def _quadruple_json(q) -> dict:
    return {
        "x": q.x,
        "y": q.y,
        "z": q.z,
        "w": q.w,
        "big": str(q.big),
        "small1": str(q.small1),
        "small2": str(q.small2),
        "kind": q.kind,
    }


def _us_check_json(r) -> dict:
    return {
        "in_us": r.in_us,
        "every4_us": r.every4_us,
        "every4_tree": r.every4_tree,
        "cardinality_ok": r.cardinality_ok,
    }


def _discrepancy_json(d) -> dict:
    return {"space": per_cell_space_to_json(d.space), "details": d.details}


def _sweep_json(r) -> dict:
    return {
        "n": r.n,
        "classes": r.classes,
        "us_classes": r.us_classes,
        "obstructed_classes": r.obstructed_classes,
        "kind_counts": dict(r.kind_counts),
        "discrepancies": [hand_written_json(d) for d in r.discrepancies],
        "ok": r.ok,
    }


def _five_point_json(w) -> dict:
    return {
        "space": per_cell_space_to_json(w.space),
        "tree_generated": w.tree_generated,
        "star_generated": w.star_generated,
        "obstruction_kind": w.obstruction_kind,
    }


def _tree_report_json(r) -> dict:
    return {
        "classes_checked": r.classes_checked,
        "discrepancies": [hand_written_json(d) for d in r.discrepancies],
        "five_point_witnesses": [hand_written_json(w) for w in r.five_point_witnesses],
        "ok": r.ok,
    }


def _probe_json(r) -> dict:
    return {
        "success": r.success,
        "added_point": r.added_point,
        "extension": per_cell_space_to_json(r.extension),
        "extension_ultrametric": r.extension_ultrametric,
        "added_is_center": r.added_is_center,
        "note": r.note,
    }


def _canonical_json(f) -> dict:
    return {"digest": f.digest, "ranks": [list(row) for row in f.ranks]}


def _star_spec_json(spec) -> dict:
    obj = {
        "center_label": str(spec.center_label),
        "exceptional": [str(x) for x in spec.exceptional],
        "tail": hand_written_json(spec.tail),
    }
    if spec.tail_skip:
        obj["skip"] = spec.tail_skip
    return obj


def _compactness_json(r) -> dict:
    obj = {"compact": r.compact, "reason": r.reason}
    if r.epsilon is not None:
        obj["epsilon"] = str(r.epsilon)
    return obj


def _ray_spec_json(ray) -> dict:
    obj = {
        "prefix": [str(x) for x in ray.prefix],
        "tail": hand_written_json(ray.tail),
        "decreasing": ray.decreasing,
    }
    if ray.tail_skip:
        obj["skip"] = ray.tail_skip
    return obj


def _completion_json(m) -> dict:
    return {"added_point": m.added_point, "star": hand_written_json(m.star), "ray": hand_written_json(m.ray)}


def _compact_subset_json(r) -> dict:
    obj = {"compact": r.compact, "finite": r.finite, "reason": r.reason}
    if r.witness:
        obj["witness"] = [str(x) for x in r.witness]
    return obj


_HAND_WRITTEN = {
    "TripleWitness": _witness_json,
    "QuadrupleReport": _quadruple_json,
    "UsCheckReport": _us_check_json,
    "ClassDiscrepancy": _discrepancy_json,
    "ObstructionSweepReport": _sweep_json,
    "FivePointWitness": _five_point_json,
    "TreeEquivalenceReport": _tree_report_json,
    "ProbeReport": _probe_json,
    "CanonicalForm": _canonical_json,
    "HarmonicTail": lambda t: {"kind": "harmonic", "c": str(t.c)},
    "GeometricTail": lambda t: {"kind": "geometric", "a": str(t.a), "r": str(t.r)},
    "ConstantTail": lambda t: {"kind": "constant", "q": str(t.q)},
    "FiniteTail": lambda t: {"kind": "finite"},
    "StarSpec": _star_spec_json,
    "CompactnessReport": _compactness_json,
    "RaySpec": _ray_spec_json,
    "CompletionModel": _completion_json,
    "CompactSubsetReport": _compact_subset_json,
}


def class_count(n: int) -> int:
    """Number of weak-similarity classes of n-point ultrametrics, counted without enumerating them.

    The catalogue merges blocks level by level, and only which blocks are
    equal matters for the merges still to come.  So a state's number of
    descendant classes depends only on the multiplicities of its equal
    blocks: one block is one class, and otherwise it is the sum over the
    state's children, the multiset partitions of its blocks that merge at
    least one group.  In a child, each old block left alone keeps its
    kind, and each group of two or more becomes a new node, equal to the
    nodes of the equal groups and to no old block, whose level is lower.
    """
    return _descendant_classes((n,))


@lru_cache(maxsize=None)
def _descendant_classes(mults: tuple[int, ...]) -> int:
    if sum(mults) == 1:
        return 1
    total = 0
    for parts in _multiset_partitions(mults, mults):
        if len(parts) == sum(mults):  # every block alone: nothing merges
            continue
        kinds: dict[tuple[int, ...], int] = {}  # a lone block of kind i is the unit vector of i
        for part in parts:
            kinds[part] = kinds.get(part, 0) + 1
        total += _descendant_classes(tuple(sorted(kinds.values())))
    return total


def _multiset_partitions(counts: tuple[int, ...], bound: tuple[int, ...]):
    """Partitions of the multiset with these kind counts, as lists of parts in non-increasing order, each <= bound."""
    if not any(counts):
        yield []
        return
    for part in product(*[range(c, -1, -1) for c in counts]):
        if part <= bound and any(part):
            rest = tuple([c - p for c, p in zip(counts, part)])
            for parts in _multiset_partitions(rest, part):
                yield [part, *parts]
