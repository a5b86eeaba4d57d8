"""Weak similarity: comparing spaces through the order structure of distances.

Two finite spaces are weakly similar when a point bijection composed with
a strictly increasing bijection of the distance value sets carries one
onto the other; for finite spaces that is exactly equality of rank
matrices up to point relabeling.  ``weak_similarity_bijection`` finds
the first such relabeling in row order: an ultrametric pair off the two
hierarchies, any other pair by cells and colour refinement.  The
canonical form, the lex-min row-major rank matrix, decides it without a
bijection: an ultrametric's is read off its hierarchy by the same walk,
and any other semimetric's comes from an ordered-partition search.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .spaces import FiniteSemimetricSpace, _record_json

Ranks = Sequence[Sequence[int]]


def rank_matrix(s: FiniteSemimetricSpace) -> tuple[tuple[int, ...], ...]:
    """Distance matrix with each value replaced by its spectrum rank.

    The diagonal maps to rank 0; off-diagonal ranks cover 1..k with no
    gaps because every spectrum value occurs in the matrix.  Computed once
    per space and cached on it as ``s.ranks``.
    """
    return s.ranks


def _cell_search(ma: Ranks, mb: Ranks) -> Optional[list[int]]:
    # The route of every other pair.  A row's cell is its rank sum, one
    # C-level sum per row, or its sorted row where sums tie; one table
    # names the cells of a and b, so equal colours mean equal keys (a row
    # of b whose key a lacks gets None, as a sorted row fixes its sum)
    sums_a, sums_b = list(map(sum, ma)), list(map(sum, mb))
    if len(set(sums_a)) == len(ma):
        return _forced(ma, mb, sums_a, sums_b)
    tally = Counter(sums_a)

    def key(row: Sequence[int], total: int) -> object:
        return total if tally[total] == 1 else tuple(sorted(row))

    table: dict = {}
    ca = [table.setdefault(key(row, total), len(table)) for row, total in zip(ma, sums_a)]
    cb = [table.get(key(row, total)) for row, total in zip(mb, sums_b)]
    if len(table) == len(ma):
        return _forced(ma, mb, ca, cb)
    if Counter(ca) != Counter(cb):
        return None
    return _refined_search(ma, mb, ca, cb, len(table))


def _forced(ma: Ranks, mb: Ranks, ca: list, cb: list) -> Optional[list[int]]:
    # The colours of a name one row each: the only candidate map, checked
    # entrywise in one itemgetter pass (n >= 3 here, so it picks tuples).
    # A colour of a that b lacks, or holds twice, leaves a None in it.
    where = dict(zip(cb, range(len(cb))))
    perm = [where.get(c) for c in ca]
    if None in perm:
        return None
    pick = itemgetter(*perm)
    return perm if tuple(map(pick, pick(mb))) == tuple(ma) else None


class _Colouring(NamedTuple):
    # Matched colourings of a and b: colour c names cells_a[c] of a and
    # cells_b[c] of b, of equal size; ``split`` lists the colours whose cells
    # hold two or more rows.  Refinement replaces cells and never changes
    # one, so copying the five lists makes a new colouring.
    ca: list[int]
    cb: list[int]
    cells_a: list[list[int]]
    cells_b: list[list[int]]
    split: list[int]


def _refined_search(ma: Ranks, mb: Ranks, ca: list[int], cb: list[int], m: int) -> Optional[list[int]]:
    # Individualization-refinement (McKay & Piperno, J. Symbolic Comput.
    # 60, 2014) on matched colourings of a and b: the first row whose cell
    # has more than one row is mapped to each b row of its colour in input
    # order, both get a new colour, and refinement either cuts the branch
    # or leaves the rows of equal colour as the only candidates left.  Rows
    # in singleton cells have one image, so the first complete map found
    # is the one the row-by-row search would find.  A discrete colouring
    # fixes the whole map.
    n = len(ma)
    cells_a: list[list[int]] = [[] for _ in range(m)]
    cells_b: list[list[int]] = [[] for _ in range(m)]
    for u, (c, d) in enumerate(zip(ca, cb)):
        cells_a[c].append(u)
        cells_b[d].append(u)
    col = _Colouring(ca, cb, cells_a, cells_b, [c for c in range(m) if len(cells_a[c]) > 1])
    ok = _refine(ma, mb, col, list(range(m)))
    frames: list = []
    i = -1
    while True:
        if ok and not col.split:
            perm = _forced(ma, mb, col.ca, col.cb)
            if perm is not None:
                return perm
        elif ok:
            i = next(u for u in range(i + 1, n) if len(col.cells_a[col.ca[u]]) > 1)
            frames.append((col, i, iter(col.cells_b[col.ca[i]])))
        while frames:
            col, i, candidates = frames[-1]
            j = next(candidates, None)
            if j is not None:
                break
            frames.pop()
        else:
            return None
        col = _Colouring(*(part[:] for part in col))
        x, new = col.ca[i], len(col.cells_a)
        col.cells_a[x], col.cells_b[x] = col.cells_a[x][:], col.cells_b[x][:]
        col.cells_a[x].remove(i)
        col.cells_b[x].remove(j)
        if len(col.cells_a[x]) == 1:
            col.split.remove(x)
        col.cells_a.append([i])
        col.cells_b.append([j])
        col.ca[i] = col.cb[j] = new
        ok = _refine(ma, mb, col, [new])


def _refine(ma: Ranks, mb: Ranks, col: _Colouring, queue: list[int]) -> bool:
    """Colour refinement of a and b in step, in place; False once they differ.

    Each colour taken from ``queue`` splits every cell by the ranks of its
    rows to that colour's rows (``_keys_to``), in both spaces at once; a
    cell keeps its colour for the piece of least key and the other pieces
    get new colours in key order.  A split that differs between a and b
    ends the refinement, and with it the branch.  A split cell queues all
    its pieces if it was waiting, else all but one largest (Hopcroft's
    rule: its splits are already made), and the loop ends at the coarsest
    equitable colouring.
    """
    ca, cb, cells_a, cells_b, split = col
    waiting = set(queue)
    while queue:
        s = queue.pop()
        waiting.discard(s)
        keys_a, keys_b = _keys_to(ma, cells_a[s]), _keys_to(mb, cells_b[s])
        for x in split[:]:
            xa, xb = cells_a[x], cells_b[x]
            ka, kb = keys_a(xa), keys_b(xb)
            values = set(ka)
            if len(values) == 1 and values == set(kb):
                continue
            parts_a: dict = {}
            parts_b: dict = {}
            for u, k in zip(xa, ka):
                parts_a.setdefault(k, []).append(u)
            for u, k in zip(xb, kb):
                parts_b.setdefault(k, []).append(u)
            keys = sorted(parts_a)
            if keys != sorted(parts_b) or any(len(parts_a[k]) != len(parts_b[k]) for k in keys):
                return False
            colours = [x] + list(range(len(cells_a), len(cells_a) + len(keys) - 1))
            cells_a[x], cells_b[x] = parts_a[keys[0]], parts_b[keys[0]]
            for c, k in zip(colours[1:], keys[1:]):
                cells_a.append(parts_a[k])
                cells_b.append(parts_b[k])
                for u in parts_a[k]:
                    ca[u] = c
                for u in parts_b[k]:
                    cb[u] = c
            if len(cells_a[x]) == 1:
                split.remove(x)
            split += [c for c in colours[1:] if len(cells_a[c]) > 1]
            if x not in waiting:
                colours.remove(max(colours, key=lambda c: len(cells_a[c])))
            fresh = [c for c in colours if c not in waiting]
            queue += fresh
            waiting.update(fresh)
    return True


def _keys_to(m: Ranks, splitter: list[int]) -> Callable[[list[int]], Sequence]:
    # The keys of a cell's rows (two or more) against the splitter's rows,
    # in cell order: the rank itself when the splitter is one row, else the
    # sorted ranks
    if len(splitter) == 1:
        row = m[splitter[0]]
        return lambda cell: itemgetter(*cell)(row)
    pick = itemgetter(*splitter)
    return lambda cell: [tuple(sorted(pick(m[u]))) for u in cell]


def weak_similarity_bijection(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> Optional[dict[str, str]]:
    """Point bijection realizing a weak similarity from ``a`` to ``b``, or None.

    The bijection returned is the first in the order of the row-by-row
    search: rows of ``a`` assigned in input order, each to the first row
    of ``b``, in input order, that still extends to a bijection.  That is
    the lexicographically least bijection, whichever route finds it.
    The route depends on ``a.hierarchy``, the O(n^2) ultrametric check:
    an ultrametric pair is read off both hierarchies (``_chain_search``),
    any other pair split into cells by rank sum and sorted row, then
    searched by refinement where a cell holds two or more (``_cell_search``).
    """
    if len(a.points) != len(b.points) or len(a.spectrum) != len(b.spectrum):
        return None
    mapping = _chain_search(a, b) if a.hierarchy is not None else _cell_search(a.ranks, b.ranks)
    return None if mapping is None else {a.points[i]: b.points[j] for i, j in enumerate(mapping)}


def weakly_similar(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> bool:
    return weak_similarity_bijection(a, b) is not None


def isometry_bijection(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> Optional[dict[str, str]]:
    """Point bijection preserving exact distances, or None.

    With equal distance spectra, equal ranks mean equal distances, so an
    isometry is exactly a weak similarity between the rank matrices.
    """
    if a.spectrum != b.spectrum:
        return None
    return weak_similarity_bijection(a, b)


def isometric(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> bool:
    return isometry_bijection(a, b) is not None


class CanonicalForm(NamedTuple):
    """Relabeling-invariant key: equal forms iff the spaces are weakly similar."""

    ranks: tuple[tuple[int, ...], ...]
    digest: str

    to_json = _record_json


def canonical_form(s: FiniteSemimetricSpace) -> CanonicalForm:
    """Lexicographically minimal row-major rank matrix over all point orders.

    An ultrametric's form is read off its hierarchy (``s.hierarchy``) in
    O(n^2) with no search.  Any other semimetric's comes from the ordered
    partition search, which branches only on the points of least row and
    skips each branch that an automorphism it has found maps onto one
    already searched (McKay 1981; McKay & Piperno 2014).  m interchangeable
    three-point paths, which a search pruning only twins met in m! ways,
    take about 1.5 m^2 node expansions (173 at m = 10).  The search is still
    exponential on inputs that refinement cannot split (Cai, Fürer &
    Immerman 1992), and no node budget bounds it yet.
    """
    return _form(s.ranks, _chain_tree(s)[1]) if s.hierarchy is not None else _search_form(s)


def _chain_tree(s: FiniteSemimetricSpace) -> tuple:
    # One pass over the Prim chain builds the hierarchy bottom-up, from an
    # explicit stack of open nodes whose ranks fall toward the top: a node
    # closes once a larger join rank (or the chain's end) follows it, and
    # equal join ranks add children to one node.  A subtree is its key
    # (the join ranks along its minimal leaf order, then the sentinel
    # len(spectrum), above every rank), that leaf order, its name and its
    # children.  Sorting children by key makes a leaf or any shorter key
    # sort after its extensions, so the first row climbs as slowly as it
    # can.  ``table`` numbers the keys, so equal names mean isomorphic
    # subtrees (Aho, Hopcroft & Ullman 1974); the space keeps the tree but
    # not the table, whose keys hold O(n^2) ints for a caterpillar.
    if "_chain_tree" in vars(s):
        return vars(s)["_chain_tree"]
    (order, join), top = s.hierarchy, len(s.spectrum)
    table, leaf, by_key = {(top,): 0}, 0, itemgetter(0)

    def close(rank: int, children: list, last: tuple) -> tuple:
        # last: the subtree that ends the node.  The first child's lists
        # grow in place, so only the root's key stays whole; naming copies
        # each key once, O(n^2) in all at worst
        children.append(last)
        children.sort(key=by_key)
        key, leaves = children[0][:2]
        for child in children[1:]:
            key[-1] = rank
            key += child[0]
            leaves += child[1]
        return key, leaves, table.setdefault(tuple(key), len(table)), children

    open_nodes: list[tuple[int, list]] = []
    last = ([top], [order[0]], leaf, ())
    for v in order[1:]:
        rank = join[v]
        while open_nodes and open_nodes[-1][0] < rank:
            last = close(*open_nodes.pop(), last)
        if open_nodes and open_nodes[-1][0] == rank:
            open_nodes[-1][1].append(last)
        else:
            open_nodes.append((rank, [last]))
        last = ([top], [v], leaf, ())
    while open_nodes:
        last = close(*open_nodes.pop(), last)
    return vars(s).setdefault("_chain_tree", last)


def _chain_search(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> Optional[list[int]]:
    """The first bijection from the ultrametric ``a`` to ``b``, off each space's named hierarchy, or None.

    With ``b`` ultrametric and equal root keys, the two minimal leaf orders
    pair up into an isomorphism ψ, and a point's type is the names of its
    ancestors in ``b``'s tree.  Each row i of ``a`` in input order takes the
    first unused row of ``b`` of the type of ψ(i) whose ranks to the rows
    placed are its own; the last row left of a type goes untested.  That
    never backtracks: let an isomorphism φ extend the rows placed, with
    φ(i) = j' for the candidate j.  Below their least common ancestor, j and
    j' lie in children with equal names, as their types agree, and neither
    holds a placed image, which would be at two ranks from j and j'.  Swap
    the two children, then map j' to j inside the child of j (by induction
    on depth: same type): that extends the rows placed and maps i to j, so
    the map is the row search's first.  A row tests at most n candidates
    against at most n placed rows: O(n^2) per row.
    """
    if b.hierarchy is None:
        return None
    root_a, root_b = _chain_tree(a), _chain_tree(b)
    if root_a[0] != root_b[0]:  # equal exactly for isomorphic hierarchies: the caller matched the sentinels
        return None
    types, stack = [()] * len(b.ranks), [((), root_b)]
    while stack:  # down from the root, handing each child its ancestors' names
        above, (_, leaves, name, children) = stack.pop()
        if children:
            stack += zip(repeat(above + (name,)), children)
        else:
            types[leaves[0]] = above
    rows_of: dict[tuple[int, ...], list[int]] = {}
    for j, kind in enumerate(types):
        rows_of.setdefault(kind, []).append(j)
    image, mb, assigned = dict(zip(root_a[1], root_b[1])), b.ranks, []
    for i, row in enumerate(a.ranks):
        cands, placed = rows_of[types[image[i]]], row[:i]
        j = cands[0] if len(cands) == 1 else next(j for j in cands if _agrees(mb[j], assigned, placed))
        cands.remove(j)
        assigned.append(j)
    return assigned


def _agrees(row: Sequence[int], images: list[int], placed: Sequence[int]) -> bool:
    # a candidate's ranks to the images of the rows placed are the row's ranks to those rows
    return tuple(map(row.__getitem__, images)) == placed


def _search_form(s: FiniteSemimetricSpace) -> CanonicalForm:
    # Places one point per position.  The unplaced points form an ordered
    # partition, split by rank to each placed point in turn: a minimal
    # order keeps them in that order, or a swap would lower an earlier
    # row.  So the next point comes from the first cell, and each point of
    # it fixes its own row; only the points of least row are branched on
    # (``_candidates``), and a branch is cut once its rows exceed the best.
    # A leaf whose rows equal the best gives an automorphism, the map
    # between the two orders.  It fixes their common prefix, so the child
    # it diverged in is the image of an explored one: the search returns
    # to that node, and each node tries one candidate per orbit of the
    # kept automorphisms that fix its prefix and of the twin swaps among
    # its candidates (McKay 1981).
    rm = s.ranks
    n = len(rm)
    order: list[int] = []
    # rows[k]: ranks from the point at position k to the later positions, one
    # list for the whole path, so memory stays O(n^2)
    rows: list[tuple[int, ...]] = []
    best: list[tuple[int, ...]] = []
    best_order: list[int] = []
    autos: list[list[int]] = []
    # nodes with candidates left: (depth, cells, row, candidates one per orbit)
    frames: list[tuple[int, list[list[int]], tuple[int, ...], Iterator[int]]] = []
    cells, tight = [list(range(n))], False  # tight: rows equal best's so far
    while True:
        while cells:
            depth = len(order)
            if len(cells) == n - depth:
                # a discrete partition forces the rest of the order
                rest = [cell[0] for cell in cells]
                tail = [tuple(map(rm[p].__getitem__, rest[k + 1 :])) for k, p in enumerate(rest)]
                if tight:
                    if tail > best[depth:]:
                        break
                    tight = tail == best[depth:]
                order += rest
                rows += tail
                cells = []
                continue
            row, cands = _candidates(rm, cells)
            if tight:
                if row > best[depth]:
                    break
                tight = row == best[depth]
            if len(cands) > 1:
                reps = _orbit_reps(rm, cands, order[:], autos)
                next(reps)
                frames.append((depth, cells, row, reps))
            order.append(cands[0])
            rows.append(row)
            cells = _split(rm, cells, cands[0])
        else:
            if tight:
                image = [0] * n
                for u, v in zip(best_order, order):
                    image[u] = v
                autos.append(image)
                fork = next(k for k, (u, v) in enumerate(zip(best_order, order)) if u != v)
                while frames[-1][0] > fork:
                    frames.pop()
            else:
                best, best_order = rows[:], order[:]
        # every frame left is a prefix of the best, so its branches start tight
        while frames and (p := next(frames[-1][3], None)) is None:
            frames.pop()
        if not frames:
            break
        depth, parent, row, _ = frames[-1]
        del order[depth:], rows[depth:]
        order.append(p)
        rows.append(row)
        cells, tight = _split(rm, parent, p), True
    return _form(rm, best_order)


def _candidates(rm: Ranks, cells: list[list[int]]) -> tuple[tuple[int, ...], list[int]]:
    """One node expansion: the least row a point of the first cell fixes, and the points that fix it.

    A point's row is its ranks to the rest of the first cell and to each
    later cell, sorted within each cell, whatever order the search puts
    those points in later.
    """
    first, rest = cells[0], cells[1:]
    least: Optional[tuple[int, ...]] = None
    cands: list[int] = []
    for p in first:
        rank = rm[p].__getitem__
        # p's own rank, the diagonal 0, sorts first and is dropped
        ranks = sorted(map(rank, first))[1:]
        for cell in rest:
            # most cells of a deep path are singletons; they skip the sort
            ranks += (rank(cell[0]),) if len(cell) == 1 else sorted(map(rank, cell))
        row = tuple(ranks)
        if least is None or row < least:
            least, cands = row, [p]
        elif row == least:
            cands.append(p)
    return least, cands


def _split(rm: Ranks, cells: list[list[int]], p: int) -> list[list[int]]:
    # the cells once p, of the first cell, is placed: each split by rank to p
    rank = rm[p].__getitem__
    split: list[list[int]] = []
    for cell in ([q for q in cells[0] if q != p], *cells[1:]):
        if len(cell) == 1:
            split.append(cell)
        elif cell:
            split += (list(g) for _, g in groupby(sorted(cell, key=rank), rank))
    return split


def _orbit_reps(rm: Ranks, cands: list[int], prefix: list[int], autos: list[list[int]]) -> Iterator[int]:
    # the candidates in order, skipping each one in the orbit of one already
    # yielded.  The orbits are those of the kept automorphisms that fix the
    # prefix, a union-find fed with each one kept since the last candidate
    # (such an automorphism keeps every cell, so it maps cands to cands),
    # and of the twin swaps among cands: a leaf finds a swap only at the end
    # of a descent, and twins alone would then cost O(n^4), where the test
    # costs O(n) a pair
    root = {p: p for p in cands}

    def find(p: int) -> int:
        while root[p] != p:
            root[p] = p = root[root[p]]
        return p

    def union(p: int, q: int) -> None:
        a, b = find(p), find(q)
        root[max(a, b)] = min(a, b)

    seen, tried = 0, []
    for q in cands:
        for image in autos[seen:]:
            if all(image[v] == v for v in prefix):
                for p in cands:
                    union(p, image[p])
        seen = len(autos)
        if find(q) in {find(t) for t in tried}:
            continue
        twin = next((t for t in tried if _twins(rm, t, q)), None)
        if twin is None:
            tried.append(q)
            yield q
        else:
            union(twin, q)


def _twins(rm: Ranks, u: int, v: int) -> bool:
    # swapping u and v is an automorphism: equal ranks to every other point,
    # compared as three tuple slices
    u, v = min(u, v), max(u, v)
    ru, rv = rm[u], rm[v]
    return ru[:u] == rv[:u] and ru[u + 1 : v] == rv[u + 1 : v] and ru[v + 1 :] == rv[v + 1 :]


def _form(rm: Ranks, order: Sequence[int]) -> CanonicalForm:
    import hashlib  # loads OpenSSL: only the verbs that take a digest pay for it

    # the ranks permuted by order; itemgetter of one index returns no tuple
    pick = itemgetter(*order)
    ranks = tuple([pick(rm[v]) for v in order]) if len(order) > 1 else ((0,),)
    payload = json.dumps([list(r) for r in ranks], separators=(",", ":"))
    return CanonicalForm(ranks=ranks, digest=hashlib.sha256(payload.encode()).hexdigest())
