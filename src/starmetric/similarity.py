"""Weak similarity: comparing spaces through the order structure of distances.

Two finite spaces are weakly similar when a point bijection composed with
a strictly increasing bijection of the distance value sets carries one
onto the other; for finite spaces that is exactly equality of rank
matrices up to point relabeling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator, Optional, Sequence

from .spaces import FiniteSemimetricSpace, distance_spectrum


def rank_matrix(s: FiniteSemimetricSpace) -> tuple[tuple[int, ...], ...]:
    """Distance matrix with each value replaced by its spectrum rank.

    The diagonal maps to rank 0; off-diagonal ranks cover 1..k with no
    gaps because every spectrum value occurs in the matrix.  Computed once
    per space and cached on it as ``s.ranks``.
    """
    return s.ranks


def _matrix_bijection(ma: Sequence[Sequence[int]], mb: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Index bijection carrying rank matrix ``ma`` onto ``mb`` entrywise, or None.

    Backtracking over rows, pruned by per-point sorted row profiles, in a
    loop that counts the candidates tried per row.  A profile is the whole
    sorted row: in a rank matrix the diagonal 0 is each row's only 0, so it
    adds the same leading 0 to every profile.  Deterministic: rows
    assigned in input order, candidates tried in input order, first
    complete assignment returned.
    """
    n = len(ma)
    if len(mb) != n:
        return None
    prof_a = [tuple(sorted(row)) for row in ma]
    prof_b = [tuple(sorted(row)) for row in mb]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)]
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


def weak_similarity_bijection(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> Optional[dict[str, str]]:
    """Point bijection realizing a weak similarity from ``a`` to ``b``, or None."""
    if len(a.points) != len(b.points):
        return None
    if max(map(max, a.ranks)) != max(map(max, b.ranks)):
        return None
    mapping = _matrix_bijection(a.ranks, b.ranks)
    if mapping is None:
        return None
    return {a.points[i]: b.points[j] for i, j in enumerate(mapping)}


def weakly_similar(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> bool:
    return weak_similarity_bijection(a, b) is not None


def isometry_bijection(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> Optional[dict[str, str]]:
    """Point bijection preserving exact distances, or None.

    With equal distance spectra, equal ranks mean equal distances, so an
    isometry is exactly a weak similarity between the rank matrices.
    """
    if distance_spectrum(a) != distance_spectrum(b):
        return None
    return weak_similarity_bijection(a, b)


def isometric(a: FiniteSemimetricSpace, b: FiniteSemimetricSpace) -> bool:
    return isometry_bijection(a, b) is not None


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant key: equal forms iff the spaces are weakly similar."""

    ranks: tuple[tuple[int, ...], ...]
    digest: str

    def to_json(self) -> dict:
        return {"digest": self.digest, "ranks": [list(row) for row in self.ranks]}


def _twin_classes(rm: Sequence[Sequence[int]], n: int) -> list[int]:
    # u, v are twins when swapping them is an automorphism of the rank
    # matrix: identical ranks to every third point
    cls = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if cls[v] != v:
                continue
            if all(rm[u][w] == rm[v][w] for w in range(n) if w != u and w != v):
                cls[v] = cls[u]
    return cls


def canonical_form(s: FiniteSemimetricSpace) -> CanonicalForm:
    """Lexicographically minimal row-major rank matrix over all point orders.

    Places one point per position, from an explicit stack.  The unplaced
    points form an ordered partition, split by rank to each placed point in
    turn: a minimal order keeps them in that order, or a swap would lower an
    earlier row.  So the next point comes from the first cell, one per twin
    class (a twin swap is an automorphism), and its row is then fixed; a
    branch is cut once its rows exceed the best.  Still exponential in the
    number of interchangeable blocks that are not twins (m pairs: m! leaves).
    """
    rm = rank_matrix(s)
    n = len(rm)
    twins = _twin_classes(rm, n)

    def placements(cells: list[list[int]]) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
        first, rest = cells[0], cells[1:]
        for p in {twins[q]: q for q in first}.values():
            rank = rm[p].__getitem__
            split: list[list[int]] = []
            for cell in [[q for q in first if q != p], *rest]:
                # most cells of a deep path are singletons; they skip the sort
                split += [cell] if len(cell) == 1 else (list(g) for _, g in groupby(sorted(cell, key=rank), rank))
            yield tuple(map(rank, chain.from_iterable(split))), split

    # rows[k]: ranks from the point at position k to the later positions, one
    # list for the whole path, so memory stays O(n^2)
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
    # entry (i, j) with j < i sits in row j, at offset i - j - 1
    return _form(tuple(tuple(best[j][i - j - 1] for j in range(i)) + (0,) + best[i] for i in range(n)))


def _form(ranks: tuple[tuple[int, ...], ...]) -> CanonicalForm:
    import hashlib  # loads OpenSSL: only the verbs that take a digest pay for it

    payload = json.dumps([list(r) for r in ranks], separators=(",", ":"))
    return CanonicalForm(ranks=ranks, digest=hashlib.sha256(payload.encode()).hexdigest())
