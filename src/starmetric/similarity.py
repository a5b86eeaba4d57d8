"""Weak similarity: comparing spaces through the order structure of distances.

Two finite spaces are weakly similar when a point bijection composed with
a strictly increasing bijection of the distance value sets carries one
onto the other; for finite spaces that is exactly equality of rank
matrices up to point relabeling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .spaces import FiniteSemimetricSpace, distance_spectrum


def rank_matrix(s: FiniteSemimetricSpace) -> tuple[tuple[int, ...], ...]:
    """Distance matrix with each value replaced by its spectrum rank.

    The diagonal maps to rank 0; off-diagonal ranks cover 1..k with no
    gaps because every spectrum value occurs in the matrix.  Computed once
    per space and cached on it as ``s.ranks``.
    """
    return s.ranks


def _row_profile(mat: Sequence[Sequence], i: int, n: int) -> tuple:
    return tuple(sorted(mat[i][j] for j in range(n) if j != i))


def _matrix_bijection(ma: Sequence[Sequence[int]], mb: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Index bijection carrying rank matrix ``ma`` onto ``mb`` entrywise, or None.

    Backtracking over rows, pruned by per-point sorted row profiles.
    Deterministic: rows assigned in input order, candidates tried in input
    order, first complete assignment returned.
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

    Search is a DFS over orderings with two sound prunes: only one
    representative per twin class is tried at each node, and a branch is
    cut as soon as its determined first-row prefix exceeds the best found.
    Exponential in the worst case; meant for desk-scale n.
    """
    rm = rank_matrix(s)
    n = len(rm)
    if n == 1:
        return _form(((0,),))
    twins = _twin_classes(rm, n)
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
    return _form(tuple(tuple(row) for row in ranks))


def _form(ranks: tuple[tuple[int, ...], ...]) -> CanonicalForm:
    payload = json.dumps([list(r) for r in ranks], separators=(",", ":"))
    return CanonicalForm(ranks=ranks, digest=hashlib.sha256(payload.encode()).hexdigest())
