"""Deciding whether an ultrametric space is generated by a labeled star graph.

Membership is read off the ultrametric's hierarchy, the chain
``s.hierarchy`` that its ultrametric check verified or its construction
handed over: the space is star-generated exactly when the
chain is a caterpillar (its join ranks fall, then rise), its centers are
the leaves of the bottom spine node, and each point's nearest-neighbor
rank is the lesser join rank beside it on the chain.  Three routes on
the rank matrix stay as cross-checks: the rank scan (every row against
the row minima) for the centers, and the constructive and exhaustive
searches for the four-point obstruction (two pairs strictly closer than
the common cross distance), each with an extracted witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import ge, le
from typing import NamedTuple

from .spaces import (
    FiniteSemimetricSpace,
    ZERO,
    _record_json,
    is_ultrametric,
    ultrametric_violation,
    validate_semimetric,
)
from .trees import LabeledStarGraph, LabeledTree


class DecisionError(ValueError):
    """Base class for decision-procedure failures."""


class NotUltrametric(DecisionError):
    """Operation requires an ultrametric space."""


class NotACenter(DecisionError):
    """Requested point does not satisfy the center criterion."""


class NotFourPoints(DecisionError):
    """Operation is defined for four-point spaces only."""


class InternalInconsistency(DecisionError):
    """The constructive search and the exhaustive oracle disagreed, or the
    probe's grown chain did not give its added point's ranks.

    Both should be unreachable for valid input; raising loudly here is a
    built-in theorem check, not dead code.
    """


class CardinalityThree(DecisionError):
    """Three-point spaces are excluded from the semimetric equivalence.

    The individual statements are still evaluated and attached as
    ``.report``, flagged non-equivalent.
    """

    def __init__(self, report: "UsCheckReport"):
        super().__init__("the three statements need not agree for card X = 3")
        self.report = report


KIND_X4 = "X4"
KIND_Y4 = "Y4"


class QuadrupleReport(NamedTuple):
    """Four-point obstruction witness.

    The cross distances d(x,y) = d(x,w) = d(z,y) = d(z,w) all equal
    ``big``; the within-pair distances ``small1 = d(x,z)`` and
    ``small2 = d(y,w)`` are strictly smaller.  ``kind`` is Y4 when the two
    small distances coincide and X4 otherwise.
    """

    x: str
    y: str
    z: str
    w: str
    big: Fraction
    small1: Fraction
    small2: Fraction
    kind: str

    to_json = _record_json


def x4_space() -> FiniteSemimetricSpace:
    """Four points, pair distances 1 and 2, every cross distance 3."""
    return validate_semimetric(
        ["p1", "p2", "p3", "p4"],
        [
            ["0", "3", "1", "3"],
            ["3", "0", "3", "2"],
            ["1", "3", "0", "3"],
            ["3", "2", "3", "0"],
        ],
    )


def y4_space() -> FiniteSemimetricSpace:
    """Four points, both pair distances 2, every cross distance 3."""
    return validate_semimetric(
        ["p1", "p2", "p3", "p4"],
        [
            ["0", "3", "2", "3"],
            ["3", "0", "3", "2"],
            ["2", "3", "0", "3"],
            ["3", "2", "3", "0"],
        ],
    )


def path_tree_x4() -> LabeledTree:
    """Five-vertex path whose metric restricts to the unequal-pairs obstruction."""
    return LabeledTree.of(
        [("v1", 2), ("v2", 2), ("v3", 3), ("v4", 1), ("v5", 1)],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5")],
    )


def path_tree_y4() -> LabeledTree:
    """Five-vertex path whose metric restricts to the equal-pairs obstruction."""
    return LabeledTree.of(
        [("v1", 2), ("v2", 2), ("v3", 3), ("v4", 2), ("v5", 2)],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5")],
    )


def _require_ultrametric(s: FiniteSemimetricSpace) -> None:
    w = ultrametric_violation(s)
    if w is not None:
        raise NotUltrametric(
            f"d({w.x},{w.y}) = {w.lhs} > {w.rhs} = max(d({w.x},{w.z}), d({w.z},{w.y}))"
        )


def _row_minima(r: tuple[tuple[int, ...], ...]) -> list[int]:
    """Nearest-neighbor rank of every point of a rank matrix (0 for one point)."""
    # rank 0 occurs only on the diagonal
    return [min(filter(None, row), default=0) for row in r]


def _chain_minima(order: tuple[int, ...], join: tuple[int, ...]) -> tuple[int, ...]:
    """Nearest-neighbor rank of every point, read off a chain ``(order, join)`` (0 for one point).

    Along the chain the rank between two points is the largest join rank
    between them, so a point's nearest neighbor sits next to it: the point
    at chain position p has the lesser of the join ranks at p and p + 1.
    """
    if len(order) == 1:
        return (0,)
    j = [join[v] for v in order[1:]]
    mins = [0] * len(order)
    # the first and last point have one neighbor each
    for v, m in zip(order, map(min, [j[0], *j], [*j, j[-1]])):
        mins[v] = m
    return tuple(mins)


def _nearest(s: FiniteSemimetricSpace) -> tuple[int, ...]:
    """``_chain_minima`` of the ultrametric ``s``, computed once per space and kept on it, as ``s.hierarchy`` is."""
    if "_nearest" not in vars(s):
        vars(s)["_nearest"] = _chain_minima(*s.hierarchy)
    return vars(s)["_nearest"]


def _is_center(row: tuple[int, ...], mins: tuple[int, ...]) -> bool:
    # row[j] >= mins[j] always holds off the diagonal, and row[i] = 0 on it
    return all(map(le, row, mins))


def _scan_centers(s: FiniteSemimetricSpace) -> tuple[str, ...]:
    """Centers of the ultrametric ``s`` by the rank scan, every row against the row minima: ``find_centers``'s cross-check."""
    mins = _row_minima(s.ranks)
    return tuple([p for p, row in zip(s.points, s.ranks) if _is_center(row, mins)])


def _bottom_run(order: tuple[int, ...], join: tuple[int, ...]) -> tuple[int, int] | None:
    """Chain positions ``lo:hi`` of the leaves of the bottom spine node, or None when the chain is no caterpillar.

    A four-point ultrametric lacks a center, and lacks a diameter point,
    exactly when it is two pairs, each closer than their cross rank.
    Along the chain such pairs exist iff the join rank at a position m
    tops those at p and q, 0 < p < m < q (take positions p - 1, p, q - 1,
    q).  So the hierarchy is a caterpillar, and the space star-generated,
    iff the join ranks after the first point fall, then rise.  The bottom
    spine node then holds the run of least join ranks and the point just
    before it; these leaves realize every point's nearest rank.
    """
    j = [join[v] for v in order[1:]]
    if not j:
        return 0, 1
    least = min(j)
    k = j.index(least)
    if not (all(map(ge, j[:k], j[1 : k + 1])) and all(map(le, j[k:], j[k + 1 :]))):
        return None
    return k, k + 1 + j.count(least)


def find_centers(s: FiniteSemimetricSpace) -> tuple[str, ...]:
    """Points x0 with d(x0, x) <= d(y, x) for all x != x0, y != x.

    Equivalently: x0 realizes every other point's nearest-neighbor
    distance.  Read off ``s.hierarchy`` in O(n): the leaves of the bottom
    spine node when the hierarchy is a caterpillar, else none.  Returned
    in input order; may be empty.  The rank scan over every row
    (``_scan_centers``) is the cross-check route.
    """
    _require_ultrametric(s)
    order, join = s.hierarchy
    run = _bottom_run(order, join)
    return () if run is None else tuple([s.points[i] for i in sorted(order[run[0] : run[1]])])


def is_us(s: FiniteSemimetricSpace) -> bool:
    """True iff the space is generated by some labeled star graph."""
    return bool(find_centers(s))


def build_star(s: FiniteSemimetricSpace, x0: str) -> LabeledStarGraph:
    """Star with center x0 and leaf labels d(x, x0); regenerates ``s`` exactly."""
    _require_ultrametric(s)
    i0 = s.index(x0)  # UnknownPoint for a name outside the space
    row, values = s.ranks[i0], s.spectrum
    if not _is_center(row, _nearest(s)):
        raise NotACenter(f"{x0!r} does not satisfy the center criterion (centers: {list(find_centers(s))})")
    # vertex 0, the center, meets every edge in leaf order, and the row holds the
    # label ranks: checks, edge normalization and label ranking would change nothing
    leaves = s.points[:i0] + s.points[i0 + 1 :]
    ranks = (0, *row[:i0], *row[i0 + 1 :])
    return LabeledStarGraph._trusted(
        vertices=(x0, *leaves),
        edges=tuple([(x0, p) for p in leaves]),
        labels=(ZERO, *[values[k] for k in ranks[1:]]),
        _adj=[list(range(1, len(row))), *[[0] for _ in leaves]],
        _label_ranks=(values, ranks),
    )


def _normalized_report(s: FiniteSemimetricSpace, xi: int, yi: int, zi: int, wi: int) -> QuadrupleReport:
    # pairs {x,z} and {y,w}; order inside each pair by index, then put the
    # smaller pair distance first, indices breaking ties
    r = s.ranks
    xi, zi = (xi, zi) if xi < zi else (zi, xi)
    yi, wi = (yi, wi) if yi < wi else (wi, yi)
    if (r[xi][zi], xi, zi) > (r[yi][wi], yi, wi):
        xi, zi, yi, wi = yi, wi, xi, zi
    v = s.spectrum
    return QuadrupleReport(
        x=s.points[xi],
        y=s.points[yi],
        z=s.points[zi],
        w=s.points[wi],
        big=v[r[xi][yi]],
        small1=v[r[xi][zi]],
        small2=v[r[yi][wi]],
        kind=KIND_Y4 if r[xi][zi] == r[yi][wi] else KIND_X4,
    )


def exhaustive_quadruple_scan(s: FiniteSemimetricSpace) -> QuadrupleReport | None:
    """Scan every 4-subset for the obstruction pattern (oracle route).

    Deterministic: subsets by ascending index, first matching subset wins,
    normalized report.  Assumes an ultrametric input; on arbitrary
    semimetrics it is just a pattern scan.
    """
    r = s.ranks
    n = len(r)
    for quad in combinations(range(n), 4):
        found = []
        for (p, q), (u, t) in (
            ((quad[0], quad[1]), (quad[2], quad[3])),
            ((quad[0], quad[2]), (quad[1], quad[3])),
            ((quad[0], quad[3]), (quad[1], quad[2])),
        ):
            # {p, q} and {u, t} are the close pairs, so p and u sit across
            big = r[p][u]
            if r[p][t] == big and r[q][u] == big and r[q][t] == big and r[p][q] < big and r[u][t] < big:
                found.append(_normalized_report(s, p, u, q, t))
        if found:
            return min(found, key=lambda rep: (rep.small1, rep.small2, rep.x, rep.z, rep.y, rep.w))
    return None


def find_forbidden_quadruple(s: FiniteSemimetricSpace) -> QuadrupleReport | None:
    """Four-point obstruction witness, or None when the space is star-generated.

    A caterpillar chain (``_bottom_run``) has none, and returns None in
    O(n).  Otherwise the constructive search: with l(x) the
    nearest-neighbor distance, locate the first pair d(x,y) >
    max(l(x), l(y)) and extract the two closer partners z, w.  Should the
    extraction ever degenerate the exhaustive scan takes over, and a
    disagreement between the two routes raises InternalInconsistency.
    """
    _require_ultrametric(s)
    return None if _bottom_run(*s.hierarchy) is not None else _constructive_quadruple(s)


def _constructive_quadruple(s: FiniteSemimetricSpace) -> QuadrupleReport | None:
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
            # the diagonal rank 0 is below every minimum, so index() finds
            # the first nearest neighbor other than the point itself
            zi = ri.index(mi)
            wi = r[j].index(mins[j])
            if zi == wi or zi == j or wi == i:
                # cannot happen for ultrametric input; fall back to the oracle
                rep = exhaustive_quadruple_scan(s)
                if rep is None:
                    raise InternalInconsistency(
                        f"obstruction pair ({s.points[i]}, {s.points[j]}) found "
                        "but the exhaustive scan sees no quadruple"
                    )
                return rep
            return _normalized_report(s, i, j, zi, wi)
    return None


def four_point_tree_generable(s: FiniteSemimetricSpace) -> bool:
    """True iff some point sits at diameter distance from the three others."""
    if len(s.points) != 4:
        raise NotFourPoints(f"need exactly 4 points, got {len(s.points)}")
    _require_ultrametric(s)
    # a diameter point's nearest rank is the diameter, the top rank
    return len(s.spectrum) - 1 in _nearest(s)


class UsCheckReport(NamedTuple):
    """The three star-generability statements, evaluated independently.

    ``in_us``: the space itself is ultrametric and star-generated.
    ``every4_us``: every 4-subset is ultrametric and star-generated.
    ``every4_tree``: every 4-subset is ultrametric and tree-generable.
    ``cardinality_ok`` is False exactly when card X = 3, where the three
    statements need not agree.
    """

    in_us: bool
    every4_us: bool
    every4_tree: bool
    cardinality_ok: bool

    @property
    def agree(self) -> bool:
        return self.in_us == self.every4_us == self.every4_tree

    to_json = _record_json


def semimetric_us_check(s: FiniteSemimetricSpace) -> UsCheckReport:
    """Evaluate the three statements on an arbitrary finite semimetric space.

    Star generation forces ultrametricity, so statement (in_us) is decided
    as is_ultrametric plus the center criterion by the rank scan, and the
    every-4 ones in O(n) off the hierarchy's shape (see ``_bottom_run``).
    For card X = 3 a CardinalityThree error carrying the report is raised.
    """
    n = len(s.points)
    ultra = is_ultrametric(s)
    in_us = ultra and bool(_scan_centers(s))
    # for n >= 4 every 4-subset is ultrametric exactly when the space is:
    # each violating triple extends to a 4-subset
    every4_us = every4_tree = is_us(s) if ultra else n < 4
    report = UsCheckReport(in_us, every4_us, every4_tree, cardinality_ok=(n != 3))
    if n == 3:
        raise CardinalityThree(report)
    return report
