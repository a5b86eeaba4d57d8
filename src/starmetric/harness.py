"""Exhaustive catalogue of small ultrametric spaces up to weak similarity.

A weak-similarity class of an n-point ultrametric space is the same thing
as a ranked hierarchy: a rooted merge tree on n unlabeled leaves whose
internal nodes carry levels 1..k, strictly increasing toward the root,
with every level used.  Enumeration follows that definition: starting
from n single leaves, level 1, 2, ... each merges the groups of some set
partition of the blocks left by the levels below.  Children and blocks
are kept sorted, so relabelings of one state coincide and a set removes
them; a brute-force rank-matrix oracle guards the bijection at small n
in the test suite.

On top of the catalogue sit the two equivalence sweeps (star-generability
vs the four-point obstruction; star-generability vs tree-generability at
four points) and the one-point center-extension probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .decision import (
    KIND_X4,
    KIND_Y4,
    QuadrupleReport,
    _row_minima,
    exhaustive_quadruple_scan,
    find_centers,
    find_forbidden_quadruple,
    four_point_tree_generable,
    is_us,
    path_tree_x4,
    path_tree_y4,
)
from .spaces import (
    FiniteSemimetricSpace,
    _path_maxima,
    distance_spectrum,
    is_ultrametric,
    space_to_json,
    ultrametric_violation,
)
from .trees import generate_ultrametric

MAX_POINTS = 8

LEAF: tuple = ()


class BoundExceeded(ValueError):
    """Requested point count is outside the supported enumeration range."""


class PreconditionFailed(ValueError):
    """Probe input must be ultrametric and free of four-point obstructions."""


@dataclass(frozen=True)
class RankedHierarchy:
    """Canonical encoding of a leveled merge tree.

    A node is either the empty tuple (a leaf) or ``(level, children)``
    with at least two children sorted by encoding; child levels are
    strictly below the parent level and the used levels form 1..k.
    Read left to right, the leaves form a chain: one explicit-stack pass
    validates every node in preorder and keeps the level between each
    pair of adjacent leaves, so the hierarchy may be of any depth.
    """

    root: tuple

    def __post_init__(self):
        gaps: list[int] = []
        stack: list[tuple] = [(self.root, None, False)]
        while stack:
            node, bound, boundary = stack.pop()
            if boundary:  # a later sibling: the parent's level separates it from the one before
                gaps.append(bound)
            if node == LEAF:
                continue
            level, children = node
            if bound is not None and level >= bound:
                raise ValueError(f"child level {level} not below parent level {bound}")
            if len(children) < 2:
                raise ValueError("internal nodes need at least two children")
            if tuple(sorted(children)) != tuple(children):
                raise ValueError("children must be sorted (canonical encoding)")
            stack.extend([(c, level, i > 0) for i, c in reversed(list(enumerate(children)))])
        levels = set(gaps)  # an internal node has two or more children, so its level is a gap
        if levels != set(range(1, len(levels) + 1)):
            raise ValueError(f"levels must be exactly 1..k, got {sorted(levels)}")
        object.__setattr__(self, "_gaps", tuple(gaps))

    @property
    def leaf_count(self) -> int:
        return len(self._gaps) + 1

    def rank_matrix(self) -> tuple[tuple[int, ...], ...]:
        """rank(x, y) = level of the least common ancestor, the largest adjacent level from x to y; 0 if x = y."""
        return _path_maxima(len(self._gaps) + 1, [(g, i, i + 1) for i, g in enumerate(self._gaps)])

    def to_space(self) -> FiniteSemimetricSpace:
        """Representative space with the rank values as distances, one ``Fraction`` per level.

        A valid hierarchy fixes the rank matrix and the ultrametric verdict,
        so the space starts with ``ranks`` and ``ultrametric_witness`` set.
        """
        ranks = self.rank_matrix()
        names = tuple([f"p{i + 1}" for i in range(len(ranks))])
        values = [Fraction(k) for k in range(max(self._gaps, default=0) + 1)]
        space = FiniteSemimetricSpace(names, tuple([tuple([values[v] for v in row]) for row in ranks]))
        vars(space).update(ranks=ranks, ultrametric_witness=None)
        return space


def _set_partitions(items: tuple) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        yield [[first]] + rest
        for i in range(len(rest)):
            yield rest[:i] + [[first] + rest[i]] + rest[i + 1 :]


def _merge_levels(n: int) -> Iterator[tuple]:
    """Canonical encodings on n leaves: top level ascending, sorted within it.

    A state is the sorted tuple of blocks still unmerged.  Each level
    takes every set partition of a state that merges at least one group
    and turns each group of two or more blocks into one node at that
    level.  Sorting children and blocks makes relabelings of one state
    equal, so the set keeps one copy of each.
    """
    states = {(LEAF,) * n}
    level = 0
    while states:
        yield from sorted(state[0] for state in states if len(state) == 1)
        level += 1
        states = {
            tuple(sorted(g[0] if len(g) == 1 else (level, tuple(sorted(g))) for g in groups))
            for blocks in states
            if len(blocks) > 1
            for groups in _set_partitions(blocks)
            if len(groups) < len(blocks)
        }


def enumerate_hierarchies(n: int) -> Iterator[RankedHierarchy]:
    """All ranked hierarchies on n leaves, canonical order, one per class."""
    if not 1 <= n <= MAX_POINTS:
        raise BoundExceeded(f"supported point counts are 1..{MAX_POINTS}, got {n}")
    for enc in _merge_levels(n):
        yield RankedHierarchy(enc)


def enumerate_classes(n: int) -> Iterator[FiniteSemimetricSpace]:
    """One representative space per weak-similarity class of n-point ultrametrics."""
    for h in enumerate_hierarchies(n):
        yield h.to_space()


def map_classes(fn: Callable, n: int, jobs: int = 1) -> Iterator[tuple[FiniteSemimetricSpace, object]]:
    """Each class space of size n with ``fn`` of it, in catalogue order.

    With ``jobs <= 1`` one class at a time is built, decided and handed on,
    so no list of classes is kept.  With ``jobs > 1`` the calls run in that
    many worker processes, so ``fn`` must be a module-level function;
    results come back in input order.
    """
    if jobs <= 1:
        for space in enumerate_classes(n):
            yield space, fn(space)
        return
    from concurrent.futures import ProcessPoolExecutor

    spaces = list(enumerate_classes(n))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(fn, spaces, chunksize=16))
    yield from zip(spaces, results)


@dataclass(frozen=True)
class ClassDiscrepancy:
    space: FiniteSemimetricSpace
    details: str

    def to_json(self) -> dict:
        return {"space": space_to_json(self.space), "details": self.details}


@dataclass(frozen=True)
class ObstructionSweepReport:
    """Per-class results of the star-generability vs obstruction sweep."""

    n: int
    classes: int
    us_classes: int
    obstructed_classes: int
    kind_counts: tuple[tuple[str, int], ...]
    discrepancies: tuple[ClassDiscrepancy, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "classes": self.classes,
            "us_classes": self.us_classes,
            "obstructed_classes": self.obstructed_classes,
            "kind_counts": dict(self.kind_counts),
            "discrepancies": [d.to_json() for d in self.discrepancies],
            "ok": self.ok,
        }


def _is_obstruction(s: FiniteSemimetricSpace, rep: QuadrupleReport) -> bool:
    """Whether ``rep`` names four points of ``s`` in the obstruction pattern, with their distances and kind."""
    at = [s._index.get(p) for p in (rep.x, rep.y, rep.z, rep.w)]
    if None in at or len(set(at)) != 4:
        return False
    x, y, z, w = at
    r, d = s.ranks, s.dist
    rx, rz = r[x], r[z]
    big = rx[y]
    return (
        rx[w] == rz[y] == rz[w] == big > max(rx[z], r[y][w])
        and (d[x][y], d[x][z], d[y][w]) == (rep.big, rep.small1, rep.small2)
        and rep.kind == (KIND_Y4 if rx[z] == r[y][w] else KIND_X4)
    )


def _obstruction_row(space: FiniteSemimetricSpace) -> tuple[bool, Optional[str], tuple[str, ...]]:
    """is_us, the constructive obstruction kind, and what is wrong with the two quadruple routes."""
    us = is_us(space)
    quad = find_forbidden_quadruple(space)
    oracle = exhaustive_quadruple_scan(space)
    faults = () if (quad is None) == (oracle is None) else ("constructive and exhaustive quadruple routes disagree",)
    for route, rep in (("constructive", quad), ("exhaustive", oracle)):
        if rep is not None and not _is_obstruction(space, rep):
            faults += (f"{route} route returned no obstruction: {(rep.x, rep.y, rep.z, rep.w)}",)
    return us, None if quad is None else quad.kind, faults


def verify_obstruction_equivalence(n: int, jobs: int = 1) -> ObstructionSweepReport:
    """Check is_us <=> no four-point obstruction over every class of size n.

    Also cross-checks the constructive quadruple search against the
    exhaustive scan, and checks each returned quadruple against the rank
    matrix; any disagreement or invalid witness lands in the discrepancy
    list.
    """
    classes = us_classes = obstructed = 0
    kinds: dict[str, int] = {KIND_X4: 0, KIND_Y4: 0}
    discrepancies: list[ClassDiscrepancy] = []
    for space, (us, kind, faults) in map_classes(_obstruction_row, n, jobs):
        classes += 1
        if us:
            us_classes += 1
        if kind is not None:
            obstructed += 1
            kinds[kind] += 1
        if us != (kind is None):
            discrepancies.append(
                ClassDiscrepancy(space, f"is_us={us} but obstruction kind={kind}")
            )
        discrepancies += [ClassDiscrepancy(space, fault) for fault in faults]
    return ObstructionSweepReport(
        n=n,
        classes=classes,
        us_classes=us_classes,
        obstructed_classes=obstructed,
        kind_counts=tuple(sorted(kinds.items())),
        discrepancies=tuple(discrepancies),
    )


def small_tree_generable(s: FiniteSemimetricSpace) -> bool:
    """Is an ultrametric space on at most 4 points generated by a labeled tree?

    Four points use the diameter criterion; fewer points run an exhaustive
    search over tree shapes, label assignments drawn from the distance
    spectrum, and vertex bijections.  (Any generating labeling can be
    rewritten with labels from the spectrum, so the search is complete.)
    """
    n = len(s.points)
    if n > 4:
        raise BoundExceeded("tree generability is only decided for n <= 4")
    if n == 4:
        return four_point_tree_generable(s)
    if n == 1:
        return True
    values = distance_spectrum(s)
    if n == 2:
        # a single edge with both labels equal to the distance
        return True
    # n == 3: path a - b - c over every bijection and label assignment
    pts = s.points
    orders = [
        (pts[0], pts[1], pts[2]),
        (pts[0], pts[2], pts[1]),
        (pts[1], pts[0], pts[2]),
    ]
    for order in orders:
        for la in values:
            for lb in values:
                for lc in values:
                    a, b, c = order
                    if (
                        max(la, lb) == s.d(a, b)
                        and max(lb, lc) == s.d(b, c)
                        and max(la, lb, lc) == s.d(a, c)
                    ):
                        return True
    return False


@dataclass(frozen=True)
class FivePointWitness:
    """A tree-generated five-point space that is not star-generated."""

    space: FiniteSemimetricSpace
    tree_generated: bool
    star_generated: bool
    obstruction_kind: Optional[str]

    def to_json(self) -> dict:
        return {
            "space": space_to_json(self.space),
            "tree_generated": self.tree_generated,
            "star_generated": self.star_generated,
            "obstruction_kind": self.obstruction_kind,
        }


@dataclass(frozen=True)
class TreeEquivalenceReport:
    """Star-generability vs tree-generability over every class with n <= 4."""

    classes_checked: int
    discrepancies: tuple[ClassDiscrepancy, ...]
    five_point_witnesses: tuple[FivePointWitness, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies and all(
            w.tree_generated and not w.star_generated for w in self.five_point_witnesses
        )

    def to_json(self) -> dict:
        return {
            "classes_checked": self.classes_checked,
            "discrepancies": [d.to_json() for d in self.discrepancies],
            "five_point_witnesses": [w.to_json() for w in self.five_point_witnesses],
            "ok": self.ok,
        }


def verify_tree_equivalence() -> TreeEquivalenceReport:
    """Check is_us <=> tree-generable on all classes with n <= 4.

    The two five-point path-generated spaces certify that the bound 4 is
    sharp: tree-generated by construction yet not star-generated.
    """
    checked = 0
    discrepancies: list[ClassDiscrepancy] = []
    for n in range(1, 5):
        for space in enumerate_classes(n):
            checked += 1
            us = is_us(space)
            tg = small_tree_generable(space)
            if us != tg:
                discrepancies.append(
                    ClassDiscrepancy(space, f"is_us={us} but tree_generable={tg}")
                )
    witnesses = []
    for tree in (path_tree_x4(), path_tree_y4()):
        space = generate_ultrametric(tree)
        quad = find_forbidden_quadruple(space)
        witnesses.append(
            FivePointWitness(
                space=space,
                tree_generated=True,
                star_generated=is_us(space),
                obstruction_kind=None if quad is None else quad.kind,
            )
        )
    return TreeEquivalenceReport(
        classes_checked=checked,
        discrepancies=tuple(discrepancies),
        five_point_witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the one-point center-extension attempt.

    Exploratory only: a failure is reported, never treated as a
    refutation of anything; the note labels it unresolved.
    """

    success: bool
    added_point: str
    extension: FiniteSemimetricSpace
    extension_ultrametric: bool
    added_is_center: bool
    note: str

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "added_point": self.added_point,
            "extension": space_to_json(self.extension),
            "extension_ultrametric": self.extension_ultrametric,
            "added_is_center": self.added_is_center,
            "note": self.note,
        }


def center_extension_probe(s: FiniteSemimetricSpace) -> ProbeReport:
    """Adjoin a point at every point's nearest-neighbor distance and test it.

    Requires an ultrametric space without four-point obstructions.  When
    the extension is ultrametric with the new point a center, the input
    embeds into a star-generated space.
    """
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
    # the added point sits at each point's nearest-neighbor rank, whose
    # value the first entry of the row at that rank gives; one point gets
    # the new value 1 at rank 1
    d, r = s.dist, s.ranks
    if len(d) == 1:
        gaps, mins = [Fraction(1)], [1]
    else:
        mins = _row_minima(r)
        gaps = [d[i][row.index(m)] for i, (row, m) in enumerate(zip(r, mins))]
    names = s.points + (name,)
    rows = [list(row) + [gaps[i]] for i, row in enumerate(d)]
    rows.append(gaps + [Fraction(0)])
    extension = FiniteSemimetricSpace(names, tuple([tuple(row) for row in rows]))
    vars(extension)["ranks"] = tuple([row + (m,) for row, m in zip(r, mins)] + [(*mins, 0)])
    ext_ultra = is_ultrametric(extension)
    added_center = ext_ultra and name in find_centers(extension)
    success = ext_ultra and added_center
    note = (
        "extension is star-generated with the added point as center"
        if success
        else "unresolved: the one-point extension failed; this is not counterevidence"
    )
    return ProbeReport(
        success=success,
        added_point=name,
        extension=extension,
        extension_ultrametric=ext_ultra,
        added_is_center=added_center,
        note=note,
    )
