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

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from .decision import (
    KIND_X4,
    KIND_Y4,
    InternalInconsistency,
    QuadrupleReport,
    _bottom_run,
    _nearest,
    _scan_centers,
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
    _Frozen,
    _path_maxima,
    _record_json,
    ultrametric_violation,
)
from .trees import generate_ultrametric

MAX_POINTS = 8

LEAF: tuple = ()


class BoundExceeded(ValueError):
    """Requested point count is outside the supported enumeration range."""


class PreconditionFailed(ValueError):
    """Probe input must be ultrametric and free of four-point obstructions."""


class RankedHierarchy(_Frozen):
    """Canonical encoding of a leveled merge tree.

    A node is either the empty tuple (a leaf) or ``(level, children)``
    with at least two children sorted by encoding; child levels are
    strictly below the parent level and the used levels form 1..k.
    Read left to right, the leaves form a chain: one explicit-stack pass
    validates every node in preorder and keeps the level between each
    pair of adjacent leaves, so the hierarchy may be of any depth.  The
    catalogue, which builds its encodings canonical and records their
    gaps as it goes, hands both over through ``_trusted`` instead.  Any
    other node, a bool level included, raises ``ValueError`` naming it.
    """

    _fields = ("root",)

    def __init__(self, root: tuple):
        _check_nodes(root)
        gaps: list[int] = []
        stack: list[tuple] = [(root, None, False)]
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
        vars(self).update(root=root, _gaps=tuple(gaps))

    @property
    def leaf_count(self) -> int:
        return len(self._gaps) + 1

    def rank_matrix(self) -> tuple[tuple[int, ...], ...]:
        """rank(x, y) = level of the least common ancestor, the largest adjacent level from x to y; 0 if x = y."""
        return _path_maxima(len(self._gaps) + 1, [(g, i, i + 1) for i, g in enumerate(self._gaps)])[0]

    def to_space(self) -> FiniteSemimetricSpace:
        """Representative space with the rank values as distances.

        A valid hierarchy fixes the rank matrix and is its own chain, so the
        space starts with ``ranks`` and ``hierarchy`` set.  Every hierarchy
        of one size shares its point names, and every one with k levels its
        spectrum 0..k.
        """
        ranks = self.rank_matrix()
        n = len(ranks)
        spectrum = _levels(max(self._gaps, default=0) + 1)
        chain = (tuple(range(n)), (0, *self._gaps))  # each leaf joins at the gap before it
        return FiniteSemimetricSpace._trusted(points=_point_names(n), spectrum=spectrum, ranks=ranks, hierarchy=chain)


def _check_nodes(root) -> None:
    # every node is () or (int level, tuple of children), in preorder, before
    # any level or sibling is compared: a bool is no level, and only tuples hash
    stack = [root]
    while stack:
        node = stack.pop()
        if node == LEAF:
            continue
        if type(node) is not tuple or len(node) != 2 or type(node[0]) is not int or type(node[1]) is not tuple:
            raise ValueError(f"a node must be () or (int level, tuple of children), got {node!r}")
        stack += node[1][::-1]


@lru_cache(maxsize=16)
def _point_names(n: int) -> tuple[str, ...]:
    return tuple([f"p{i}" for i in range(1, n + 1)])


@lru_cache(maxsize=16)
def _levels(k: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(i) for i in range(k)])


def _set_partitions(items: tuple) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        yield [[first]] + rest
        for i in range(len(rest)):
            yield rest[:i] + [[first] + rest[i]] + rest[i + 1 :]


def _merge_levels(n: int) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Canonical encodings on n leaves with their gaps: top level ascending, sorted within it.

    A state is the sorted tuple of blocks still unmerged.  Each level
    takes every set partition of a state that merges at least one group
    and turns each group of two or more blocks into one node at that
    level.  Sorting children and blocks makes relabelings of one state
    equal, so the set keeps one copy of each.  A node's gaps, the levels
    between its adjacent leaves, are its children's gaps joined by its
    level; one dict keeps them for every node of a yielded encoding, so
    subtrees shared between classes are joined once.
    """
    gaps: dict[tuple, tuple[int, ...]] = {LEAF: ()}

    def gaps_of(node: tuple) -> tuple[int, ...]:
        known = gaps.get(node)
        if known is None:
            level, (first, *rest) = node
            joined = list(gaps_of(first))
            for child in rest:
                joined.append(level)
                joined += gaps_of(child)
            known = gaps[node] = tuple(joined)
        return known

    states = {(LEAF,) * n}
    level = 0
    while states:
        for root in sorted(state[0] for state in states if len(state) == 1):
            yield root, gaps_of(root)
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
    for root, gaps in _merge_levels(n):
        yield RankedHierarchy._trusted(root=root, _gaps=gaps)


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


class ClassDiscrepancy(NamedTuple):
    space: FiniteSemimetricSpace
    details: str

    to_json = _record_json


class ObstructionSweepReport(NamedTuple):
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
        return {**_record_json(self), "kind_counts": dict(self.kind_counts), "ok": self.ok}


def _is_obstruction(s: FiniteSemimetricSpace, rep: QuadrupleReport) -> bool:
    """Whether ``rep`` names four points of ``s`` in the obstruction pattern, with their distances and kind."""
    at = [s._index.get(p) for p in (rep.x, rep.y, rep.z, rep.w)]
    if None in at or len(set(at)) != 4:
        return False
    x, y, z, w = at
    r, v = s.ranks, s.spectrum
    rx, rz = r[x], r[z]
    big = rx[y]
    return (
        rx[w] == rz[y] == rz[w] == big > max(rx[z], r[y][w])
        and (v[big], v[rx[z]], v[r[y][w]]) == (rep.big, rep.small1, rep.small2)
        and rep.kind == (KIND_Y4 if rx[z] == r[y][w] else KIND_X4)
    )


def _obstruction_row(space: FiniteSemimetricSpace) -> tuple[bool, Optional[str], tuple[str, ...]]:
    """is_us, the constructive obstruction kind, and what is wrong with the quadruple routes or the centers."""
    centers = find_centers(space)
    us = bool(centers)
    quad = find_forbidden_quadruple(space)
    oracle = exhaustive_quadruple_scan(space)
    faults = () if (quad is None) == (oracle is None) else ("constructive and exhaustive quadruple routes disagree",)
    if _scan_centers(space) != centers:
        faults += ("center criterion and hierarchy shape disagree",)
    for route, rep in (("constructive", quad), ("exhaustive", oracle)):
        if rep is not None and not _is_obstruction(space, rep):
            faults += (f"{route} route returned no obstruction: {(rep.x, rep.y, rep.z, rep.w)}",)
    return us, None if quad is None else quad.kind, faults


def verify_obstruction_equivalence(n: int, jobs: int = 1) -> ObstructionSweepReport:
    """Check is_us <=> no four-point obstruction over every class of size n.

    Also cross-checks the constructive quadruple search against the
    exhaustive scan and the centers read off the hierarchy against the
    rank scan, and
    checks each returned quadruple against the rank matrix; any
    disagreement or invalid witness lands in the discrepancy list.
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
    Labels and distances are compared by their spectrum ranks, which
    order them as the values do.
    """
    n = len(s.points)
    if n > 4:
        raise BoundExceeded("tree generability is only decided for n <= 4")
    if n == 4:
        return four_point_tree_generable(s)
    if n < 3:
        return True  # one vertex, or one edge with both labels equal to the distance
    # n == 3: a path a - b - c for each middle point b, every label assignment
    r = s.ranks
    return any(
        max(la, lb) == r[a][b] and max(lb, lc) == r[b][c] and max(la, lb, lc) == r[a][c]
        for a, b, c in ((0, 1, 2), (0, 2, 1), (1, 0, 2))
        for la, lb, lc in product(range(len(s.spectrum)), repeat=3)
    )


class FivePointWitness(NamedTuple):
    """A tree-generated five-point space that is not star-generated."""

    space: FiniteSemimetricSpace
    tree_generated: bool
    star_generated: bool
    obstruction_kind: Optional[str]

    to_json = _record_json


class TreeEquivalenceReport(NamedTuple):
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
        return {**_record_json(self), "ok": self.ok}


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


class ProbeReport(NamedTuple):
    """Outcome of the one-point center-extension probe.

    The probe returns only when its construction succeeds, so
    ``success``, ``extension_ultrametric`` and ``added_is_center`` are
    True; they and ``note`` stay fields of the JSON record.
    """

    success: bool
    added_point: str
    extension: FiniteSemimetricSpace
    extension_ultrametric: bool
    added_is_center: bool
    note: str

    to_json = _record_json


def center_extension_probe(s: FiniteSemimetricSpace) -> ProbeReport:
    """Adjoin a point at every point's nearest-neighbor distance.

    Requires an ultrametric space without four-point obstructions: on an
    ultrametric that holds exactly when its chain is a caterpillar
    (``_bottom_run``), so no obstruction search runs.  The added point
    joins the bottom spine node of the grown chain (``_extension_chain``),
    so the extension is ultrametric with the added point a center, and
    the input embeds into a star-generated space.  The extension is
    handed that chain, so no Prim pass, ultrametric check or center
    search runs on it.
    """
    w = ultrametric_violation(s)
    if w is not None:
        raise PreconditionFailed(f"input is not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs}")
    run = _bottom_run(*s.hierarchy)
    if run is None:
        raise PreconditionFailed("input contains a four-point obstruction")
    name = "c0"
    serial = 0
    while name in s.points:
        serial += 1
        name = f"c{serial}"
    # the added point sits at each point's nearest-neighbor rank, so the
    # spectrum stays; one point gets the new value 1 at rank 1
    r, spectrum = s.ranks, s.spectrum
    if len(r) == 1:
        spectrum, mins = (*spectrum, Fraction(1)), (1,)
    else:
        mins = _nearest(s)
    ranks = tuple([row + (m,) for row, m in zip(r, mins)] + [(*mins, 0)])
    extension = FiniteSemimetricSpace._trusted(
        points=s.points + (name,), spectrum=spectrum, ranks=ranks, hierarchy=_extension_chain(s, mins, run)
    )
    return ProbeReport(
        success=True,
        added_point=name,
        extension=extension,
        extension_ultrametric=True,
        added_is_center=True,
        note="extension is star-generated with the added point as center",
    )


def _extension_chain(s: FiniteSemimetricSpace, mins: tuple[int, ...], run: tuple[int, int]) -> tuple:
    """``s.hierarchy`` grown by a point n whose rank to each point is that point's nearest rank ``mins``.

    ``run`` is the chain's bottom spine node (``_bottom_run``), and its
    last leaf c is a center: c's rank to every other point is that
    point's nearest rank, and c's own is the least of ``mins``.  Point n
    joins right after c at that least rank, so along the grown chain n's
    ranks are c's with the least rank to c, which is ``mins``.  That rank
    is at most every rank of c, so no old pair's largest join rank
    between them changes: those pairs were checked with ``s.hierarchy``,
    and this O(n) comparison of c's row checks n's, raising
    InternalInconsistency if it fails.
    """
    order, join = s.hierarchy
    at, least = run[1], min(mins)
    c = order[at - 1]
    rc = s.ranks[c]
    if mins != (*rc[:c], least, *rc[c + 1 :]):
        raise InternalInconsistency("the grown chain does not give the added point's nearest ranks")
    return (*order[:at], len(order), *order[at:]), (*join, least)
