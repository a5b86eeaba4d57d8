"""Vertex-labeled trees and the path-maximum ultrametric they generate.

A labeled tree generates a distance by taking the largest vertex label on
the unique path joining two vertices (endpoints included).  The result is
an ultrametric exactly when every edge has at least one positively
labeled endpoint; `generating_violation` reports the first edge breaking
that condition.

A labeled star graph is a `LabeledTree` whose first vertex, the center,
meets every edge: one validation, one adjacency, and the same functions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .rational import rat
from .spaces import FiniteSemimetricSpace, ZERO, _Frozen, _path_maxima, _ranked_values


class TreeError(ValueError):
    """Base class for labeled-tree failures."""


class NotATree(TreeError):
    """Edge set is not a single connected acyclic component."""


class NegativeLabel(TreeError):
    """Vertex labels must be nonnegative."""


class UnknownVertex(TreeError):
    """Named vertex is not part of the tree."""


class NotGenerating(TreeError):
    """Some edge has both endpoint labels zero, so no ultrametric arises."""


class TreeFormatError(TreeError):
    """Tree text input could not be parsed."""


class LabeledTree(_Frozen):
    """Tree with a nonnegative rational label on every vertex.

    The constructor stores vertices and labels as tuples, each label
    coerced through ``rat``, so it refuses floats and bools as every
    reader does, and a str where a sequence belongs; ``of`` only pairs
    labels with vertices.  Edges are normalized at construction
    (endpoints ordered by vertex index, edges sorted) so text and DOT
    output are stable.  The same pass keeps each vertex's neighbour
    indices for every walk over the tree.
    """

    _fields = ("vertices", "edges", "labels")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]], labels: Iterable):
        # a str is a sequence of its characters, never of names, edges or labels
        for what, items in (("vertices", vertices), ("edges", edges), ("labels", labels)):
            if isinstance(items, str):
                raise NotATree(f"{what} must be a sequence, got str")
        names, labels = tuple(vertices), tuple([rat(lab) for lab in labels])
        vars(self).update(vertices=names, labels=labels)
        n = len(names)
        if not names:
            raise NotATree("a tree needs at least one vertex")
        for name in names:
            if not isinstance(name, str) or not name:
                raise NotATree(f"vertex names must be nonempty strings, got {name!r}")
        if len(set(names)) != n:
            raise NotATree(f"duplicate vertex names in {names!r}")
        if len(labels) != n:
            raise NotATree("one label per vertex required")
        for v, lab in zip(names, labels):
            if lab < 0:
                raise NegativeLabel(f"label of {v!r} is {lab} < 0")
        index = {v: i for i, v in enumerate(names)}
        seen = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for edge in edges:
            if isinstance(edge, str):
                raise NotATree(f"an edge must be a pair of vertex names, got {edge!r}")
            u, v = edge
            if u not in index:
                raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
            if v not in index:
                raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
            if u == v:
                raise NotATree(f"self-loop at {u!r}")
            a, b = (index[u], index[v]) if index[u] < index[v] else (index[v], index[u])
            if (a, b) in seen:
                raise NotATree(f"duplicate edge {(names[a], names[b])!r}")
            seen.add((a, b))
            adj[a].append(b)
            adj[b].append(a)
        vars(self).update(edges=tuple([(names[a], names[b]) for a, b in sorted(seen)]), _adj=adj)
        if len(seen) != n - 1:
            raise NotATree(f"{n} vertices need {n - 1} edges, got {len(seen)}")
        # |E| = |V| - 1 plus connectivity rules out cycles
        reached = [True] + [False] * (n - 1)
        frontier = [0]
        while frontier:
            for w in adj[frontier.pop()]:
                if not reached[w]:
                    reached[w] = True
                    frontier.append(w)
        if not all(reached):
            raise NotATree("edge set is not connected")

    @cached_property
    def _label_ranks(self) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        # sorted distinct values (0 at rank 0, and every label) and each vertex's label rank
        values, rank_of = _ranked_values({None: ZERO, **{id(lab): lab for lab in self.labels}})
        return values, tuple([rank_of[id(lab)] for lab in self.labels])

    @cached_property
    def _label_of(self) -> dict[str, Fraction]:
        return dict(zip(self.vertices, self.labels))

    def label_of(self, v: str) -> Fraction:
        try:
            return self._label_of[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    @classmethod
    def of(cls, labeled_vertices: Iterable[tuple[str, object]], edges: Iterable[tuple[str, str]]) -> "LabeledTree":
        pairs = list(labeled_vertices)
        return cls(vertices=[v for v, _ in pairs], edges=edges, labels=[lab for _, lab in pairs])


class LabeledStarGraph(LabeledTree):
    """Star: a tree whose first vertex, the center, meets every edge.

    It has no fields of its own; the center and leaves, and their
    labels, are read off ``vertices`` and ``labels``.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]], labels: Iterable):
        super().__init__(vertices, edges, labels)
        for u, v in self.edges:
            if u != self.vertices[0]:
                raise NotATree(f"edge {u} -- {v} misses the center {self.vertices[0]!r}")

    @property
    def center(self) -> str:
        return self.vertices[0]

    @property
    def leaves(self) -> tuple[str, ...]:
        return self.vertices[1:]

    @property
    def center_label(self) -> Fraction:
        return self.labels[0]

    @property
    def leaf_labels(self) -> tuple[Fraction, ...]:
        return self.labels[1:]

    @classmethod
    def of(cls, center: str, center_label, leaves: Iterable[tuple[str, object]]) -> "LabeledStarGraph":
        pairs = list(leaves)
        return super().of([(center, center_label), *pairs], [(center, v) for v, _ in pairs])


def generating_violation(t: LabeledTree) -> tuple[str, str] | None:
    """First edge (in normalized order) whose endpoint labels are both zero."""
    for u, v in t.edges:
        if t.label_of(u) == 0 and t.label_of(v) == 0:
            return (u, v)
    return None


def is_generating(t: LabeledTree) -> bool:
    """True iff the path-max distance of ``t`` is an ultrametric."""
    return generating_violation(t) is None


def generate_ultrametric(t: LabeledTree) -> FiniteSemimetricSpace:
    """Space on the vertices with d(u,v) = max label along the u-v path.

    A generating tree gives an ultrametric, and the path maxima are its
    rank matrix and hierarchy, so the space starts with ``ranks`` and
    ``hierarchy`` set.  Path maxima compare label ranks, which a star
    from ``build_star`` carries from its space and any other tree ranks
    once.  An edge whose labels are both 0 has rank 0; only then does
    ``generating_violation`` run, to name one.
    """
    values, ranks = t._label_ranks
    edges = [(max(ranks[u], ranks[v]), u, v) for u, adj in enumerate(t._adj) for v in adj if u < v]
    # a path maximum is an edge's rank, so the distances are the edge ranks
    # plus 0, numbered densely: a label on no edge's larger end (such as a
    # leaf label below the center label) is no distance
    used = sorted({e[0] for e in edges})
    if used and not used[0]:
        u, v = generating_violation(t)
        raise NotGenerating(f"edge {u} -- {v} has both endpoint labels zero")
    dense = [0] * len(values)
    for r, k in enumerate(used, 1):
        dense[k] = r
    maxima, chain = _path_maxima(len(ranks), [(dense[k], u, v) for k, u, v in edges])
    spectrum = (ZERO, *[values[k] for k in used])
    return FiniteSemimetricSpace._trusted(points=t.vertices, spectrum=spectrum, ranks=maxima, hierarchy=chain)


def star_distance(s: LabeledStarGraph, u: str, v: str) -> Fraction:
    """Closed-form star distance: max of the center label and both endpoint labels."""
    lu = s.label_of(u)
    lv = s.label_of(v)
    if u == v:
        return ZERO
    if u == s.center or v == s.center:
        return max(lu, lv)
    return max(s.center_label, lu, lv)


def parse_tree_text(text: str) -> LabeledTree:
    """Parse the line format: ``vertex label`` per vertex, ``u -- v`` per edge.

    Blank lines and ``#`` comments are ignored.
    """
    vertices: list[tuple[str, object]] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "--" in line:
            sides = [side.strip() for side in line.split("--")]
            if len(sides) != 2 or not sides[0] or not sides[1]:
                raise TreeFormatError(f"line {lineno}: expected 'u -- v', got {raw!r}")
            edges.append((sides[0], sides[1]))
        else:
            parts = line.split()
            if len(parts) != 2:
                raise TreeFormatError(f"line {lineno}: expected 'vertex label', got {raw!r}")
            vertices.append((parts[0], parts[1]))
    try:
        return LabeledTree.of(vertices, edges)
    except ValueError as exc:
        if isinstance(exc, TreeError):
            raise
        raise TreeFormatError(str(exc)) from exc


def format_tree_text(t: LabeledTree) -> str:
    lines = [f"{v} {lab}" for v, lab in zip(t.vertices, t.labels)]
    lines += [f"{u} -- {v}" for u, v in t.edges]
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(t: LabeledTree) -> str:
    """DOT export with the label value rendered inside each node."""
    lines = ["graph {"]
    for v, lab in zip(t.vertices, t.labels):
        lines.append(f"  {_dot_quote(v)} [label={_dot_quote(f'{v}: {lab}')}];")
    for u, v in t.edges:
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
