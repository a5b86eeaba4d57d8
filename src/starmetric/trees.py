"""Vertex-labeled trees and the path-maximum ultrametric they generate.

A labeled tree generates a distance by taking the largest vertex label on
the unique path joining two vertices (endpoints included).  The result is
an ultrametric exactly when every edge has at least one positively
labeled endpoint; `generating_violation` reports the first edge breaking
that condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

from .rational import rat
from .spaces import FiniteSemimetricSpace, ZERO


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


@dataclass(frozen=True)
class LabeledTree:
    """Tree with a nonnegative rational label on every vertex.

    Edges are normalized at construction (endpoints ordered by vertex
    index, edges sorted) so text and DOT output are stable.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: tuple[Fraction, ...]

    def __post_init__(self):
        names = self.vertices
        if not names:
            raise NotATree("a tree needs at least one vertex")
        if len(set(names)) != len(names):
            raise NotATree(f"duplicate vertex names in {names!r}")
        if len(self.labels) != len(names):
            raise NotATree("one label per vertex required")
        for v, lab in zip(names, self.labels):
            if lab < 0:
                raise NegativeLabel(f"label of {v!r} is {lab} < 0")
        index = {v: i for i, v in enumerate(names)}
        normalized = []
        seen = set()
        for u, v in self.edges:
            if u not in index:
                raise UnknownVertex(f"edge endpoint {u!r} is not a vertex")
            if v not in index:
                raise UnknownVertex(f"edge endpoint {v!r} is not a vertex")
            if u == v:
                raise NotATree(f"self-loop at {u!r}")
            pair = (u, v) if index[u] < index[v] else (v, u)
            if pair in seen:
                raise NotATree(f"duplicate edge {pair!r}")
            seen.add(pair)
            normalized.append(pair)
        normalized.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "edges", tuple(normalized))
        if len(self.edges) != len(names) - 1:
            raise NotATree(f"{len(names)} vertices need {len(names) - 1} edges, got {len(self.edges)}")
        # |E| = |V| - 1 plus connectivity rules out cycles
        reached = {names[0]}
        frontier = [names[0]]
        adj = self.adjacency
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        if len(reached) != len(names):
            raise NotATree("edge set is not connected")

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        nbr: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return {v: tuple(ws) for v, ws in nbr.items()}

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
        return cls(
            vertices=tuple([v for v, _ in pairs]),
            edges=tuple(edges),
            labels=tuple([rat(lab) for _, lab in pairs]),
        )


@dataclass(frozen=True)
class LabeledStarGraph:
    """Star: a center adjacent to every leaf, and no other edges."""

    center: str
    leaves: tuple[str, ...]
    center_label: Fraction
    leaf_labels: tuple[Fraction, ...]

    def __post_init__(self):
        names = (self.center,) + self.leaves
        if len(set(names)) != len(names):
            raise NotATree(f"duplicate vertex names in star {names!r}")
        if len(self.leaf_labels) != len(self.leaves):
            raise NotATree("one label per leaf required")
        if self.center_label < 0:
            raise NegativeLabel(f"label of center {self.center!r} is {self.center_label} < 0")
        for v, lab in zip(self.leaves, self.leaf_labels):
            if lab < 0:
                raise NegativeLabel(f"label of {v!r} is {lab} < 0")

    @property
    def vertices(self) -> tuple[str, ...]:
        return (self.center,) + self.leaves

    def label_of(self, v: str) -> Fraction:
        if v == self.center:
            return self.center_label
        try:
            return self.leaf_labels[self.leaves.index(v)]
        except ValueError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def as_tree(self) -> LabeledTree:
        return LabeledTree(
            vertices=self.vertices,
            edges=tuple([(self.center, leaf) for leaf in self.leaves]),
            labels=(self.center_label,) + self.leaf_labels,
        )

    @classmethod
    def of(cls, center: str, center_label, leaves: Iterable[tuple[str, object]]) -> "LabeledStarGraph":
        pairs = list(leaves)
        return cls(
            center=center,
            leaves=tuple([v for v, _ in pairs]),
            center_label=rat(center_label),
            leaf_labels=tuple([rat(lab) for _, lab in pairs]),
        )


TreeLike = Union[LabeledTree, LabeledStarGraph]


def _as_tree(t: TreeLike) -> LabeledTree:
    return t.as_tree() if isinstance(t, LabeledStarGraph) else t


def generating_violation(t: TreeLike) -> tuple[str, str] | None:
    """First edge (in normalized order) whose endpoint labels are both zero."""
    tree = _as_tree(t)
    for u, v in tree.edges:
        if tree.label_of(u) == 0 and tree.label_of(v) == 0:
            return (u, v)
    return None


def is_generating(t: TreeLike) -> bool:
    """True iff the path-max distance of ``t`` is an ultrametric."""
    return generating_violation(t) is None


def generate_ultrametric(t: TreeLike) -> FiniteSemimetricSpace:
    """Space on the vertices with d(u,v) = max label along the u-v path."""
    tree = _as_tree(t)
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
    # path maxima compare label ranks, so equal labels come out as one object
    values, rank_of = [], {}
    for lab in sorted({id(lab): lab for lab in tree.labels}.values()):
        if not values or lab != values[-1]:
            values.append(lab)
        rank_of[id(lab)] = len(values) - 1
    ranks = [rank_of[id(lab)] for lab in tree.labels]
    rows = [[ZERO] * n for _ in range(n)]
    for src in range(n):
        seen = [False] * n
        seen[src] = True
        stack = [(src, ranks[src])]
        row = rows[src]
        while stack:
            u, running = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    m = running if running >= ranks[w] else ranks[w]
                    row[w] = values[m]
                    stack.append((w, m))
    return FiniteSemimetricSpace(tree.vertices, tuple([tuple(r) for r in rows]))


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


def format_tree_text(t: TreeLike) -> str:
    tree = _as_tree(t)
    lines = [f"{v} {lab}" for v, lab in zip(tree.vertices, tree.labels)]
    lines += [f"{u} -- {v}" for u, v in tree.edges]
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(t: TreeLike) -> str:
    """DOT export with the label value rendered inside each node."""
    tree = _as_tree(t)
    lines = ["graph {"]
    for v, lab in zip(tree.vertices, tree.labels):
        lines.append(f"  {_dot_quote(v)} [label={_dot_quote(f'{v}: {lab}')}];")
    for u, v in tree.edges:
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
