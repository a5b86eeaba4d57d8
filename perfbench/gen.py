"""Seeded input generators for the benchmark workloads.

These are the benchmark's own copies of the shapes the test suite uses
(random star, merge-process ultrametric, random semimetric, permuted and
monotone-transformed copies).  They never call into ``starmetric``: each
item carries its JSON text for the program plus the benchmark's own
expectations (exact matrix, integer rank matrix, known verdicts), so the
answers can be checked without trusting the code under test.

Sizes and verdict mix follow a fixed slot schedule.  The shape of each
slot (its order type and point order) comes from a generator keyed by
the slot, and the seed draws the distance values.  That keeps
the cost profile of a corpus the same from seed to seed, which is what
makes run-to-run spreads small.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

ZERO = Fraction(0)


@dataclass
class Space:
    """A generated finite space with its exact and rank matrices."""

    points: list[str]
    dist: list[list[Fraction]]
    ranks: list[list[int]] = field(init=False)
    spectrum: tuple[Fraction, ...] = field(init=False)
    text: str = field(init=False)

    def __post_init__(self):
        # keyed by the exact decimal strings: str hashes are cached, Fraction hashes are not
        cells = [[str(v) for v in row] for row in self.dist]
        values = {c: v for row, crow in zip(self.dist, cells) for v, c in zip(row, crow)}
        order = sorted(values, key=values.__getitem__)
        pos = {c: r for r, c in enumerate(order)}
        self._finish(tuple(values[c] for c in order), [[pos[c] for c in row] for row in cells], cells)

    def _finish(self, spectrum, ranks, cells) -> None:
        self.spectrum = spectrum
        self.ranks = ranks
        self.text = json.dumps({"points": self.points, "dist": cells}, separators=(",", ":"))

    @classmethod
    def from_ranks(cls, points: list[str], ranks: list[list[int]], spectrum) -> "Space":
        """Space with d = spectrum[rank]; spectrum is strictly increasing from 0."""
        self = cls.__new__(cls)
        self.points = points
        self.dist = [[spectrum[r] for r in row] for row in ranks]
        strs = [str(v) for v in spectrum]
        self._finish(tuple(spectrum), ranks, [[strs[r] for r in row] for row in ranks])
        return self


# ---------------------------------------------------------------- oracles


def ultrametric_ranks(r: list[list[int]]) -> bool:
    """Strong triangle inequality on a rank matrix (ranks preserve order)."""
    n = len(r)
    for i in range(n):
        ri = r[i]
        for j in range(i + 1, n):
            rij = ri[j]
            rj = r[j]
            for k in range(n):
                if k != i and k != j and rij > max(ri[k], rj[k]):
                    return False
    return True


def centers_ranks(r: list[list[int]]) -> list[int]:
    """Indices satisfying the center criterion, in input order."""
    n = len(r)
    if n == 1:
        return [0]
    mins = [min(r[i][j] for j in range(n) if j != i) for i in range(n)]
    return [i for i in range(n) if all(r[i][j] == mins[j] for j in range(n) if j != i)]


def row_profiles(r: list[list[int]]) -> list[tuple[int, ...]]:
    """Sorted multiset of sorted rank rows: equal for weakly similar spaces."""
    return sorted(tuple(sorted(row)) for row in r)


# ------------------------------------------------------------ generators


def rand_pos_frac(rng: Random, top: int = 12) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def _shuffled(rng: Random, points: list[str], dist: list[list[Fraction]]) -> Space:
    order = list(range(len(points)))
    rng.shuffle(order)
    return Space([points[a] for a in order], [[dist[a][b] for b in order] for a in order])


def star_space(rng: Random, n: int, leaf_centers: int) -> Space:
    """Space generated by a labeled star on n vertices, points shuffled.

    ``leaf_centers == 0`` is the zero-center shape (center label 0, positive
    leaves); otherwise the center label is positive and exactly
    ``leaf_centers`` leaves are labeled at or below it, which makes those
    leaves centers too.
    """
    names = ["c"] + [f"u{i}" for i in range(1, n)]
    if leaf_centers == 0:
        lc = ZERO
        labels = [rand_pos_frac(rng) for _ in range(n - 1)]
    else:
        lc = rand_pos_frac(rng)
        low = [lc * Fraction(rng.randint(0, 4), 4) for _ in range(leaf_centers)]
        high = [lc + rand_pos_frac(rng) for _ in range(n - 1 - leaf_centers)]
        labels = low + high
        rng.shuffle(labels)
    lab = [lc] + labels
    dist = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = max(lab[i], lab[j]) if i == 0 else max(lc, lab[i], lab[j])
            dist[i][j] = dist[j][i] = v
    return _shuffled(rng, names, dist)


def merge_ultrametric(rng: Random, n: int) -> Space:
    """Random merge process: repeatedly fuse k random blocks at a growing level."""
    names = [f"p{i + 1}" for i in range(n)]
    ranks = [[0] * n for _ in range(n)]
    blocks = [[i] for i in range(n)]
    levels = [ZERO]
    while len(blocks) > 1:
        levels.append(levels[-1] + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        k = rng.randint(2, len(blocks))
        rng.shuffle(blocks)
        merged, rest = blocks[:k], blocks[k:]
        for gi in range(len(merged)):
            for gj in range(gi + 1, len(merged)):
                for a in merged[gi]:
                    for b in merged[gj]:
                        ranks[a][b] = ranks[b][a] = len(levels) - 1
        blocks = [[v for g in merged for v in g]] + rest
    return Space.from_ranks(names, ranks, levels)


def random_semimetric(rng: Random, n: int) -> Space:
    names = [f"p{i + 1}" for i in range(n)]
    dist = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rand_pos_frac(rng, 6)
    return Space(names, dist)


def family_space(rng: Random, family: str, n: int) -> Space:
    if family == "star":
        return star_space(rng, n, leaf_centers=rng.randint(0, 2))
    if family == "merge":
        return merge_ultrametric(rng, n)
    return random_semimetric(rng, n)


def permuted_copy(rng: Random, s: Space, rename: str = "q") -> Space:
    order = list(range(len(s.points)))
    rng.shuffle(order)
    names = [f"{rename}{i + 1}" for i in range(len(order))]
    return Space.from_ranks(names, [[s.ranks[a][b] for b in order] for a in order], s.spectrum)


def monotone_transform(rng: Random, s: Space) -> Space:
    """Apply a random strictly increasing map to the distance values."""
    new_values = [ZERO]
    for _ in s.spectrum[1:]:
        new_values.append(new_values[-1] + rand_pos_frac(rng, 6))
    return Space.from_ranks(list(s.points), s.ranks, new_values)


# ------------------------------------------------------------ workloads

# decide: (family, n, leaf centers); 10 stars, 7 merge-process ultrametrics,
# 5 random semimetrics and 3 symbolic star presentations (ray truncations).
DECIDE_SLOTS = (
    ("star", 8, 1), ("star", 10, 0), ("star", 12, 2), ("star", 16, 0), ("star", 20, 1),
    ("star", 24, 3), ("star", 32, 0), ("star", 40, 1), ("star", 48, 2), ("star", 64, 1),
    ("merge", 8, 0), ("merge", 16, 0), ("merge", 24, 0), ("merge", 32, 0),
    ("merge", 40, 0), ("merge", 48, 0), ("merge", 64, 0),
    ("semi", 8, 0), ("semi", 16, 0), ("semi", 32, 0), ("semi", 48, 0), ("semi", 64, 0),
    ("ray", 16, 0), ("ray", 32, 0), ("ray", 48, 0),
)

# similar: (family, n, partner); canonical forms are computed for n <= 10,
# the large-n slice runs weak similarity alone.
SIMILAR_SLOTS = (
    ("star", 6, "mono"), ("star", 7, "iso"), ("star", 8, "dis"), ("star", 9, "mono"),
    ("star", 10, "mono"), ("star", 10, "iso"), ("star", 9, "dis"), ("star", 8, "mono"),
    ("merge", 6, "mono"), ("merge", 8, "iso"), ("merge", 10, "dis"),
    ("merge", 12, "mono"), ("merge", 14, "dis"), ("merge", 16, "mono"),
    ("semi", 5, "mono"), ("semi", 6, "iso"), ("semi", 7, "dis"), ("semi", 8, "mono"),
    ("semi", 9, "mono"), ("semi", 9, "dis"),
    ("merge", 32, "slice"), ("star", 48, "slice"), ("semi", 64, "slice"),
    ("star", 128, "slice"), ("merge", 256, "slice"),
)

CANONICAL_MAX_N = 10


@dataclass
class DecideItem:
    family: str
    text: str
    space: Space  # for ray items, the expected truncation
    ultrametric: bool
    star_generated: bool
    k: int = 0  # truncation length for ray items
    centers: list[str] = field(init=False)
    rowmin: list[Fraction] = field(init=False)

    def __post_init__(self):
        s = self.space
        n = len(s.points)
        self.centers = [s.points[i] for i in centers_ranks(s.ranks)] if self.ultrametric else []
        self.rowmin = [min(s.dist[i][j] for j in range(n) if j != i) if n > 1 else ZERO for i in range(n)]


@dataclass
class SimilarItem:
    family: str
    texts: tuple[str, str]
    a: Space
    b: Space
    similar: bool
    isometric: bool
    canonical: bool
    weaksim_only: bool


def _ray_item(shape: Random, values: Random, k: int) -> DecideItem:
    """Compact star presentation (center label 0, tail decreasing to 0).

    The tail law is part of the shape, as its denominators set the cost
    of the exact arithmetic; the seed draws the exceptional labels.
    """
    if shape.random() < 0.5:
        c = rand_pos_frac(shape)
        tail = {"kind": "harmonic", "c": str(c)}
        law = lambda m: c / m  # noqa: E731
    else:
        a = rand_pos_frac(shape)
        r = Fraction(shape.randint(1, 5), shape.randint(6, 9))
        tail = {"kind": "geometric", "a": str(a), "r": str(r)}
        law = lambda m: a * r**m  # noqa: E731
    exceptional = sorted((rand_pos_frac(values, 6) for _ in range(shape.randint(1, 4))), reverse=True)
    spec = {"center_label": "0", "exceptional": [str(x) for x in exceptional], "tail": tail}
    # Expected ray: exceptional labels merged into the decreasing tail stream.
    labels: list[Fraction] = []
    m = 1
    queue = list(exceptional)
    while len(labels) < k:
        t = law(m)
        if queue and queue[0] >= t:
            labels.append(queue.pop(0))
        else:
            labels.append(t)
            m += 1
    names = [f"x{i}" for i in range(1, k + 1)]
    dist = [[ZERO if i == j else labels[min(i, j)] for j in range(k)] for i in range(k)]
    text = json.dumps(spec, separators=(",", ":"))
    return DecideItem("ray", text, Space(names, dist), True, True, k=k)


def decide_corpus(seed: int, cycles: int) -> list[DecideItem]:
    """Spaces whose shapes are fixed per slot and whose values come from the seed.

    As in ``similar_corpus``: the order type and point order of each
    slot come from a generator keyed by the slot, and the seed draws
    the distance values through a strictly increasing map (random
    semimetrics and ray presentations draw their values from the seed
    directly).  Verdicts, centers and witness positions depend only on
    the shape, so every seed gives the same cost profile.
    """
    values = Random(f"decide-{seed}")
    items: list[DecideItem] = []
    for _ in range(cycles):
        cycle: list[DecideItem] = []
        for slot, (family, n, lc) in enumerate(DECIDE_SLOTS):
            shape = Random(f"decide-shape-{slot}")
            if family == "star":
                s = monotone_transform(values, star_space(shape, n, lc))
                cycle.append(DecideItem(family, s.text, s, True, True))
            elif family == "merge":
                while True:  # keep obstructed draws: the mostly-obstructed shape
                    s = merge_ultrametric(shape, n)
                    if not centers_ranks(s.ranks):
                        break
                s = monotone_transform(values, s)
                cycle.append(DecideItem(family, s.text, s, True, False))
            elif family == "semi":
                while True:
                    s = random_semimetric(values, n)
                    if not ultrametric_ranks(s.ranks):
                        break
                cycle.append(DecideItem(family, s.text, s, False, False))
            else:
                cycle.append(_ray_item(shape, values, n))
        Random("decide-order").shuffle(cycle)
        items += cycle
    return items


def _partner(shape: Random, values: Random, family: str, s: Space, kind: str) -> tuple[Space, bool, bool]:
    """Second space of a pair plus (similar, isometric) by construction."""
    if kind == "dis":
        prof = row_profiles(s.ranks)
        while True:  # certified: the row-profile invariant differs
            t = family_space(shape, family, len(s.points))
            if row_profiles(t.ranks) != prof:
                return monotone_transform(values, permuted_copy(shape, t)), False, False
    t = permuted_copy(shape, s)
    if kind == "iso":
        return t, True, True
    t = monotone_transform(values, t)
    return t, True, t.spectrum == s.spectrum


def similar_corpus(seed: int, cycles: int) -> list[SimilarItem]:
    """Pairs whose shapes are fixed per slot and whose values come from the seed.

    Canonical-form and bijection search costs depend on the rank matrix
    and the point order, and swing tenfold between draws of the same
    size.  So the shape (rank matrix, point order, partner permutation)
    is drawn from a generator keyed by the slot, the same for every
    cycle and seed, and the seed draws the distance values through
    strictly increasing maps.  Every cycle and seed gives different
    inputs with the same cost profile.
    """
    values = Random(f"similar-{seed}")
    items: list[SimilarItem] = []
    for _ in range(cycles):
        cycle: list[SimilarItem] = []
        for slot, (family, n, kind) in enumerate(SIMILAR_SLOTS):
            shape = Random(f"similar-shape-{slot}")
            s = monotone_transform(values, family_space(shape, family, n))
            weaksim_only = kind == "slice"
            if weaksim_only:
                kind = "mono" if shape.random() < 0.5 else "dis"
            t, similar, iso = _partner(shape, values, family, s, kind)
            cycle.append(
                SimilarItem(
                    family=family,
                    texts=(s.text, t.text),
                    a=s,
                    b=t,
                    similar=similar,
                    isometric=iso,
                    canonical=not weaksim_only and n <= CANONICAL_MAX_N,
                    weaksim_only=weaksim_only,
                )
            )
        Random("similar-order").shuffle(cycle)
        items += cycle
    return items


def corpus_digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()
