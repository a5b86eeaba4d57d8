"""Finite semimetric and ultrametric spaces over exact rational distances.

All objects are immutable and all operations are pure: validation either
returns a new space or raises the first violated axiom, and predicates
return witnesses instead of mutating state.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .rational import rat

ZERO = Fraction(0)
_Chain = tuple[tuple[int, ...], tuple[int, ...]]  # a hierarchy as (order, join): see FiniteSemimetricSpace.hierarchy


class SpaceError(ValueError):
    """Base class for semimetric validation failures."""


class MalformedMatrix(SpaceError):
    """Input is not a square matrix matching the point list."""


class DuplicateName(SpaceError):
    """A point identifier occurs more than once."""


class NonzeroDiagonal(SpaceError):
    """d(x, x) must be 0."""


class AsymmetricMatrix(SpaceError):
    """d(x, y) must equal d(y, x)."""


class NegativeDistance(SpaceError):
    """Distances must be nonnegative."""


class ZeroOffDiagonal(SpaceError):
    """d(x, y) = 0 is only allowed for x = y."""


class EmptySubset(SpaceError):
    """Restriction requires at least one point."""


class UnknownPoint(SpaceError):
    """A point identifier is not part of the space."""


class _Frozen:
    """Immutable value type: equality, hash and ``Name(field=value, ...)`` repr over ``_fields``.

    ``__init__`` stores attributes through ``vars(self)``; assigning or
    deleting one afterwards raises ``FrozenInstanceError``, an
    ``AttributeError``.  Instances compare equal only to instances of
    exactly the same class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        _refuse("assign to", name)

    def __delattr__(self, name: str) -> None:
        _refuse("delete", name)

    @classmethod
    def _trusted(cls, **fields):
        """Instance holding ``fields`` as given, skipping ``__init__``: only for values derived from checked instances."""
        obj = cls.__new__(cls)
        vars(obj).update(fields)
        return obj

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


def _refuse(verb: str, name: str):
    from dataclasses import FrozenInstanceError  # loads inspect and ast: only this error path pays for it

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


def _record_json(record) -> dict:
    """JSON form of a record: each field in ``_fields`` by name.

    A value with ``to_json`` gives its own JSON, a ``Fraction`` its exact
    string, a space its ``space_to_json`` form, and a tuple the list of
    its items, each written by the same rules; anything else is kept.
    """
    return {f: _json_value(getattr(record, f)) for f in record._fields}


def _json_value(v):
    # to_json before tuple: a NamedTuple record is a tuple
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, FiniteSemimetricSpace):
        return space_to_json(v)
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v


class TripleWitness(NamedTuple):
    """An ordered triple breaking the strong triangle inequality.

    ``lhs = d(x, y)`` strictly exceeds ``rhs = max(d(x, z), d(z, y))``.
    """

    x: str
    y: str
    z: str
    lhs: Fraction
    rhs: Fraction

    to_json = _record_json


class FiniteSemimetricSpace(_Frozen):
    """Named points over an exact, symmetric, positive off-diagonal distance matrix.

    A space stores its ``points``, its ``spectrum`` (the sorted distinct
    distance values, starting at 0) and ``ranks`` (each entry's index in
    the spectrum: the diagonal has rank 0, and the off-diagonal ranks
    cover 1..k with no gaps).  The constructor is ``validate_semimetric``:
    same checks, same errors, same space.  Generation, ``reorder`` and the
    probe extension derive points, spectrum and ranks from checked spaces
    and hand them over through ``_trusted``; ``dist``, the matrix of
    ``Fraction`` values, is built from them the first time a caller reads
    it.  Spaces are equal when their points, spectra and ranks are, and
    hash over those three.  Attributes cannot be assigned.
    """

    _fields = ("points", "dist")

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence]) -> None:
        # a str is a sequence of its characters, never of names or cells;
        # one check per row, as space_from_json makes before any other
        if isinstance(points, str):
            raise MalformedMatrix("'points' must be a JSON array, got str")
        if isinstance(dist, str):
            raise MalformedMatrix("'dist' must be a JSON array of rows, got str")
        for i, row in enumerate(dist):
            if isinstance(row, str):
                raise MalformedMatrix(f"row {i} must be a JSON array, got str")
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
        if len(dist) != n:
            raise MalformedMatrix(f"matrix has {len(dist)} rows for {n} points")
        try:
            spectrum, ranks = _rank_matrix(dist, n)
        except (ValueError, TypeError):
            spectrum, ranks = _rank_in_order(dist, n)
        if not _is_semimetric(spectrum, ranks):
            _raise_first_axiom_violation(names, _pick(spectrum, ranks))
        vars(self).update(points=names, spectrum=spectrum, ranks=ranks)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points and self.spectrum == other.spectrum and self.ranks == other.ranks

    def __hash__(self) -> int:
        return hash((self.points, self.spectrum, self.ranks))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        return _pick(self.spectrum, self.ranks)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise UnknownPoint(f"unknown point {point!r}") from None

    def d(self, u: str, v: str) -> Fraction:
        return self.spectrum[self.ranks[self.index(u)][self.index(v)]]

    @cached_property
    def hierarchy(self) -> _Chain | None:
        """The ultrametric's hierarchy as a chain ``(order, join)``, or None if the space is not ultrametric.

        Decided in O(n^2) on ``ranks`` by Prim's algorithm: a space is
        ultrametric iff it equals its subdominant ultrametric, the minimax
        path distance over a minimum spanning tree (Gower & Ross, Applied
        Statistics 18, 1969).  ``order`` lists the points in the order the
        tree reached them and ``join[v]`` is the rank at which v joined
        (0 for the first point).  Read along ``order``, the rank between
        two points is the largest join rank after the first up to the
        second: every cluster is a run of the chain, and a cluster at
        rank k is a maximal run between joins at k or above.
        """
        return _equals_subdominant(self.ranks)

    @cached_property
    def ultrametric_witness(self) -> TripleWitness | None:
        """First triple breaking the strong triangle inequality, or None.

        None exactly when ``hierarchy`` is not; only when that O(n^2)
        check fails does the ordered O(n^3) scan run to pick the witness.
        """
        if self.hierarchy is not None:
            return None
        return _first_violation(self)


def validate_semimetric(points: Sequence[str], rows: Sequence[Sequence]) -> FiniteSemimetricSpace:
    """Check the semimetric axioms and return the validated space: ``FiniteSemimetricSpace(points, rows)``.

    A str where the points, the matrix or a row belongs is refused first,
    as ``space_from_json`` refuses it; then point names are checked, then
    the rows in order, each for its length and then cell by cell, and
    then the axioms; the first violation is raised, which keeps error
    output deterministic for golden tests.
    The ordered scan of rows and cells runs only when ``_rank_matrix``
    fails (or to coerce cells of subclasses of its types), and the
    row-major scan of pairs only when the axioms fail on the ranks.
    """
    return FiniteSemimetricSpace(points, rows)


def _rank_matrix(rows: Sequence[Sequence], n: int) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    """Spectrum and rank matrix of n rows of n cells of exact type str, int or Fraction; else ValueError or TypeError.

    Each distinct cell is coerced once through ``rat`` and every row is
    mapped from cell to rank in one C-level pass.  Strings, as JSON gives
    them, are grouped by value, since a string caches its hash; other
    cells by identity, since a ``Fraction`` hashes slowly and a space's
    matrix holds one object per distinct value.
    """
    if set(map(len, rows)) != {n}:
        raise ValueError
    if type(rows[0][0]) is str:
        cells = set().union(*rows)  # TypeError on an unhashable cell
        if set(map(type, cells)) != {str}:
            raise TypeError
        return _rank_cells(dict(zip(cells, map(rat, cells))), rows)
    flat = list(chain.from_iterable(rows))
    objects = dict(zip(map(id, flat), flat))
    if not set(map(type, objects.values())) <= {str, int, Fraction}:
        raise TypeError
    return _rank_cells(dict(zip(objects, map(rat, objects.values()))), [list(map(id, row)) for row in rows])


def _rank_in_order(rows: Sequence[Sequence], n: int) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    # row by row, each length before its cells, so the first bad row or
    # cell raises; only cells of subclasses of str, int or Fraction pass
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrix(f"row {i} has {len(row)} entries for {n} points")
        try:
            out.append(list(map(rat, row)))
        except (ValueError, TypeError) as exc:
            raise MalformedMatrix(f"row {i}: {exc}") from exc
    return _rank_cells({v: v for v in set().union(*out)}, out)


def _ranked_values(value_of: dict) -> tuple[tuple[Fraction, ...], dict]:
    """Sorted distinct values of a dict of rationals, and the rank of each key's value among them.

    Each value's (numerator, denominator) is read once: it is unique in
    lowest terms and hashes far faster than a Fraction.  The distinct
    values are sorted on the exact key ``((p << 64) // q, value)``: the
    floor of the value times 2**64 orders values more than 2**-64 apart
    with one int comparison; closer values tie on it and fall through to
    the exact ``Fraction`` comparison, a Python-level call.
    """
    pair = {k: (v.numerator, v.denominator) for k, v in value_of.items()}
    distinct = dict(zip(pair.values(), value_of.values()))
    order = sorted([((p << 64) // q, v, (p, q)) for (p, q), v in distinct.items()])
    rank = {pq: r for r, (_, _, pq) in enumerate(order)}
    return tuple([v for _, v, _ in order]), {k: rank[pq] for k, pq in pair.items()}


def _rank_cells(value_of: dict, rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]:
    """Spectrum and rank matrix of a matrix of cells, given each distinct cell's value."""
    spectrum, rank = _ranked_values(value_of)
    return spectrum, _pick(rank, rows)


def _pick(items: Sequence | dict, codes: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Rows of ``items[c]`` for the codes c in each row of a square matrix.

    ``itemgetter`` builds each row at its exact size.  ``tuple(map(...))``
    would start from a guess of 10 and resize, so rows of other short
    lengths pile up on CPython's tuple free lists, which raised the
    ``decide`` benchmark's peak memory by 2 MB.
    """
    if len(codes) == 1:  # one index makes itemgetter return the item itself
        return ((items[codes[0][0]],),)
    return tuple([itemgetter(*row)(items) for row in codes])


def _is_semimetric(spectrum: tuple[Fraction, ...], r: tuple[tuple[int, ...], ...]) -> bool:
    # rank 0 is the smallest value; when that value is 0, the axioms say
    # rank 0 sits exactly on the diagonal and the ranks are symmetric
    return (
        spectrum[0] == 0
        and all(row[i] == 0 and row.count(0) == 1 for i, row in enumerate(r))
        and tuple(zip(*r)) == r
    )


def _raise_first_axiom_violation(names: tuple[str, ...], mat: tuple[tuple[Fraction, ...], ...]) -> None:
    # row-major over pairs i <= j: diagonal, then symmetry, sign and zero
    n = len(names)
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


def _path_maxima(n: int, edges: Iterable[tuple[int, int, int]]) -> tuple[tuple[tuple[int, ...], ...], _Chain]:
    """Largest rank on the path joining each pair, for the ``(rank, u, v)`` edges of a tree on 0..n-1, and their chain.

    Single linkage (Gower & Ross, Applied Statistics 18, 1969): in rank
    order each edge appends the smaller member list of its two components
    to the larger, and its rank goes to every pair across them and is the
    join rank of the smaller list's first member.  The final list and the
    join ranks are the chain ``FiniteSemimetricSpace.hierarchy`` keeps.
    """
    rows = [[0] * n for _ in range(n)]
    members = [[v] for v in range(n)]
    join = [0] * n
    for rank, u, v in sorted(edges):
        big, small = members[u], members[v]
        if len(big) < len(small):
            big, small = small, big
        join[small[0]] = rank
        for x in small:
            row = rows[x]
            for y in big:
                row[y] = rows[y][x] = rank
            members[x] = big
        big.extend(small)
    return tuple([tuple(row) for row in rows]), (tuple(members[0]), tuple(join))


def _equals_subdominant(r: tuple[tuple[int, ...], ...]) -> _Chain | None:
    # Grow a minimum spanning tree from point 0.  When v joins through its
    # nearest tree point p, the minimax path rank from v to every tree
    # point u is max(r[v][p], minimax(p, u)); by induction minimax(p, u)
    # already equals r[p][u], so every pair is checked exactly once.  On
    # success the visit order and each point's join rank are the chain
    # of FiniteSemimetricSpace.hierarchy; on the first mismatch, None.
    n = len(r)
    best = list(r[0])
    parent = [0] * n
    outside = set(range(1, n))
    tree = [0]
    while outside:
        v = min(outside, key=best.__getitem__)
        outside.remove(v)
        w = best[v]
        rv, rp = r[v], r[parent[v]]
        for u in tree:
            if rv[u] != (w if w >= rp[u] else rp[u]):
                return None
        tree.append(v)
        for u in outside:
            if rv[u] < best[u]:
                best[u] = rv[u]
                parent[u] = v
    # a point's best rank is never lowered once it is in the tree
    return tuple(tree), tuple(best)


def _first_violation(s: FiniteSemimetricSpace) -> TripleWitness | None:
    # pairs {x, y} by ascending index (i < j), probe point z by index;
    # z = x or z = y never qualifies since r[i][j] itself bounds the max
    r = s.ranks
    n = len(r)
    for i in range(n):
        ri = r[i]
        for j in range(i + 1, n):
            rij = ri[j]
            rj = r[j]
            for k in range(n):
                if rij > ri[k] and rij > rj[k]:
                    rhs = ri[k] if ri[k] >= rj[k] else rj[k]
                    return TripleWitness(s.points[i], s.points[j], s.points[k], s.spectrum[rij], s.spectrum[rhs])
    return None


def ultrametric_violation(s: FiniteSemimetricSpace) -> TripleWitness | None:
    """First triple with d(x,y) > max(d(x,z), d(z,y)), or None.

    Pairs {x, y} are scanned by ascending index (i < j), probe point z by
    index; the scan order is part of the contract so witnesses are stable.
    The verdict is computed once per space and cached on it.
    """
    return s.ultrametric_witness


def is_ultrametric(s: FiniteSemimetricSpace) -> bool:
    """True iff every triple satisfies the strong triangle inequality: ``s.hierarchy``'s O(n^2) check, with no witness scan."""
    return s.hierarchy is not None


def distance_spectrum(s: FiniteSemimetricSpace) -> tuple[Fraction, ...]:
    """Sorted deduplicated set of distance values; always starts at 0."""
    return s.spectrum


def reorder(s: FiniteSemimetricSpace, order: Iterable[str]) -> FiniteSemimetricSpace:
    """Subspace over ``order``, with points in exactly that order.

    Built on the rank matrix: a permutation keeps the spectrum, and a
    proper subset keeps the values its pairs still use, renumbered.
    """
    names = tuple(order)
    if not names:
        raise EmptySubset("need at least one point")
    if len(set(names)) != len(names):
        raise DuplicateName(f"duplicate point in {names!r}")
    try:
        idx = itemgetter(*names)(s._index)
    except KeyError:
        idx = [s.index(p) for p in names]  # raises UnknownPoint for the first unknown name
    if len(names) == 1:  # itemgetter returned the one index itself
        return FiniteSemimetricSpace._trusted(points=names, spectrum=s.spectrum[:1], ranks=((0,),))
    r = s.ranks
    pick = itemgetter(*idx)
    ranks = tuple([pick(r[a]) for a in idx])
    if len(idx) == len(r):
        return FiniteSemimetricSpace._trusted(points=names, spectrum=s.spectrum, ranks=ranks)
    used = sorted(set().union(*ranks))
    dense = {k: i for i, k in enumerate(used)}
    spectrum = tuple([s.spectrum[k] for k in used])
    return FiniteSemimetricSpace._trusted(points=names, spectrum=spectrum, ranks=_pick(dense, ranks))


def restrict(s: FiniteSemimetricSpace, subset: Iterable[str]) -> FiniteSemimetricSpace:
    """Induced subspace; point order inherited from ``s``."""
    want = list(subset)
    for p in want:
        s.index(p)
    chosen = set(want)
    if not chosen:
        raise EmptySubset("need at least one point")
    return reorder(s, tuple(p for p in s.points if p in chosen))


def space_to_json(s: FiniteSemimetricSpace) -> dict:
    """JSON form with distances as exact rational strings.

    Each spectrum value is formatted once and every row is mapped through
    the rank matrix, so no ``Fraction`` matrix is built.
    """
    text = [str(v) for v in s.spectrum]
    return {"points": list(s.points), "dist": [list(map(text.__getitem__, row)) for row in s.ranks]}


def space_from_json(obj) -> FiniteSemimetricSpace:
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise MalformedMatrix("space JSON needs 'points' and 'dist' keys")
    points, dist = obj["points"], obj["dist"]
    if not isinstance(points, list):
        raise MalformedMatrix(f"'points' must be a JSON array, got {type(points).__name__}")
    if not isinstance(dist, list):
        raise MalformedMatrix(f"'dist' must be a JSON array of rows, got {type(dist).__name__}")
    for i, row in enumerate(dist):
        if not isinstance(row, list):
            raise MalformedMatrix(f"row {i} must be a JSON array, got {type(row).__name__}")
    return validate_semimetric(points, dist)
