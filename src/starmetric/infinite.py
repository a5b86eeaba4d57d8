"""Symbolic presentations of infinite labeled stars and rays.

Infinite objects are never enumerated: compactness and limit questions
are answered exactly from a small closed algebra of tail laws, and a
finite truncation is the space its first k vertices generate as a tree.
Also houses the max-based ultrametric on nonnegative rationals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .rational import rat
from .spaces import FiniteSemimetricSpace, ZERO, _Frozen, _record_json
from .trees import LabeledStarGraph, LabeledTree, NotGenerating, generate_ultrametric

# Bounds on the work a short presentation can demand.  No tail label past
# index MAX_TAIL_INDEX is skipped or merged into a ray prefix; no geometric
# label may have a numerator or denominator of more than MAX_LABEL_DIGITS
# digits, below Python's 4300-digit string limit (a 1/2-ratio label at
# MAX_TAIL_INDEX has 3,011); truncations are K x K, so K is bounded too.
MAX_TAIL_INDEX = 10_000
MAX_LABEL_DIGITS = 4000
MAX_TRUNCATION = 1024


class InfiniteModelError(ValueError):
    """Base class for symbolic-presentation failures."""


class NotCompact(InfiniteModelError):
    """Operation requires a compact star presentation."""


class FiniteSpec(InfiniteModelError):
    """Operation requires an infinite presentation."""


class NotDecreasingToZero(InfiniteModelError):
    """Ray labels must be non-increasing, positive, with limit zero."""


class NegativeInput(InfiniteModelError):
    """Inputs must be nonnegative rationals."""


class IndexOutOfRange(InfiniteModelError):
    """Index outside the representable range of the presentation."""


class MalformedPresentation(InfiniteModelError):
    """Presentation violates its declared structure."""


class TailLaw:
    """Closed-form law for the labels beyond the explicit part.

    Each law answers membership counts for superlevel sets exactly, which
    is what keeps compactness decidable without sampling.  The algebra is
    deliberately small (harmonic, geometric, constant, none); extend by
    subclassing with the same four members and a ``kind``, the law's JSON
    name; ``tail_from_json`` reads back each rational in ``_fields``.
    """

    kind: str
    finite = False
    # strictly decreasing with limit 0
    decreasing_to_zero = False
    # > 0 when the labels converge to a positive constant
    positive_limit: Optional[Fraction] = None

    def label(self, n: int) -> Fraction:
        raise NotImplementedError

    def count_ge(self, eps: Fraction) -> Optional[int]:
        """How many indices n >= 1 have label(n) >= eps; None means infinitely many."""
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, **_record_json(self)}


class HarmonicTail(TailLaw, _Frozen):
    """label(n) = c / n."""

    kind = "harmonic"
    _fields = ("c",)
    decreasing_to_zero = True

    def __init__(self, c: Fraction):
        vars(self)["c"] = c = rat(c)
        if c <= 0:
            raise MalformedPresentation(f"harmonic coefficient must be positive, got {c}")

    def label(self, n: int) -> Fraction:
        return self.c / n

    def count_ge(self, eps: Fraction) -> Optional[int]:
        if eps <= 0:
            return None
        return math.floor(self.c / eps)


class GeometricTail(TailLaw, _Frozen):
    """label(n) = a * r**n with 0 < r < 1."""

    kind = "geometric"
    _fields = ("a", "r")
    decreasing_to_zero = True

    def __init__(self, a: Fraction, r: Fraction):
        a, r = rat(a), rat(r)
        vars(self).update(a=a, r=r)
        if a <= 0:
            raise MalformedPresentation(f"geometric scale must be positive, got {a}")
        if not (0 < r < 1):
            raise MalformedPresentation(f"geometric ratio must satisfy 0 < r < 1, got {r}")

    def label(self, n: int) -> Fraction:
        self._check_size(n)
        return self.a * self.r**n

    def count_ge(self, eps: Fraction) -> Optional[int]:
        """Exact up to ``MAX_TAIL_INDEX``; a larger count is given as ``MAX_TAIL_INDEX + 1``.

        Each step multiplies one ``Fraction``, so a ratio near 1 and a
        small ``eps`` would take millions of steps; the only use compares
        the count with ``MAX_TAIL_INDEX``.  A label too large to build
        raises ``IndexOutOfRange`` before it is multiplied out.
        """
        if eps <= 0:
            return None
        self._check_size(1)
        count = 0
        value = self.a * self.r
        while value >= eps and count <= MAX_TAIL_INDEX:
            count += 1
            self._check_size(count + 1)
            value *= self.r
        return count

    def _check_size(self, n: int) -> None:
        # With y = 2**e * f, 1 <= f < 2: log2(f) <= (f - 1) / ln 2 < 1.443 (f - 1),
        # which bounds the bits of x * y**n; b bits make at most b log10(2) + 1 digits.
        for x, y in ((self.a.numerator, self.r.numerator), (self.a.denominator, self.r.denominator)):
            e = y.bit_length() - 1
            bits = x.bit_length() + n * e + n * (y - (1 << e)) * 1443 // (1000 << e) + 1
            if bits * 30103 // 100_000 >= MAX_LABEL_DIGITS:
                raise IndexOutOfRange(f"geometric label {n} would pass {MAX_LABEL_DIGITS} digits")


class ConstantTail(TailLaw, _Frozen):
    """label(n) = q for every n."""

    kind = "constant"
    _fields = ("q",)

    def __init__(self, q: Fraction):
        vars(self)["q"] = q = rat(q)
        if q < 0:
            raise NegativeInput(f"constant label must be nonnegative, got {q}")
        vars(self)["positive_limit"] = q

    def label(self, n: int) -> Fraction:
        return self.q

    def count_ge(self, eps: Fraction) -> Optional[int]:
        if eps <= 0:
            return None
        return 0 if self.q < eps else None


class FiniteTail(TailLaw, _Frozen):
    """No labels beyond the explicit part."""

    kind = "finite"
    finite = True

    def label(self, n: int) -> Fraction:
        raise IndexOutOfRange(f"finite presentation has no tail label {n}")

    def count_ge(self, eps: Fraction) -> Optional[int]:
        return 0


def _json_rat(obj: dict, key: str, where: str) -> Fraction:
    if key not in obj:
        raise MalformedPresentation(f"{where} JSON is missing the {key!r} key")
    try:
        return rat(obj[key])
    except TypeError as exc:
        raise MalformedPresentation(f"{key!r}: {exc}") from exc


def _json_rats(obj: dict, key: str) -> tuple[Fraction, ...]:
    values = obj.get(key, [])
    if not isinstance(values, list):
        raise MalformedPresentation(f"{key!r} must be a JSON array, got {type(values).__name__}")
    try:
        return tuple([rat(x) for x in values])
    except TypeError as exc:
        raise MalformedPresentation(f"{key!r}: {exc}") from exc


def tail_from_json(obj) -> TailLaw:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedPresentation("tail JSON needs a 'kind' key")
    kind = obj["kind"]
    # compared with ==, never looked up: a JSON kind may be unhashable
    for law in (HarmonicTail, GeometricTail, ConstantTail, FiniteTail):
        if kind == law.kind:
            return law(*[_json_rat(obj, f, f"{kind} tail") for f in law._fields])
    raise MalformedPresentation(f"unknown tail kind {kind!r}")


def _presentation_json(spec) -> dict:
    # the JSON name of ``tail_skip`` is ``skip``, left out when 0
    obj = _record_json(spec)
    skip = obj.pop("tail_skip")
    if skip:
        obj["skip"] = skip
    return obj


def _check_tail(tail) -> None:
    if not isinstance(tail, TailLaw):
        raise MalformedPresentation(f"'tail' must be a tail law, got {tail!r}")


def _check_skip(skip) -> None:
    if isinstance(skip, bool) or not isinstance(skip, int):
        raise MalformedPresentation(f"'skip' must be a JSON integer, got {skip!r}")
    if skip < 0:
        raise MalformedPresentation(f"'skip' must be nonnegative, got {skip}")
    if skip > MAX_TAIL_INDEX:
        raise IndexOutOfRange(f"'skip' {skip} exceeds {MAX_TAIL_INDEX}")


def _check_decreasing(decreasing) -> None:
    if not isinstance(decreasing, bool):
        raise MalformedPresentation(f"'decreasing' must be a JSON boolean, got {decreasing!r}")


class StarSpec(_Frozen):
    """Labeled star presented as center label + exceptional leaf labels + tail law.

    ``tail_skip`` consumes the first indices of the tail law, which keeps
    harmonic tails representable after part of the stream has been merged
    into the explicit prefix elsewhere.  The constructor makes every check,
    ``tail_skip``'s with the messages ``from_json`` gives for ``skip``.
    """

    _fields = ("center_label", "exceptional", "tail", "tail_skip")

    def __init__(self, center_label: Fraction, exceptional: tuple[Fraction, ...] = (), tail: TailLaw = FiniteTail(),
                 tail_skip: int = 0):
        center_label, exceptional = rat(center_label), tuple(rat(x) for x in exceptional)
        _check_tail(tail)
        _check_skip(tail_skip)
        vars(self).update(center_label=center_label, exceptional=exceptional, tail=tail, tail_skip=tail_skip)
        if center_label < 0:
            raise NegativeInput(f"center label {center_label} < 0")
        if any(x < 0 for x in exceptional):
            raise NegativeInput("leaf labels must be nonnegative")
        if center_label == 0:
            # every center-leaf edge needs a positively labeled endpoint
            if any(x == 0 for x in exceptional):
                raise NotGenerating("center and some exceptional leaf are both labeled zero")
            limit = tail.positive_limit
            if not tail.finite and not tail.decreasing_to_zero and (limit is None or limit == 0):
                raise NotGenerating("center label zero with zero tail labels")

    @property
    def finite(self) -> bool:
        return self.tail.finite

    def leaf_labels(self, limit: Optional[int] = None) -> Iterator[Fraction]:
        """Leaf labels in presentation order: exceptional first, then the tail."""
        tail = () if self.tail.finite else map(self.tail.label, itertools.count(self.tail_skip + 1))
        return itertools.islice(itertools.chain(self.exceptional, tail), limit)

    to_json = _presentation_json

    @classmethod
    def from_json(cls, obj) -> "StarSpec":
        if not isinstance(obj, dict) or "center_label" not in obj or "tail" not in obj:
            raise MalformedPresentation("star JSON needs 'center_label' and 'tail' keys")
        return cls(
            center_label=_json_rat(obj, "center_label", "star"),
            exceptional=_json_rats(obj, "exceptional"),
            tail=tail_from_json(obj["tail"]),
            tail_skip=obj.get("skip", 0),
        )


class CompactnessReport(NamedTuple):
    """Outcome of the compactness decision with the failing reason, if any."""

    compact: bool
    reason: str
    epsilon: Optional[Fraction] = None

    def to_json(self) -> dict:
        obj = _record_json(self)
        if self.epsilon is None:
            del obj["epsilon"]
        return obj


def is_compact_star(spec: StarSpec) -> CompactnessReport:
    """Decide compactness of the generated space exactly from the presentation.

    Finite presentations are compact outright.  An infinite star generates
    a compact space iff the center label is zero and every superlevel set
    of labels is finite, which only the decreasing-to-zero tails satisfy.
    """
    if spec.finite:
        return CompactnessReport(True, "finite")
    if spec.center_label > 0:
        return CompactnessReport(False, "CenterLabelPositive")
    limit = spec.tail.positive_limit
    if limit is not None and limit > 0:
        # infinitely many labels >= limit
        return CompactnessReport(False, "InfiniteA_eps", epsilon=limit)
    return CompactnessReport(True, "compact")


class RaySpec(_Frozen):
    """One-way infinite path labels: explicit prefix plus tail law.

    With the ``decreasing`` flag the presentation is validated to be
    non-increasing and positive, which unlocks the closed-form distance
    label(min(m, n)).  Non-monotone presentations stay legal; distances
    then fall back to the path maximum over the index range.  The
    constructor makes every check, ``decreasing``'s and ``tail_skip``'s
    as ``from_json`` does.
    """

    _fields = ("prefix", "tail", "tail_skip", "decreasing")

    def __init__(self, prefix: tuple[Fraction, ...] = (), tail: TailLaw = FiniteTail(), tail_skip: int = 0,
                 decreasing: bool = False):
        _check_decreasing(decreasing)
        prefix = tuple(rat(x) for x in prefix)
        _check_tail(tail)
        _check_skip(tail_skip)
        vars(self).update(prefix=prefix, tail=tail, tail_skip=tail_skip, decreasing=decreasing)
        if any(x < 0 for x in prefix):
            raise NegativeInput("ray labels must be nonnegative")
        if decreasing:
            if any(x <= 0 for x in prefix):
                raise MalformedPresentation("a decreasing ray needs strictly positive labels")
            for a, b in zip(prefix, prefix[1:]):
                if a < b:
                    raise MalformedPresentation(f"prefix not non-increasing: {a} < {b}")
            if not tail.finite:
                first = tail.label(tail_skip + 1)
                if first <= 0:
                    raise MalformedPresentation("a decreasing ray needs strictly positive labels")
                if prefix and prefix[-1] < first:
                    raise MalformedPresentation(f"prefix/tail junction not non-increasing: {prefix[-1]} < {first}")

    @property
    def finite(self) -> bool:
        return self.tail.finite

    @property
    def decreasing_to_zero(self) -> bool:
        return self.decreasing and not self.finite and self.tail.decreasing_to_zero

    def label(self, n: int) -> Fraction:
        if n < 1:
            raise IndexOutOfRange(f"ray indices start at 1, got {n}")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.finite:
            raise IndexOutOfRange(f"index {n} beyond the {len(self.prefix)} explicit labels")
        return self.tail.label(n - len(self.prefix) + self.tail_skip)

    def labels(self, limit: int) -> Iterator[Fraction]:
        for n in range(1, limit + 1):
            yield self.label(n)

    to_json = _presentation_json

    @classmethod
    def from_json(cls, obj) -> "RaySpec":
        if not isinstance(obj, dict) or "tail" not in obj:
            raise MalformedPresentation("ray JSON needs a 'tail' key")
        decreasing = obj.get("decreasing", False)
        _check_decreasing(decreasing)  # before the other fields, so its fault is the one a file reports
        return cls(
            prefix=_json_rats(obj, "prefix"),
            tail=tail_from_json(obj["tail"]),
            tail_skip=obj.get("skip", 0),
            decreasing=decreasing,
        )


def ray_distance(r: RaySpec, m: int, n: int) -> Fraction:
    """d(x_m, x_n): the largest label on the path from x_m to x_n.

    Every tail law is non-increasing, so past the explicit labels the
    path's first tail label is its largest; on a decreasing ray the
    result is label(min(m, n)).
    """
    if m == n:
        r.label(m)  # still bounds-checked
        return ZERO
    lo, hi = (m, n) if m < n else (n, m)
    r.label(hi)  # bounds-checked first: past a finite ray, or a label too large to build
    candidates = [r.label(lo), *r.prefix[lo:hi]]
    first_tail = max(lo, len(r.prefix) + 1)
    if first_tail <= hi:
        candidates.append(r.label(first_tail))
    return max(candidates)


def star_to_ray(spec: StarSpec) -> RaySpec:
    """Sort the leaves of a compact infinite star into a decreasing ray.

    Exceptional labels are merged into the decreasing tail stream; on ties
    the exceptional label comes first, so the round trip through the
    completion is reproducible.  The merge never passes tail index
    ``MAX_TAIL_INDEX``; ``count_ge`` checks that before any label is built.
    """
    if spec.finite:
        raise FiniteSpec("the presentation is finite; no ray arises")
    report = is_compact_star(spec)
    if not report.compact:
        raise NotCompact(f"not compact: {report.reason}")
    if spec.exceptional:
        reach = spec.tail.count_ge(min(spec.exceptional))
        if reach > MAX_TAIL_INDEX:
            raise IndexOutOfRange(f"merging the exceptional labels reaches tail index {reach}, past {MAX_TAIL_INDEX}")
    prefix: list[Fraction] = []
    next_tail = spec.tail_skip + 1
    for e in sorted(spec.exceptional, reverse=True):
        while spec.tail.label(next_tail) > e:
            prefix.append(spec.tail.label(next_tail))
            next_tail += 1
        prefix.append(e)
    return RaySpec(
        prefix=tuple(prefix),
        tail=spec.tail,
        tail_skip=next_tail - 1,
        decreasing=True,
    )


def ray_truncation_tree(r: RaySpec, k: int) -> LabeledTree:
    """First k ray vertices as an explicit labeled path."""
    if k < 1:
        raise IndexOutOfRange("truncation needs at least one point")
    names = [f"x{i}" for i in range(1, k + 1)]
    return LabeledTree.of(zip(names, r.labels(k)), zip(names, names[1:]))


def ray_truncation_space(r: RaySpec, k: int) -> FiniteSemimetricSpace:
    """Space generated by the first k ray vertices, k up to ``MAX_TRUNCATION``.

    Raises ``NotGenerating`` when two adjacent labels are zero.
    """
    if k > MAX_TRUNCATION:
        raise IndexOutOfRange(f"truncation of {k} points exceeds {MAX_TRUNCATION}")
    return generate_ultrametric(ray_truncation_tree(r, k))


class CompletionModel(NamedTuple):
    """Completion of a decreasing-to-zero ray: one added point closes the space.

    The added point sits at distance label(n) from vertex n, i.e. it is
    the center of a compact star over the ray vertices.
    """

    added_point: str
    star: StarSpec
    ray: RaySpec

    def distance(self, m: int, n: int) -> Fraction:
        """Distance over indices; index 0 names the added point."""
        if m < 0 or n < 0:
            raise IndexOutOfRange("indices start at 0 for the added point")
        if m == n:
            return ZERO
        if m == 0:
            return self.ray.label(n)
        if n == 0:
            return self.ray.label(m)
        return ray_distance(self.ray, m, n)

    def truncation_space(self, k: int) -> FiniteSemimetricSpace:
        """Added point plus the first k ray vertices, k up to ``MAX_TRUNCATION``: the space of their star.

        The star has the added point as its center, labeled 0, and leaves
        ``x1..xk`` labeled ``ray.labels(k)``.  The ray is decreasing, as
        ``ray_to_completion`` makes it, so the star's distances are the
        completion's, and the space is born with its chain.
        """
        if k > MAX_TRUNCATION:
            raise IndexOutOfRange(f"truncation of {k} points exceeds {MAX_TRUNCATION}")
        if k < 0:
            raise IndexOutOfRange(f"truncation of {k} points is below 0")
        leaves = [(f"x{i}", label) for i, label in enumerate(self.ray.labels(k), 1)]
        return generate_ultrametric(LabeledStarGraph.of(self.added_point, ZERO, leaves))

    to_json = _record_json


def ray_to_completion(r: RaySpec) -> CompletionModel:
    """Complete a decreasing-to-zero ray by adjoining its limit point.

    The result is the compact star with center ``x0`` labeled 0 and the
    ray labels as leaf labels.
    """
    if not r.decreasing_to_zero:
        raise NotDecreasingToZero(
            "ray must be flagged decreasing with an infinite tail of limit zero"
        )
    star = StarSpec(
        center_label=ZERO,
        exceptional=r.prefix,
        tail=r.tail,
        tail_skip=r.tail_skip,
    )
    return CompletionModel(added_point="x0", star=star, ray=r)


def dplus(p, q) -> Fraction:
    """Max-based ultrametric on nonnegative rationals: 0 when equal, else max."""
    p = rat(p)
    q = rat(q)
    if p < 0 or q < 0:
        raise NegativeInput(f"dplus needs nonnegative inputs, got {p}, {q}")
    return ZERO if p == q else max(p, q)


def dplus_space(values) -> FiniteSemimetricSpace:
    """Finite sample of nonnegative rationals as a space under dplus."""
    vals = [rat(v) for v in values]
    if len(set(vals)) != len(vals):
        raise MalformedPresentation("sample values must be distinct")
    names = tuple(str(v) for v in vals)
    rows = tuple(tuple(dplus(a, b) for b in vals) for a in vals)
    return FiniteSemimetricSpace(names, rows)


class CompactSubsetReport(NamedTuple):
    """Compactness verdict for a presented subset of the dplus line."""

    compact: bool
    finite: bool
    reason: str
    witness: tuple[Fraction, ...] = ()

    def to_json(self) -> dict:
        obj = _record_json(self)
        if not self.witness:
            del obj["witness"]
        return obj


def dplus_compact_subset(explicit, tail: TailLaw = FiniteTail(), include_zero: bool = False) -> CompactSubsetReport:
    """Decide compactness of {t_1 > t_2 > ...} (optionally with 0) under dplus.

    Finite sets are compact and flagged as such.  An infinite presentation
    is compact iff it strictly decreases to zero and zero itself belongs
    to the set; otherwise the emitted witness is a truncation of a
    sequence with no convergent subsequence inside the set.
    """
    values = tuple(rat(x) for x in explicit)
    for x in values:
        if x <= 0:
            raise MalformedPresentation(f"explicit values must be positive, got {x}")
    for a, b in zip(values, values[1:]):
        if a <= b:
            raise MalformedPresentation(f"explicit values must strictly decrease: {a} before {b}")
    if tail.finite:
        return CompactSubsetReport(True, True, "finite sets are compact")
    witness = values[:4] + tuple(tail.label(n) for n in range(1, 5))
    if not tail.decreasing_to_zero:
        return CompactSubsetReport(
            False, False, "tail labels do not strictly decrease to 0", witness
        )
    if values and values[-1] <= tail.label(1):
        return CompactSubsetReport(
            False, False, "presentation not strictly decreasing at the prefix/tail junction", witness
        )
    if not include_zero:
        return CompactSubsetReport(
            False,
            False,
            "0 is the only possible limit point and it is missing from the set",
            witness,
        )
    return CompactSubsetReport(True, False, "strictly decreasing to 0 with 0 included")
