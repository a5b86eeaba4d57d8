"""Tail laws, compactness, star/ray duality, completions, the dplus line."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmetric import (
    ConstantTail,
    FiniteSpec,
    FiniteTail,
    GeometricTail,
    HarmonicTail,
    IndexOutOfRange,
    InfiniteModelError,
    LabeledStarGraph,
    MalformedPresentation,
    NegativeInput,
    NotCompact,
    NotDecreasingToZero,
    NotGenerating,
    RaySpec,
    StarSpec,
    dplus,
    dplus_compact_subset,
    dplus_space,
    find_centers,
    generate_ultrametric,
    is_compact_star,
    is_ultrametric,
    is_us,
    ray_distance,
    ray_to_completion,
    ray_truncation_space,
    ray_truncation_tree,
    restrict,
    star_to_ray,
    tail_from_json,
)
from starmetric.infinite import MAX_LABEL_DIGITS, MAX_TAIL_INDEX, MAX_TRUNCATION
from helpers import path_max_oracle

POS = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
NONNEG = st.one_of(st.just(Fraction(0)), POS)
RATIO = st.fractions(min_value=Fraction(1, 12), max_value=Fraction(11, 12), max_denominator=12)
TAIL_KINDS = ("harmonic", "geometric", "constant", "finite")


def tails(kind: str, positive: bool):
    if kind == "harmonic":
        return st.builds(HarmonicTail, POS)
    if kind == "geometric":
        return st.builds(GeometricTail, POS, RATIO)
    if kind == "constant":
        return st.builds(ConstantTail, POS if positive else NONNEG)
    return st.just(FiniteTail())


@st.composite
def star_specs(draw, kind: str, skip_on: bool):
    """Valid star presentations: a zero center keeps every leaf label positive."""
    center = draw(NONNEG)
    leaf = POS if center == 0 else NONNEG
    tail = draw(tails(kind, positive=center == 0))
    skip = draw(st.integers(1, 40)) if skip_on else 0
    return StarSpec(center, tuple(draw(st.lists(leaf, max_size=6))), tail, skip)


@st.composite
def ray_specs(draw, kind: str, skip_on: bool):
    """Valid ray presentations; decreasing ones sit above the first tail label."""
    decreasing = draw(st.booleans())
    tail = draw(tails(kind, positive=decreasing))
    skip = draw(st.integers(1, 40)) if skip_on else 0
    if not decreasing:
        return RaySpec(tuple(draw(st.lists(NONNEG, max_size=6))), tail, skip)
    floor = Fraction(0) if tail.finite else tail.label(skip + 1)
    prefix = sorted([floor + x for x in draw(st.lists(POS, max_size=6))], reverse=True)
    return RaySpec(tuple(prefix), tail, skip, decreasing=True)


F = Fraction


def test_tail_count_ge_exact():
    h = HarmonicTail(F(1))
    # c/n >= eps  <=>  n <= c/eps
    assert h.count_ge(F(1)) == 1
    assert h.count_ge(F(1, 3)) == 3
    assert h.count_ge(F(2, 7)) == 3
    assert h.count_ge(F(5)) == 0
    g = GeometricTail(F(1), F(1, 2))
    assert g.count_ge(F(1, 8)) == 3
    assert g.count_ge(F(1, 7)) == 2
    assert g.count_ge(F(2)) == 0
    # exact up to the tail index bound; past it, counting stops at MAX_TAIL_INDEX + 1
    assert g.count_ge(g.label(MAX_TAIL_INDEX)) == MAX_TAIL_INDEX
    assert g.count_ge(g.label(MAX_TAIL_INDEX + 5)) == MAX_TAIL_INDEX + 1
    c = ConstantTail(F(1))
    assert c.count_ge(F(2)) == 0
    assert c.count_ge(F(1)) is None
    assert FiniteTail().count_ge(F(1, 100)) == 0


def rand_ratio(rng: Random) -> Fraction:
    q = rng.randint(2, 10 ** rng.randint(1, 60))
    return F(rng.randint(1, q - 1), q)


def test_geometric_labels_stay_under_the_digit_bound():
    # ratio 1/2 builds every label the index bound lets through
    g = GeometricTail(F(1), F(1, 2))
    assert g.label(MAX_TAIL_INDEX + 2) == F(1, 2 ** (MAX_TAIL_INDEX + 2))
    rng = Random(59)
    for r in [F(999, 1000), F(1, 10**1000), F(10**990 - 1, 10**990)] + [rand_ratio(rng) for _ in range(20)]:
        g = GeometricTail(F(rng.randint(1, 10**6), rng.randint(1, 10**6)), r)

        def builds(n: int) -> bool:
            try:
                g.label(n)
            except IndexOutOfRange:
                return False
            return True

        lo, hi = 0, 1  # label lo builds; find the first label that does not
        while builds(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if builds(mid) else (lo, mid)
        last = g.label(lo)
        assert max(len(str(last.numerator)), len(str(last.denominator))) <= MAX_LABEL_DIGITS
        with pytest.raises(IndexOutOfRange, match=f"label {hi} would pass {MAX_LABEL_DIGITS} digits"):
            g.label(hi)
        # the bound is not far from the truth: label hi has over 80% of the digits allowed
        big = g.a * g.r**hi
        assert max(big.numerator.bit_length(), big.denominator.bit_length()) > MAX_LABEL_DIGITS * 332 // 100 * 8 // 10
    # 1e-4000 has a 4001-digit denominator
    assert GeometricTail(F(1), F(1, 10**1000)).label(3) == F(1, 10**3000)
    with pytest.raises(IndexOutOfRange):
        GeometricTail(F(1), F(1, 10**1000)).label(4)


def test_geometric_count_ge_stops_at_the_digit_bound(monkeypatch):
    monkeypatch.setattr(GeometricTail, "label", None)  # counting builds no label through label()
    # (999/1000)**n >= 1/10000 up to n = 9205, but label 1281 would pass the bound
    with pytest.raises(IndexOutOfRange, match="label 1281 would pass"):
        GeometricTail(F(1), F(999, 1000)).count_ge(F(1, 10000))
    with pytest.raises(IndexOutOfRange):
        GeometricTail(F(1), F(10**990 - 1, 10**990)).count_ge(F(1, 2))
    assert GeometricTail(F(1), F(1, 10**1000)).count_ge(F(1, 2)) == 0


def test_tail_labels():
    assert [HarmonicTail(F(2)).label(n) for n in (1, 2, 4)] == [F(2), F(1), F(1, 2)]
    assert [GeometricTail(F(1), F(1, 2)).label(n) for n in (1, 3)] == [F(1, 2), F(1, 8)]
    assert ConstantTail(F(3)).label(99) == 3
    with pytest.raises(IndexOutOfRange):
        FiniteTail().label(1)


def test_tail_json_round_trip():
    for tail in (HarmonicTail(F(1)), GeometricTail(F(2), F(1, 3)), ConstantTail(F(1)), FiniteTail()):
        assert tail_from_json(tail.to_json()) == tail
    with pytest.raises(MalformedPresentation):
        tail_from_json({"kind": "nope"})


def test_tail_parameter_validation():
    with pytest.raises(MalformedPresentation):
        HarmonicTail(F(0))
    with pytest.raises(MalformedPresentation):
        GeometricTail(F(1), F(1))
    with pytest.raises(NegativeInput):
        ConstantTail(F(-1))


def test_star_spec_validation():
    with pytest.raises(NotGenerating):
        StarSpec(center_label=0, exceptional=(F(0),), tail=FiniteTail())
    with pytest.raises(NotGenerating):
        StarSpec(center_label=0, tail=ConstantTail(F(0)))
    with pytest.raises(NegativeInput):
        StarSpec(center_label=F(-1))
    # positive center label tolerates zero leaves
    StarSpec(center_label=F(1), exceptional=(F(0),), tail=FiniteTail())


def test_star_spec_json_round_trip():
    spec = StarSpec(center_label=0, exceptional=(F(2), F(1, 2)), tail=HarmonicTail(F(1)))
    assert StarSpec.from_json(spec.to_json()) == spec
    obj = spec.to_json()
    assert obj == {"center_label": "0", "exceptional": ["2", "1/2"], "tail": {"kind": "harmonic", "c": "1"}}


def test_is_compact_star():
    assert is_compact_star(StarSpec(0, tail=HarmonicTail(F(1)))).compact
    rep = is_compact_star(StarSpec(F(1, 4), tail=HarmonicTail(F(1))))
    assert not rep.compact and rep.reason == "CenterLabelPositive"
    rep = is_compact_star(StarSpec(0, tail=ConstantTail(F(1))))
    assert not rep.compact and rep.reason == "InfiniteA_eps" and rep.epsilon == 1
    assert is_compact_star(StarSpec(F(5), exceptional=(F(0), F(3)), tail=FiniteTail())).compact


@pytest.mark.parametrize("skip_on", [False, True])
@pytest.mark.parametrize("kind", TAIL_KINDS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_star_spec_json_round_trip_property(kind, skip_on, data):
    spec = data.draw(star_specs(kind, skip_on))
    assert spec.tail.to_json()["kind"] == kind and bool(spec.tail_skip) == skip_on
    assert StarSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


def test_star_to_ray_merges_streams():
    spec = StarSpec(0, exceptional=(F(1, 2), F(2)), tail=HarmonicTail(F(1)))
    ray = star_to_ray(spec)
    assert ray.decreasing
    assert list(ray.labels(6)) == [F(2), F(1), F(1, 2), F(1, 2), F(1, 3), F(1, 4)]
    spec = StarSpec(0, tail=GeometricTail(F(1), F(1, 2)))
    ray = star_to_ray(spec)
    assert list(ray.labels(3)) == [F(1, 2), F(1, 4), F(1, 8)]


def test_star_to_ray_errors():
    with pytest.raises(FiniteSpec):
        star_to_ray(StarSpec(0, exceptional=(F(1),), tail=FiniteTail()))
    with pytest.raises(NotCompact):
        star_to_ray(StarSpec(F(1), tail=HarmonicTail(F(1))))
    with pytest.raises(NotCompact):
        star_to_ray(StarSpec(0, tail=ConstantTail(F(2))))


def test_star_to_ray_merges_up_to_the_tail_index_bound():
    ray = star_to_ray(StarSpec(0, exceptional=(F(1, MAX_TAIL_INDEX),), tail=HarmonicTail(F(1))))
    assert len(ray.prefix) == MAX_TAIL_INDEX and ray.tail_skip == MAX_TAIL_INDEX - 1
    with pytest.raises(IndexOutOfRange, match=f"reaches tail index {MAX_TAIL_INDEX + 1}"):
        star_to_ray(StarSpec(0, exceptional=(F(1, MAX_TAIL_INDEX + 1),), tail=HarmonicTail(F(1))))
    with pytest.raises(IndexOutOfRange, match=f"exceeds {MAX_TRUNCATION}"):
        ray_truncation_space(ray, MAX_TRUNCATION + 1)


def test_star_to_ray_truncation_matches_path_max_oracle():
    spec = StarSpec(0, exceptional=(F(3), F(1, 5)), tail=HarmonicTail(F(1)))
    ray = star_to_ray(spec)
    k = 64
    labels = list(ray.labels(k))
    # sorted star leaves with the center removed generate the same metric
    star = LabeledStarGraph.of("c", 0, [(f"x{i + 1}", lab) for i, lab in enumerate(labels)])
    star_space = restrict(generate_ultrametric(star), [f"x{i + 1}" for i in range(k)])
    for m in range(1, k + 1):
        for n in range(1, k + 1):
            assert ray_distance(ray, m, n) == star_space.d(f"x{m}", f"x{n}")


def test_ray_spec_validation():
    with pytest.raises(MalformedPresentation):
        RaySpec(prefix=(F(1), F(2)), decreasing=True)
    with pytest.raises(MalformedPresentation):
        RaySpec(prefix=(F(1), F(0)), decreasing=True)
    with pytest.raises(MalformedPresentation):
        RaySpec(prefix=(F(1, 3),), tail=HarmonicTail(F(1)), decreasing=True)  # junction 1/3 < 1
    RaySpec(prefix=(F(1), F(2)))  # non-monotone is fine without the flag


@pytest.mark.parametrize("skip_on", [False, True])
@pytest.mark.parametrize("kind", TAIL_KINDS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_ray_spec_json_round_trip_property(kind, skip_on, data):
    ray = data.draw(ray_specs(kind, skip_on))
    assert ray.tail.to_json()["kind"] == kind and bool(ray.tail_skip) == skip_on
    assert RaySpec.from_json(json.loads(json.dumps(ray.to_json()))) == ray


def test_ray_labels_and_bounds():
    ray = RaySpec(prefix=(F(5), F(4)), tail=GeometricTail(F(1), F(1, 2)), tail_skip=1, decreasing=True)
    # tail starts at index 2 of the law: 1/4, 1/8, ...
    assert [ray.label(n) for n in (1, 2, 3, 4)] == [F(5), F(4), F(1, 4), F(1, 8)]
    with pytest.raises(IndexOutOfRange):
        ray.label(0)
    finite = RaySpec(prefix=(F(5), F(4)))
    with pytest.raises(IndexOutOfRange):
        finite.label(3)


def test_ray_distance_decreasing_closed_form():
    ray = RaySpec(tail=GeometricTail(F(1), F(1, 2)), decreasing=True)
    assert ray_distance(ray, 3, 7) == F(1, 8)
    assert ray_distance(ray, 7, 3) == F(1, 8)
    assert ray_distance(ray, 4, 4) == 0


def test_ray_distance_non_monotone_path_max():
    labels = [F(5), F(4), F(4), F(1)]
    ray = RaySpec(prefix=tuple(labels))
    assert ray_distance(ray, 2, 3) == 4
    for m in range(1, 5):
        for n in range(1, 5):
            assert ray_distance(ray, m, n) == path_max_oracle(labels, m, n)
    with pytest.raises(IndexOutOfRange):
        ray_distance(ray, 1, 5)
    # unflagged rays over each tail law, their prefix rising above the tail and falling below it, and a flagged one
    prefix = (F(1, 4), F(3), F(0), F(1, 2))
    rays = [RaySpec(prefix, tail, 2) for tail in (HarmonicTail(F(2)), ConstantTail(F(1, 3)), GeometricTail(F(5), F(1, 2)))]
    rays.append(RaySpec((F(3), F(2)), HarmonicTail(F(1)), 1, decreasing=True))
    for ray in rays:
        labels = list(ray.labels(12))
        for m in range(1, 13):
            for n in range(1, 13):
                assert ray_distance(ray, m, n) == path_max_oracle(labels, m, n)
    # no label between the ends is built: gaps of 10**9 indices
    assert ray_distance(rays[0], 10**9, 5) == F(2, 3) and ray_distance(rays[0], 1, 10**9) == 3
    assert ray_distance(rays[1], 5, 10**9) == F(1, 3) and ray_distance(rays[1], 10**9, 4) == F(1, 2)
    # a label too large to build is named by the far end, as on a flagged ray
    for decreasing in (False, True):
        with pytest.raises(IndexOutOfRange, match="label 5 would pass"):
            ray_distance(RaySpec(tail=GeometricTail(F(1), F(1, 10**1000)), decreasing=decreasing), 1, 5)


def test_ray_truncation_tree_is_path_max_oracle():
    ray = RaySpec(prefix=(F(9), F(2), F(7)))
    tree = ray_truncation_tree(ray, 3)
    space = generate_ultrametric(tree)
    for m in range(1, 4):
        for n in range(1, 4):
            assert space.d(f"x{m}", f"x{n}") == ray_distance(ray, m, n)


def test_ray_truncation_space_matches_ray_distance():
    rays = [
        RaySpec(tail=HarmonicTail(F(1)), decreasing=True),
        RaySpec(prefix=(F(3), F(2), F(2)), tail=GeometricTail(F(1), F(1, 2)), tail_skip=2, decreasing=True),
        RaySpec(prefix=(F(1), F(5), F(0), F(2)), tail=HarmonicTail(F(3))),  # non-monotone
        RaySpec(prefix=(F(1), F(5), F(0), F(2))),  # finite, non-monotone
        RaySpec(prefix=(F(4), F(3)), decreasing=True),  # finite, decreasing
    ]
    for ray in rays:
        k = len(ray.prefix) if ray.finite else 20
        for size in (1, 2, k):
            space = ray_truncation_space(ray, size)
            assert space.points == tuple(f"x{i}" for i in range(1, size + 1))
            for m in range(1, size + 1):
                for n in range(1, size + 1):
                    assert space.dist[m - 1][n - 1] == ray_distance(ray, m, n)
        with pytest.raises(IndexOutOfRange):
            ray_truncation_space(ray, 0)
    with pytest.raises(IndexOutOfRange, match="beyond the 4 explicit labels"):
        ray_truncation_space(rays[3], 5)


def test_ray_to_completion_formula():
    ray = RaySpec(tail=GeometricTail(F(1), F(1, 2)), decreasing=True)
    model = ray_to_completion(ray)
    assert model.distance(0, 3) == F(1, 8)
    assert model.star.center_label == 0
    assert is_compact_star(model.star).compact
    harm = ray_to_completion(RaySpec(tail=HarmonicTail(F(1)), decreasing=True))
    assert list(harm.star.leaf_labels(4)) == [F(1), F(1, 2), F(1, 3), F(1, 4)]


def test_ray_to_completion_errors():
    with pytest.raises(NotDecreasingToZero):
        ray_to_completion(RaySpec(prefix=(F(2), F(1))))  # not flagged decreasing
    with pytest.raises(NotDecreasingToZero):
        ray_to_completion(RaySpec(prefix=(F(2), F(1)), decreasing=True))  # finite
    with pytest.raises(NotDecreasingToZero):
        ray_to_completion(RaySpec(tail=ConstantTail(F(1)), decreasing=True))  # limit 1
    model = ray_to_completion(RaySpec(tail=HarmonicTail(F(1)), decreasing=True))
    with pytest.raises(IndexOutOfRange) as info:
        model.distance(-1, 1)
    assert str(info.value) == "indices start at 0 for the added point"


def test_completion_round_trip_streams():
    rays = [
        RaySpec(tail=HarmonicTail(F(1)), decreasing=True),
        RaySpec(prefix=(F(3), F(1), F(1)), tail=GeometricTail(F(2), F(1, 3)), decreasing=True),
        RaySpec(prefix=(F(2), F(1), F(1, 2), F(1, 2)), tail=HarmonicTail(F(1)), tail_skip=2, decreasing=True),
    ]
    for ray in rays:
        model = ray_to_completion(ray)
        again = star_to_ray(model.star)
        assert list(again.labels(256)) == list(ray.labels(256))


def test_completion_added_point_is_center():
    ray = RaySpec(prefix=(F(1), F(1, 2)), tail=HarmonicTail(F(1)), tail_skip=2, decreasing=True)
    model = ray_to_completion(ray)
    space = model.truncation_space(24)
    assert is_ultrametric(space)
    assert is_us(space)
    assert model.added_point in find_centers(space)
    # the added point undercuts every other point pairwise
    for m in range(1, 25):
        for n in range(1, 25):
            if m != n:
                assert model.distance(0, m) <= model.distance(n, m)


def test_ray_cauchy_tail_vanishes():
    ray = RaySpec(tail=HarmonicTail(F(1)), decreasing=True)
    gaps = [ray_distance(ray, n, n + k) for n in (1, 4, 16, 64) for k in (1, 5)]
    assert gaps == [F(1), F(1), F(1, 4), F(1, 4), F(1, 16), F(1, 16), F(1, 64), F(1, 64)]
    assert ray_distance(ray, 1024, 2048) == F(1, 1024)


def test_dplus_values():
    assert dplus(3, 3) == 0
    assert dplus(0, 5) == 5
    assert dplus("1/3", "1/2") == F(1, 2)
    with pytest.raises(NegativeInput):
        dplus(-1, 2)


def test_dplus_samples_are_ultrametric():
    rng = Random(83)
    for _ in range(100):
        values = set()
        while len(values) < rng.randint(2, 10):
            values.add(F(rng.randint(0, 30), rng.randint(1, 9)))
        space = dplus_space(sorted(values))
        assert is_ultrametric(space)


def test_dplus_space_rejects_duplicates():
    with pytest.raises(MalformedPresentation):
        dplus_space([F(1), F(2, 2)])


def test_dplus_compact_subset():
    rep = dplus_compact_subset((), HarmonicTail(F(1)), include_zero=True)
    assert rep.compact and not rep.finite
    rep = dplus_compact_subset((), HarmonicTail(F(1)), include_zero=False)
    assert not rep.compact and rep.witness
    rep = dplus_compact_subset((), ConstantTail(F(1)), include_zero=True)
    assert not rep.compact
    rep = dplus_compact_subset((F(3), F(1), F(1, 2)))
    assert rep.compact and rep.finite
    rep = dplus_compact_subset((F(1, 9),), HarmonicTail(F(1)), include_zero=True)
    assert not rep.compact  # junction breaks strict decrease
    with pytest.raises(MalformedPresentation):
        dplus_compact_subset((F(1), F(2)))
    with pytest.raises(MalformedPresentation):
        dplus_compact_subset((F(0),))


def _raised(make) -> tuple[type, str]:
    with pytest.raises(InfiniteModelError) as info:
        make()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("flag", ["false", "true", "no", 0, 1, None, []])
def test_ray_json_decreasing_must_be_a_boolean(flag):
    # the constructor and the reader make one check, with one message
    obj = {"prefix": ["1"], "tail": {"kind": "finite"}, "decreasing": flag}
    raised = _raised(lambda: RaySpec.from_json(obj))
    assert raised == _raised(lambda: RaySpec((F(1),), FiniteTail(), decreasing=flag))
    assert raised == (MalformedPresentation, f"'decreasing' must be a JSON boolean, got {flag!r}")


@pytest.mark.parametrize("skip", [1.9, 1.5, 1.0, True, False, "1", None, -1, 10_001])
def test_presentation_json_skip_must_be_an_integer(skip):
    # the constructors and the readers make one check, with one message
    tail = {"kind": "harmonic", "c": "1"}
    star = _raised(lambda: StarSpec.from_json({"center_label": "0", "tail": tail, "skip": skip}))
    assert star[0] is (IndexOutOfRange if skip == 10_001 else MalformedPresentation)
    assert star == _raised(lambda: StarSpec(0, (), HarmonicTail(1), tail_skip=skip))
    assert star == _raised(lambda: RaySpec.from_json({"tail": tail, "skip": skip, "decreasing": True}))
    assert star == _raised(lambda: RaySpec((), HarmonicTail(1), tail_skip=skip, decreasing=True))


@pytest.mark.parametrize("tail", ["x", None, {"kind": "finite"}, HarmonicTail])
def test_presentation_tail_must_be_a_tail_law(tail):
    # the readers build laws with tail_from_json; only the constructors can be handed something else
    expected = (MalformedPresentation, f"'tail' must be a tail law, got {tail!r}")
    assert _raised(lambda: StarSpec(0, (), tail)) == expected
    assert _raised(lambda: RaySpec((F(1),), tail)) == expected


@pytest.mark.parametrize("labels", ["12", "", "1/2"])
def test_presentation_labels_must_not_be_a_string(labels):
    # a str would read as its characters: "12" as the labels 1 and 2
    star = _raised(lambda: StarSpec.from_json({"center_label": "0", "exceptional": labels, "tail": {"kind": "finite"}}))
    assert star == _raised(lambda: StarSpec(0, labels)) == (MalformedPresentation, "'exceptional' must be a JSON array, got str")
    ray = _raised(lambda: RaySpec.from_json({"prefix": labels, "tail": {"kind": "finite"}, "decreasing": True}))
    assert ray == _raised(lambda: RaySpec(labels, decreasing=True)) == (MalformedPresentation, "'prefix' must be a JSON array, got str")


def test_ray_json_reports_decreasing_before_a_bad_prefix():
    obj = {"prefix": "x", "tail": {"kind": "finite"}, "decreasing": "yes"}
    assert _raised(lambda: RaySpec.from_json(obj)) == (MalformedPresentation, "'decreasing' must be a JSON boolean, got 'yes'")


def test_presentation_json_accepts_exact_types():
    star = StarSpec.from_json({"center_label": "0", "tail": {"kind": "harmonic", "c": "1"}, "skip": 2})
    assert star.tail_skip == 2
    ray = RaySpec.from_json({"tail": {"kind": "harmonic", "c": "1"}, "skip": 2, "decreasing": False})
    assert ray.tail_skip == 2 and ray.decreasing is False
