"""Every record's JSON comes from one encoder, ``spaces._record_json``.

Each record, tail law and presentation writes its fields by name: a
nested record or tail gives its own JSON, a ``Fraction`` becomes its
string, a space its ``space_to_json`` form, and a tuple a list.  These
tests pin that to the hand-written ``to_json`` bodies kept in
``helpers``, as dicts and as sorted JSON text, on seeded instances of
every type and on each optional field both ways.  ``tail_from_json``
builds a law from its fields and names any other kind, hashable or not,
as unknown.
"""

import json
from fractions import Fraction as F
from random import Random

import pytest

from starmetric import (
    CardinalityThree,
    ConstantTail,
    FiniteTail,
    GeometricTail,
    HarmonicTail,
    MalformedPresentation,
    RaySpec,
    StarSpec,
    canonical_form,
    center_extension_probe,
    dplus_compact_subset,
    enumerate_classes,
    find_forbidden_quadruple,
    generate_ultrametric,
    harness,
    is_compact_star,
    ray_to_completion,
    semimetric_us_check,
    star_to_ray,
    tail_from_json,
    ultrametric_violation,
    verify_obstruction_equivalence,
    verify_tree_equivalence,
    x4_space,
    y4_space,
)
from starmetric.harness import ClassDiscrepancy, FivePointWitness, ProbeReport
from helpers import hand_written_json, random_semimetric, random_star, random_ultrametric


def _assert_same_json(record) -> None:
    got, want = record.to_json(), hand_written_json(record)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


TAILS = [HarmonicTail(F(3, 2)), GeometricTail(F(2), F(1, 3)), ConstantTail(F(1, 4)), ConstantTail(F(0)), FiniteTail()]


@pytest.mark.parametrize("seed", range(4))
def test_space_records_match_the_hand_written_json(seed):
    rng = Random(seed)
    witnesses = quadruples = 0
    for _ in range(20):
        s = random_semimetric(rng, rng.randint(3, 9))
        w = ultrametric_violation(s)
        if w is not None:
            witnesses += 1
            _assert_same_json(w)
        u = random_ultrametric(rng, rng.randint(4, 9))
        q = find_forbidden_quadruple(u)
        if q is not None:
            quadruples += 1
            _assert_same_json(q)
        for space in (s, u):
            _assert_same_json(canonical_form(space))
            try:
                _assert_same_json(semimetric_us_check(space))
            except CardinalityThree as exc:
                _assert_same_json(exc.report)
        star = generate_ultrametric(random_star(rng))
        if find_forbidden_quadruple(star) is None:
            _assert_same_json(center_extension_probe(star))
    assert witnesses and quadruples


def test_x4_and_y4_quadruples_match():
    for space, kind in ((x4_space(), "X4"), (y4_space(), "Y4")):
        q = find_forbidden_quadruple(space)
        assert q.kind == kind
        _assert_same_json(q)


def test_three_point_report_matches():
    s = next(iter(enumerate_classes(3)))
    with pytest.raises(CardinalityThree) as info:
        semimetric_us_check(s)
    assert not info.value.report.cardinality_ok
    _assert_same_json(info.value.report)


def test_failed_probe_matches():
    # the probe only returns success, so the failing record is built by hand
    ext = center_extension_probe(generate_ultrametric(random_star(Random(3)))).extension
    rep = ProbeReport(False, "c0", ext, False, False, "unresolved: the one-point extension failed")
    _assert_same_json(rep)


def test_sweep_reports_match():
    _assert_same_json(verify_obstruction_equivalence(5))
    rep = verify_tree_equivalence()
    assert {w.obstruction_kind for w in rep.five_point_witnesses} == {"X4", "Y4"}
    _assert_same_json(rep)
    space = rep.five_point_witnesses[0].space
    _assert_same_json(FivePointWitness(space, True, True, None))
    _assert_same_json(ClassDiscrepancy(space, "a detail"))


def test_sweep_report_with_discrepancies_matches(monkeypatch):
    find = harness.find_forbidden_quadruple

    def swapped(space):
        rep = find(space)
        return None if rep is None else rep._replace(y=rep.z, z=rep.y)

    monkeypatch.setattr(harness, "find_forbidden_quadruple", swapped)
    rep = verify_obstruction_equivalence(5)
    assert rep.discrepancies and not rep.ok
    _assert_same_json(rep)


@pytest.mark.parametrize("tail", TAILS, ids=repr)
def test_tail_laws_match_and_round_trip(tail):
    _assert_same_json(tail)
    assert tail_from_json(json.loads(json.dumps(tail.to_json()))) == tail


@pytest.mark.parametrize("skip", [0, 3])
@pytest.mark.parametrize("tail", TAILS, ids=repr)
def test_presentations_match(tail, skip):
    center = F(0) if tail.decreasing_to_zero else F(1, 2)
    star = StarSpec(center, (F(5, 2), F(1, 7), F(2, 3)), tail, tail_skip=skip)
    _assert_same_json(star)
    _assert_same_json(is_compact_star(star))
    ray = RaySpec((F(3), F(3), F(5, 2)), tail, tail_skip=skip)
    _assert_same_json(ray)
    _assert_same_json(dplus_compact_subset((F(3), F(5, 2)), tail, include_zero=bool(skip)))
    if tail.decreasing_to_zero:
        completion = ray_to_completion(star_to_ray(star))
        assert completion.ray.tail_skip
        _assert_same_json(completion)
        _assert_same_json(completion.star)


def test_optional_fields_are_left_out_and_written():
    cases = [
        (is_compact_star(StarSpec(F(0), tail=ConstantTail(F(1)))), "epsilon", True),
        (is_compact_star(StarSpec(F(0), tail=HarmonicTail(F(1)))), "epsilon", False),
        (dplus_compact_subset((F(1),), HarmonicTail(F(1, 2))), "witness", True),
        (dplus_compact_subset((F(1),)), "witness", False),
        (StarSpec(F(0), tail=HarmonicTail(F(1)), tail_skip=2), "skip", True),
        (RaySpec(), "skip", False),
    ]
    for record, key, written in cases:
        assert (key in record.to_json()) == written
        _assert_same_json(record)


@pytest.mark.parametrize("kind", [["harmonic"], {}, 7, "nope", None, {"kind": "harmonic"}])
def test_unknown_tail_kinds_are_malformed(kind):
    with pytest.raises(MalformedPresentation, match="unknown tail kind"):
        tail_from_json({"kind": kind, "c": "1"})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "harmonic"}, "harmonic tail JSON is missing the 'c' key"),
        ({"kind": "geometric", "r": "1/2"}, "geometric tail JSON is missing the 'a' key"),
        ({"kind": "geometric", "a": "1"}, "geometric tail JSON is missing the 'r' key"),
        ({"kind": "constant"}, "constant tail JSON is missing the 'q' key"),
    ],
)
def test_missing_tail_fields_are_named(obj, message):
    with pytest.raises(MalformedPresentation, match=message):
        tail_from_json(obj)
