"""The catalogue streamed one class at a time.

``map_classes`` hands on one class at a time, and
``verify_obstruction_equivalence`` keeps only its discrepancies.
"""

import dataclasses
import json
import os
import weakref

import pytest

from starmetric import harness, verify_obstruction_equivalence
from starmetric.cli import run

# (classes, us_classes, X4, Y4) per n
SWEEP_COUNTS = {
    1: (1, 1, 0, 0),
    2: (1, 1, 0, 0),
    3: (2, 2, 0, 0),
    4: (6, 4, 1, 1),
    5: (20, 8, 8, 4),
    6: (90, 16, 53, 21),
    7: (468, 32, 338, 98),
    8: (2910, 64, 2309, 537),
}


@pytest.mark.parametrize("n", sorted(SWEEP_COUNTS))
def test_sweep_counts_are_pinned(n):
    classes, us, x4, y4 = SWEEP_COUNTS[n]
    assert verify_obstruction_equivalence(n).to_json() == {
        "n": n,
        "classes": classes,
        "us_classes": us,
        "obstructed_classes": x4 + y4,
        "kind_counts": {"X4": x4, "Y4": y4},
        "discrepancies": [],
        "ok": True,
    }


def test_map_classes_streams_one_class_at_a_time():
    calls = []
    stream = harness.map_classes(calls.append, 8)
    assert calls == []
    space, _ = next(stream)
    assert calls == [space]
    assert sum(1 for _ in stream) == 2909 and len(calls) == 2910


def test_sweep_keeps_no_class_it_has_decided(monkeypatch):
    row = harness._obstruction_row
    seen: list = []

    def tracked(space):
        # the previous class may still be bound in the sweep loop; none before it is alive
        assert sum(ref() is not None for ref in seen[:-1]) == 0
        seen.append(weakref.ref(space))
        return row(space)

    monkeypatch.setattr(harness, "_obstruction_row", tracked)
    assert verify_obstruction_equivalence(6).ok
    assert len(seen) == 90


def test_bad_quadruple_is_a_discrepancy_under_streaming(monkeypatch):
    find = harness.find_forbidden_quadruple

    def swapped(space):
        rep = find(space)
        return None if rep is None else dataclasses.replace(rep, y=rep.z, z=rep.y)

    monkeypatch.setattr(harness, "find_forbidden_quadruple", swapped)
    rep = verify_obstruction_equivalence(6)
    assert not rep.ok
    assert (rep.classes, rep.obstructed_classes) == (90, 74)
    assert len(rep.discrepancies) == 74
    for d in rep.discrepancies:
        assert d.details.startswith("constructive route returned no obstruction")
        assert harness.exhaustive_quadruple_scan(d.space) is not None  # the class it names is kept


def test_verify_with_two_jobs_prints_the_same_output(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs is bounded by the CPU count
    argv = ["verify", "--theorem", "4.3", "--n", "6", "--json"]
    assert run(argv) == 0
    serial = capsys.readouterr().out
    assert run(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert json.loads(serial)["report"]["classes"] == 90
