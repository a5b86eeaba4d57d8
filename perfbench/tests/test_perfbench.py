"""Tests of the benchmark itself; no timing gates.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import starmetric  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _texts(corpus):
    for item in corpus:
        yield from (item.texts if hasattr(item, "texts") else (item.text,))


@pytest.mark.parametrize("make", [gen.decide_corpus, gen.similar_corpus])
def test_same_seed_same_corpus(make):
    first = gen.corpus_digest(_texts(make(5, 1)))
    assert first == gen.corpus_digest(_texts(make(5, 1)))
    assert first != gen.corpus_digest(_texts(make(6, 1)))


def test_expectations_hold_by_construction():
    for item in gen.decide_corpus(3, 1):
        s = item.space
        assert gen.ultrametric_ranks(s.ranks) == item.ultrametric
        assert bool(item.centers) == item.star_generated
    for item in gen.similar_corpus(3, 1):
        same = gen.row_profiles(item.a.ranks) == gen.row_profiles(item.b.ranks)
        assert same or not item.similar


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in BENCH["workloads"]] == ["decide", "similar", "sweep"]
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema(trace, key):
    res = _result("decide", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def _lying_lib(**overrides):
    lib = types.SimpleNamespace(**{k: getattr(starmetric, k) for k in dir(starmetric) if not k.startswith("_")})
    for name, fn in overrides.items():
        setattr(lib, name, fn)
    return lib


def test_wrong_answer_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(run, "MIN_CYCLES", 1)
    r = run.Run("decide", seed=7, seconds=0, trace=False)
    r.build_inputs()
    r.corpus = r.corpus[: r.cycle]
    lib = _lying_lib(find_centers=lambda s: starmetric.find_centers(s)[1:])
    r.inprocess(lib, ops.decide_op)
    with_centers = sum(item.star_generated for item in r.corpus)
    assert r.attempted == len(r.corpus)
    assert r.failed == with_centers and r.ok_ops == r.attempted - with_centers
    assert all("center set" in f for f in r.failures)


def test_wrong_witness_and_bijection_are_caught():
    tr = Tracer(False)
    item = next(it for it in gen.decide_corpus(2, 1) if it.family == "semi")
    fake = lambda s: starmetric.ultrametric_violation(s).__class__("p1", "p2", "p3", 2, 1)  # noqa: E731
    with pytest.raises(ops.WrongAnswer):
        ops.decide_op(_lying_lib(ultrametric_violation=fake), tr, item, item.text)
    pair = next(it for it in gen.similar_corpus(2, 1) if it.similar and not it.weaksim_only)
    swap = lambda a, b: dict(zip(a.points, reversed(b.points)))  # noqa: E731
    with pytest.raises(ops.WrongAnswer):
        ops.similar_op(_lying_lib(weak_similarity_bijection=swap), tr, pair, pair.texts)


def test_sweep_checker_rejects_a_changed_output():
    golden = json.loads((HERE / "golden.json").read_text())["sweep"]
    good = json.dumps({"report": {"classes": ops.SWEEP_CLASSES, "us_classes": ops.SWEEP_US,
                                  "kind_counts": ops.SWEEP_KINDS, "ok": True, "discrepancies": []}}).encode()
    with pytest.raises(ops.WrongAnswer, match="digest"):
        ops.check_sweep_output("verify", 0, good, golden)
    with pytest.raises(ops.WrongAnswer, match="exit code"):
        ops.check_sweep_output("verify", 1, good, golden)
