"""CLI verbs end to end: exit codes, JSON determinism, file round trips."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starmetric import (
    GeometricTail,
    HarmonicTail,
    MalformedMatrix,
    MalformedPresentation,
    NegativeInput,
    RaySpec,
    StarSpec,
    harness,
    space_from_json,
    space_to_json,
    x4_space,
)
from starmetric.cli import run
from starmetric.infinite import MAX_LABEL_DIGITS, MAX_TAIL_INDEX, MAX_TRUNCATION


@pytest.fixture
def x4_file(tmp_path):
    path = tmp_path / "x4.json"
    path.write_text(json.dumps(space_to_json(x4_space())))
    return str(path)


@pytest.fixture
def star_tree_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("c 0\nu 1\nv 1/2\nw 1/3\nc -- u\nc -- v\nc -- w\n")
    return str(path)


@pytest.fixture
def harmonic_star_file(tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"center_label": "0", "exceptional": [], "tail": {"kind": "harmonic", "c": "1"}}))
    return str(path)


@pytest.fixture
def ray_file(tmp_path):
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"prefix": [], "tail": {"kind": "geometric", "a": "1", "r": "1/2"}, "decreasing": True}))
    return str(path)


def test_check_single_point(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": ["a"], "dist": [["0"]]}))
    assert run(["check", str(path)]) == 0
    assert "ultrametric" in capsys.readouterr().out


def test_check_invalid_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", "0"], ["0", "0"]]}))
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: d(a, b) = 0 for distinct points\n")


def test_check_non_ultrametric(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps({"points": ["a", "b", "c"], "dist": [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]]})
    )
    assert run(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "not ultrametric" in out


def test_witness_x4(x4_file, capsys):
    assert run(["witness", x4_file]) == 1
    out = capsys.readouterr().out
    assert "X4" in out
    assert run(["witness", "--json", x4_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["quadruple"]["kind"] == "X4"
    assert payload["quadruple"]["small1"] == "1"


def test_us_x4_fails(x4_file, capsys):
    assert run(["us", x4_file]) == 1
    assert "not star-generated" in capsys.readouterr().out


def test_us_reports_the_triple_of_a_space_that_is_not_ultrametric(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps({"points": ["a", "b", "c"], "dist": [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]]})
    )
    assert run(["us", str(path)]) == 1
    assert capsys.readouterr() == ("not ultrametric: d(b,c) = 5 > 4\n", "")
    assert run(["us", "--json", str(path)]) == 1
    witness = {"x": "b", "y": "c", "z": "a", "lhs": "5", "rhs": "4"}
    assert json.loads(capsys.readouterr().out) == {"in_us": False, "ultrametric": False, "witness": witness}


def test_gen_then_us_pipeline(star_tree_file, tmp_path, capsys):
    assert run(["gen", star_tree_file]) == 0
    space_json = capsys.readouterr().out
    space_path = tmp_path / "space.json"
    space_path.write_text(space_json)
    assert run(["us", str(space_path)]) == 0
    out = capsys.readouterr().out
    assert "centers" in out and "c" in out
    assert run(["witness", str(space_path)]) == 0


def test_gen_rejects_non_generating(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("a 0\nb 0\na -- b\n")
    assert run(["gen", str(path)]) == 1
    assert "zero" in capsys.readouterr().out


def test_star_verb_with_dot(x4_file, star_tree_file, tmp_path, capsys):
    assert run(["star", x4_file]) == 1
    capsys.readouterr()
    assert run(["gen", star_tree_file]) == 0
    space_path = tmp_path / "space.json"
    space_path.write_text(capsys.readouterr().out)
    dot_path = tmp_path / "out.dot"
    assert run(["star", str(space_path), "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert dot_path.read_text().startswith("graph {")
    # explicit non-center id fails with status 1
    assert run(["star", str(space_path), "--center", "u"]) == 1


def test_star_verb_rejects_a_center_outside_the_space(star_tree_file, tmp_path, capsys):
    # a name that is no point is an input error (status 2), not a failed center criterion (status 1)
    assert run(["gen", star_tree_file]) == 0
    space_path = tmp_path / "space.json"
    space_path.write_text(capsys.readouterr().out)
    assert run(["star", str(space_path), "--center", "zz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown point 'zz'\n"


@pytest.mark.parametrize("target", ["missing/out.dot", "."], ids=["missing-directory", "a-directory"])
def test_star_dot_to_an_unwritable_path_is_an_input_error(star_tree_file, tmp_path, capsys, target):
    assert run(["gen", star_tree_file]) == 0
    space_path = tmp_path / "space.json"
    space_path.write_text(capsys.readouterr().out)
    dot_path = tmp_path / target
    assert run(["star", str(space_path), "--dot", str(dot_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {dot_path}: ")
    assert "internal failure" not in captured.err


def test_ray_and_truncate(harmonic_star_file, capsys):
    assert run(["ray", harmonic_star_file]) == 0
    assert "1/2" in capsys.readouterr().out
    assert run(["ray", harmonic_star_file, "--truncate", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["points"] == ["x1", "x2", "x3", "x4"]
    assert payload["dist"][0][1] == "1"
    assert payload["dist"][2][3] == "1/3"


def test_ray_not_compact(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"center_label": "0", "tail": {"kind": "constant", "q": "1"}}))
    assert run(["ray", str(path)]) == 1
    assert "not compact" in capsys.readouterr().out


def test_complete_verb(ray_file, capsys):
    assert run(["complete", ray_file]) == 0
    assert "x0" in capsys.readouterr().out
    assert run(["complete", "--json", ray_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completion"]["star"]["center_label"] == "0"


def test_complete_rejects_non_decreasing(tmp_path, capsys):
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"prefix": ["1", "2"], "tail": {"kind": "finite"}}))
    assert run(["complete", str(path)]) == 1


def test_compact_verb(harmonic_star_file, tmp_path, capsys):
    assert run(["compact", harmonic_star_file]) == 0
    assert "compact" in capsys.readouterr().out
    path = tmp_path / "pos.json"
    path.write_text(json.dumps({"center_label": "1/4", "tail": {"kind": "harmonic", "c": "1"}}))
    assert run(["compact", str(path)]) == 1
    assert "CenterLabelPositive" in capsys.readouterr().out


def test_weaksim_verb(x4_file, tmp_path, capsys):
    from starmetric import y4_space

    y4_path = tmp_path / "y4.json"
    y4_path.write_text(json.dumps(space_to_json(y4_space())))
    assert run(["weaksim", x4_file, x4_file]) == 0
    capsys.readouterr()
    assert run(["weaksim", x4_file, str(y4_path)]) == 1


def test_enumerate_verb(capsys):
    assert run(["enumerate", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "6 classes" in out
    assert run(["enumerate", "--n", "4", "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7  # 6 classes + summary
    summary = json.loads(lines[-1])["summary"]
    assert summary == {"classes": 6, "n": 4, "obstructed_classes": 2, "us_classes": 4}


def test_enumerate_jobs_same_output(monkeypatch, capsys):
    # --jobs is bounded by the CPU count; two workers must run on a one-CPU machine too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(["enumerate", "--n", "5", "--json"]) == 0
    serial = capsys.readouterr().out
    assert run(["enumerate", "--n", "5", "--jobs", "2", "--json"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize(
    "argv", [["enumerate", "--n", "4"], ["verify", "--theorem", "4.3", "--n", "4"], ["verify", "--theorem", "4.6"]]
)
def test_jobs_out_of_range_is_a_usage_error(argv, monkeypatch, capsys):
    # checked by rejection only: no worker pool may start
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    limit = os.cpu_count() or 1
    for jobs in (0, -1, limit + 1):
        assert run(argv + ["--jobs", str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be between 1 and {limit} (the CPU count), got {jobs}\n"


def test_verify_verbs(capsys):
    assert run(["verify", "--theorem", "4.3", "--n", "4"]) == 0
    assert "0 discrepancies" in capsys.readouterr().out
    assert run(["verify", "--theorem", "4.6"]) == 0
    assert "five-point witnesses" in capsys.readouterr().out


def test_verify_reports_an_invalid_oracle_quadruple(monkeypatch, capsys):
    scan = harness.exhaustive_quadruple_scan

    def swapped(space):
        rep = scan(space)
        return None if rep is None else rep._replace(y=rep.z, z=rep.y)

    monkeypatch.setattr(harness, "exhaustive_quadruple_scan", swapped)
    assert run(["verify", "--theorem", "4.3", "--n", "5", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert not report["ok"]
    details = [d["details"] for d in report["discrepancies"]]
    assert details and all(d.startswith("exhaustive route returned no obstruction") for d in details)


def test_verify_reports_a_wrong_hierarchy_shape(monkeypatch, capsys):
    # the centers read off the hierarchy and the rank scan's must agree;
    # a stand-in scan that stops at the first center makes them differ on
    # every star-generated class, whose bottom spine node has two leaves or more
    scan = harness._scan_centers

    def first_only(space):
        return scan(space)[:1]

    monkeypatch.setattr(harness, "_scan_centers", first_only)
    assert run(["verify", "--theorem", "4.3", "--n", "5", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert not report["ok"] and report["us_classes"] == 8
    details = [d["details"] for d in report["discrepancies"]]
    assert details and set(details) == {"center criterion and hierarchy shape disagree"}


def test_verify_requires_n(capsys):
    assert run(["verify", "--theorem", "4.3"]) == 2


def test_probe_verb(x4_file, tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", "4"], ["4", "0"]]}))
    assert run(["probe", str(path)]) == 0
    capsys.readouterr()
    assert run(["probe", x4_file]) == 2  # precondition failure is an input error


def test_json_output_deterministic(x4_file, capsys):
    assert run(["us", "--json", x4_file]) == 1
    first = capsys.readouterr().out
    assert run(["us", "--json", x4_file]) == 1
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload == {"centers": [], "in_us": False}


def test_usage_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    assert run(["check", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check", str(bad)]) == 2


def test_loose_presentation_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"tail": {"kind": "geometric", "a": "1", "r": "1/2"}, "decreasing": "false"}))
    assert run(["complete", str(path)]) == 2
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"center_label": "0", "tail": {"kind": "harmonic", "c": "1"}, "skip": 1.9}))
    assert run(["compact", str(path)]) == 2
    assert "skip" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e20000", "1E-20000", "1" * 5000], ids=["exponent", "negative-exponent", "long"])
def test_oversized_rational_is_an_input_error(tmp_path, capsys, value):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"points": ["a", "b"], "dist": [["0", value], [value, "0"]]}))
    assert run(["us", str(path)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_unexpected_exception_exits_3(x4_file, monkeypatch, capsys):
    import starmetric.similarity as similarity  # weaksim imports the name from here when it runs

    def deep(a, b):
        raise RecursionError("maximum recursion depth exceeded\nwhile matching")

    monkeypatch.setattr(similarity, "weak_similarity_bijection", deep)
    assert run(["weaksim", x4_file, x4_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "RecursionError" in lines[0]


@pytest.mark.parametrize(
    "argv", [["enumerate", "--n", "7", "--json"], ["verify", "--theorem", "4.3", "--n", "5"]], ids=["enumerate", "verify"]
)
def test_a_reader_gone_early_exits_141_quietly(argv):
    # the read end is closed before the child starts, so its first write fails, every run
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "starmetric", *argv], stdout=write, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_a_closed_stdout_is_no_failure(x4_file):
    # started with descriptor 1 closed, Python sets sys.stdout to None and print writes nothing
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m starmetric check "$1" >&-', sys.executable, x4_file],
                          stderr=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_ultrametric_only_verbs_reject_other_spaces(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps({"points": ["a", "b", "c"], "dist": [["0", "3", "4"], ["3", "0", "5"], ["4", "5", "0"]]})
    )
    for verb in ("witness", "star"):
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: d(b,c) = 5 > 4")


HARMONIC = {"kind": "harmonic", "c": "1"}
# each shape with the error its reader raises
BAD_SPACES = [
    ({"points": 5, "dist": [["0"]]}, MalformedMatrix("'points' must be a JSON array, got int")),
    ({"points": "ab", "dist": [["0", "1"], ["1", "0"]]}, MalformedMatrix("'points' must be a JSON array, got str")),
    ({"points": ["a"], "dist": 5}, MalformedMatrix("'dist' must be a JSON array of rows, got int")),
    ({"points": ["a", "b"], "dist": [1, 2]}, MalformedMatrix("row 0 must be a JSON array, got int")),
    ({"points": ["a", "b"], "dist": ["01", "10"]}, MalformedMatrix("row 0 must be a JSON array, got str")),
]
BAD_PRESENTATIONS = [
    (
        "compact",
        {"center_label": "0", "exceptional": 5, "tail": HARMONIC},
        MalformedPresentation("'exceptional' must be a JSON array, got int"),
    ),
    (
        "ray",
        {"center_label": "0", "exceptional": "12", "tail": HARMONIC},
        MalformedPresentation("'exceptional' must be a JSON array, got str"),
    ),
    (
        "compact",
        {"center_label": "0", "tail": {"kind": "geometric", "a": "1"}},
        MalformedPresentation("geometric tail JSON is missing the 'r' key"),
    ),
    (
        "compact",
        {"center_label": 0.5, "tail": HARMONIC},
        MalformedPresentation("'center_label': exact rational required, got float: 0.5"),
    ),
    (
        "compact",
        {"center_label": "0", "exceptional": [None], "tail": HARMONIC},
        MalformedPresentation("'exceptional': exact rational required, got NoneType: None"),
    ),
    (
        "compact",
        {"center_label": "0", "tail": {"kind": "harmonic", "c": 0.5}},
        MalformedPresentation("'c': exact rational required, got float: 0.5"),
    ),
    (
        "complete",
        {"prefix": "21", "tail": HARMONIC, "decreasing": True},
        MalformedPresentation("'prefix' must be a JSON array, got str"),
    ),
    (
        "complete",
        {"prefix": 5, "tail": HARMONIC, "decreasing": True},
        MalformedPresentation("'prefix' must be a JSON array, got int"),
    ),
    ("compact", {"center_label": "0"}, MalformedPresentation("star JSON needs 'center_label' and 'tail' keys")),
    ("ray", {"center_label": "0"}, MalformedPresentation("star JSON needs 'center_label' and 'tail' keys")),
    ("compact", {"center_label": "0", "tail": {"c": "1"}}, MalformedPresentation("tail JSON needs a 'kind' key")),
    (
        "compact",
        {"center_label": "0", "exceptional": ["-1"], "tail": HARMONIC},
        NegativeInput("leaf labels must be nonnegative"),
    ),
    (
        "compact",
        {"center_label": "0", "tail": {"kind": "geometric", "a": "0", "r": "1/2"}},
        MalformedPresentation("geometric scale must be positive, got 0"),
    ),
    ("complete", {"prefix": ["1"]}, MalformedPresentation("ray JSON needs a 'tail' key")),
    ("complete", {"prefix": ["-1"], "tail": HARMONIC}, NegativeInput("ray labels must be nonnegative")),
    (
        "complete",
        {"tail": {"kind": "constant", "q": "0"}, "decreasing": True},
        MalformedPresentation("a decreasing ray needs strictly positive labels"),
    ),
]
JSON_READERS = {"us": space_from_json, "compact": StarSpec.from_json, "ray": StarSpec.from_json, "complete": RaySpec.from_json}


@pytest.mark.parametrize(
    "argv, obj, fault", [(["us"], s, f) for s, f in BAD_SPACES] + [([v], p, f) for v, p, f in BAD_PRESENTATIONS]
)
def test_malformed_json_shapes_are_input_errors(tmp_path, capsys, argv, obj, fault):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run(argv + [str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {fault}\n")
    with pytest.raises(Exception) as info:
        JSON_READERS[argv[0]](obj)
    assert (type(info.value), str(info.value)) == (type(fault), str(fault))


@pytest.mark.parametrize("obj", [s for s, _ in BAD_SPACES])
def test_check_reports_malformed_shapes_as_invalid(tmp_path, capsys, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run(["check", str(path)]) == 2
    check = capsys.readouterr()
    assert check.out == "" and check.err.startswith(f"error: {path}: ")
    assert run(["us", str(path)]) == 2
    assert capsys.readouterr() == check


# nested past the JSON decoder's recursion limit
DEEP = b"[" * 100_000 + b"]" * 100_000
# the bytes of each kind of input file, by what is wrong with them; a tree file is text, never too deep
UNREADABLE = {
    "space": {
        "not-utf8": b"\xff\xfe{}",
        "unparsable": b'{"points": ["a"], "dist": [["0"]',
        "invalid": b'{"points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}',
        "deep": b'{"points": ["a", "b"], "dist": [["0", ' + DEEP + b'], ["1", "0"]]}',
    },
    "tree": {"not-utf8": b"a \xff\n", "unparsable": b"a 0 0\n", "invalid": b"a 0\nb -1\na -- b\n"},
    "star": {
        "not-utf8": b"\xff\xfe{}",
        "unparsable": b'{"center_label": "0",',
        "invalid": b'{"center_label": "-1", "tail": {"kind": "finite"}}',
        "deep": b'{"center_label": "0", "exceptional": [' + DEEP + b'], "tail": {"kind": "harmonic", "c": "1"}}',
    },
    "ray": {
        "not-utf8": b"\xff\xfe{}",
        "unparsable": b'{"prefix": [}',
        "invalid": b'{"prefix": ["1"], "tail": {"kind": "finite"}, "skip": -1}',
        "deep": b'{"prefix": [' + DEEP + b'], "tail": {"kind": "finite"}}',
    },
}
READERS = {
    "check": (["check", "BAD"], "space"),
    "us": (["us", "BAD"], "space"),
    "witness": (["witness", "BAD"], "space"),
    "star": (["star", "BAD"], "space"),
    "probe": (["probe", "BAD"], "space"),
    "weaksim-a": (["weaksim", "BAD", "GOOD"], "space"),
    "weaksim-b": (["weaksim", "GOOD", "BAD"], "space"),
    "gen": (["gen", "BAD"], "tree"),
    "ray": (["ray", "BAD"], "star"),
    "complete": (["complete", "BAD"], "ray"),
    "compact": (["compact", "BAD"], "star"),
}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize(
    "argv, kind, fault",
    [
        pytest.param(argv, kind, fault, id=f"{reader}-{fault}")
        for reader, (argv, kind) in READERS.items()
        for fault in ("missing", *UNREADABLE[kind])
    ],
)
def test_every_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, x4_file, argv, kind, fault, flags):
    path = tmp_path / f"in.{kind}"
    if fault != "missing":
        path.write_bytes(UNREADABLE[kind][fault])
    argv = [{"BAD": str(path), "GOOD": x4_file}.get(a, a) for a in argv]
    assert run(argv + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


@pytest.mark.parametrize("verb, obj", [("compact", {"center_label": "0", "tail": HARMONIC}), ("complete", {"tail": HARMONIC})])
def test_negative_skip_names_the_json_key(tmp_path, capsys, verb, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({**obj, "skip": -1}))
    assert run([verb, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: 'skip' must be nonnegative, got -1\n")


SKIP = MAX_TAIL_INDEX + 1


def _unbuildable(*args, **kwargs):
    raise AssertionError("a label was built")


GEOMETRIC_TINY = {"kind": "geometric", "a": "1", "r": "1e-1000"}


@pytest.mark.parametrize(
    "argv, obj, patched, bound",
    [
        # c/n >= 1/(MAX + 1) for n up to MAX + 1: the merge would pass the bound
        (
            ["ray"],
            {"center_label": "0", "exceptional": [f"1/{MAX_TAIL_INDEX + 1}"], "tail": HARMONIC},
            "tail",
            MAX_TAIL_INDEX,
        ),
        (
            ["ray"],
            {"center_label": "0", "tail": {"kind": "geometric", "a": "1", "r": "1/2"}, "skip": SKIP},
            "tail",
            MAX_TAIL_INDEX,
        ),
        # about 2.3 million labels reach 1e-100 at ratio 9999/10000; label 997 would pass the digit bound
        (
            ["ray"],
            {"center_label": "0", "exceptional": ["1e-100"], "tail": {"kind": "geometric", "a": "1", "r": "9999/10000"}},
            "tail",
            MAX_LABEL_DIGITS,
        ),
        (["complete"], {"tail": HARMONIC, "skip": SKIP, "decreasing": True}, "tail", MAX_TAIL_INDEX),
        (["ray", "--truncate", str(MAX_TRUNCATION + 1)], {"center_label": "0", "tail": HARMONIC}, "ray", MAX_TRUNCATION),
        # geometric labels whose digits grow past the bound long before the index bound
        (
            ["ray"],
            {"center_label": "0", "exceptional": ["1/10000"], "tail": {"kind": "geometric", "a": "1", "r": "999/1000"}},
            None,
            MAX_LABEL_DIGITS,
        ),
        (
            ["ray"],
            {"center_label": "0", "exceptional": ["1/2"], "tail": {"kind": "geometric", "a": "1", "r": "0." + "9" * 990}},
            None,
            MAX_LABEL_DIGITS,
        ),
        (["ray"], {"center_label": "0", "exceptional": ["1/2"], "tail": GEOMETRIC_TINY}, None, MAX_LABEL_DIGITS),
        (["ray", "--json"], {"center_label": "0", "exceptional": ["1/2"], "tail": GEOMETRIC_TINY}, None, MAX_LABEL_DIGITS),
        (["ray"], {"center_label": "0", "tail": GEOMETRIC_TINY, "skip": MAX_TAIL_INDEX}, None, MAX_LABEL_DIGITS),
    ],
    ids=[
        "merged-prefix",
        "star-skip",
        "slow-geometric-merge",
        "ray-skip",
        "truncation",
        "geometric-near-one",
        "geometric-990-nines",
        "geometric-tiny-ratio",
        "geometric-tiny-ratio-json",
        "geometric-tiny-ratio-skip",
    ],
)
def test_presentation_work_is_bounded(tmp_path, monkeypatch, capsys, argv, obj, patched, bound):
    if patched == "tail":
        monkeypatch.setattr(HarmonicTail, "label", _unbuildable)
        monkeypatch.setattr(GeometricTail, "label", _unbuildable)
    elif patched == "ray":
        monkeypatch.setattr(RaySpec, "labels", _unbuildable)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: ") and str(bound) in captured.err
