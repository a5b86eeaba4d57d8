"""Schema of the checked-in ``BENCH_*.json`` records and of the recorder's rows; no timing gates."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_checked_in():
    assert ROOT / "BENCH_lean_cli.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_checked_in_records_follow_the_schema(path):
    record = json.loads(path.read_text())
    bench_record.check_record(record)
    cases = {(row["layer"], row["case"].partition(": ")[2], row["n"]) for row in record["rows"]}
    trees = {row["case"].partition(": ")[0] for row in record["rows"]}
    assert len(record["rows"]) == len(cases) * len(trees)  # every case once per tree


def test_lean_cli_record_holds_parent_and_change_rows():
    record = json.loads((ROOT / "BENCH_lean_cli.json").read_text())
    rows = {(row["layer"], row["case"], row["n"]) for row in record["rows"]}
    for tree in ("parent", "change"):
        assert ("perfbench", f"{tree}: sweep seed 1", bench_record.sweep_n()) in rows
        assert ("cli", f"{tree}: verify --theorem 4.3", 7) in rows
        assert ("cli", f"{tree}: verify --theorem 4.3", 8) in rows
        assert ("cli", f"{tree}: enumerate", 8) in rows


def test_rank_first_record_holds_every_workload_and_cli_case():
    record = json.loads((ROOT / "BENCH_rank_first.json").read_text())
    rows = {(row["layer"], row["case"], row["n"]) for row in record["rows"]}
    assert bench_record.WORKLOADS == ("decide", "similar", "sweep")
    for tree in ("parent", "change"):
        for w in bench_record.WORKLOADS:
            n = bench_record.sweep_n() if w == "sweep" else None
            assert ("perfbench", f"{tree}: {w} seed {bench_record.SEED}", n) in rows
        for verb, n, extra in bench_record.CLI_CASES:
            assert ("cli", f"{tree}: " + " ".join([verb, *extra]), n) in rows


def _assert_every_workload_and_cli_case(name: str) -> None:
    """A record with raw per-op ``perfbench`` rows holds one per workload and tree; any other record holds
    ``PAIRS`` alternating pairs of each ``PAIR_METRICS`` entry per workload and tree."""
    record = json.loads((ROOT / name).read_text())
    rows = {(row["layer"], row["case"], row["n"]): row["reps"] for row in record["rows"]}
    raw = any(layer == "perfbench" for layer, _, _ in rows)
    for tree in ("parent", "change"):
        for w in bench_record.WORKLOADS:
            n = bench_record.sweep_n() if w == "sweep" else None
            if raw:
                assert ("perfbench", f"{tree}: {w} seed {bench_record.SEED}", n) in rows
            else:
                for m in bench_record.PAIR_METRICS:
                    assert rows.get(("pairs", f"{tree}: {w} seed {bench_record.SEED} {m}", n)) == bench_record.PAIRS
        for verb, n, extra in bench_record.CLI_CASES + bench_record.STARTUP_CASES:
            assert ("cli", f"{tree}: " + " ".join([verb, *extra]), n) in rows


def test_plain_records_record_holds_every_workload_and_cli_case():
    assert bench_record.STARTUP_CASES == (("check", 1, ("--json",)),)
    _assert_every_workload_and_cli_case("BENCH_plain_records.json")


def test_once_per_space_record_holds_every_workload_and_cli_case():
    _assert_every_workload_and_cli_case("BENCH_once_per_space.json")


def test_int_values_record_holds_every_workload_and_cli_case():
    _assert_every_workload_and_cli_case("BENCH_int_values.json")


def _assert_in_process_cases(name: str, cases) -> None:
    record = json.loads((ROOT / name).read_text())
    rows = {(row["layer"], row["case"], row["n"]) for row in record["rows"]}
    for tree in ("parent", "change"):
        for fn, kind, n in cases:
            assert ("inprocess", f"{tree}: {fn} {kind}", n) in rows


def test_in_process_cases_are_pinned():
    assert bench_record.INPROCESS_CASES == (
        ("canonical_form", "blocks", 21),
        ("canonical_form", "star", 1050),
        ("semimetric_us_check", "star", 80),
        ("center_extension_probe", "star", 500),
        ("generate_ultrametric", "star", 500),
        ("weak_similarity_bijection", "semi", 256),
        ("weak_similarity_bijection", "cubic", 20),
        ("canonical_form", "paths", 24),
        ("weak_similarity_bijection", "decoy", 40),
    )


def _recorded_in_process_cases(path: Path) -> list[tuple]:
    """A record's in-process cases ``(function, kind, n)``, in the order its rows first name them."""
    cases = {}
    for row in json.loads(path.read_text())["rows"]:
        if row["layer"] == "inprocess":
            fn, kind = row["case"].partition(": ")[2].split(" ")
            cases[fn, kind, row["n"]] = None
    return list(cases)


IN_PROCESS_RECORDS = [p for p in RECORDS if _recorded_in_process_cases(p)]


def test_in_process_records_keep_their_cases():
    held = {p.name: len(_recorded_in_process_cases(p)) for p in IN_PROCESS_RECORDS}
    assert held.items() >= {
        "BENCH_ultra_canon.json": 2,
        "BENCH_every4.json": 3,
        "BENCH_chain_reads.json": 4,
        "BENCH_ranked_trees.json": 5,
        "BENCH_paired_workloads.json": 7,
        "BENCH_orbit_form.json": 8,
    }.items()


@pytest.mark.parametrize("path", IN_PROCESS_RECORDS, ids=[p.name for p in IN_PROCESS_RECORDS])
def test_in_process_record_holds_a_prefix_of_the_cases(path):
    _assert_every_workload_and_cli_case(path.name)
    cases = _recorded_in_process_cases(path)
    assert tuple(cases) == bench_record.INPROCESS_CASES[: len(cases)]
    _assert_in_process_cases(path.name, cases)


def test_recorded_inprocess_rows_follow_the_schema():
    cases = (
        ("canonical_form", "blocks", 6),
        ("canonical_form", "star", 5),
        ("semimetric_us_check", "star", 6),
        ("center_extension_probe", "star", 6),
        ("generate_ultrametric", "star", 6),
        ("weak_similarity_bijection", "semi", 6),
        ("weak_similarity_bijection", "cubic", 8),
        ("canonical_form", "paths", 6),
        ("weak_similarity_bijection", "decoy", 16),
    )
    rows = bench_record.inprocess_rows({"here": ROOT}, reps=2, cases=cases)
    assert [(r["layer"], r["case"], r["n"], r["reps"]) for r in rows] == [
        ("inprocess", "here: canonical_form blocks", 6, 2),
        ("inprocess", "here: canonical_form star", 5, 2),
        ("inprocess", "here: semimetric_us_check star", 6, 2),
        ("inprocess", "here: center_extension_probe star", 6, 2),
        ("inprocess", "here: generate_ultrametric star", 6, 2),
        ("inprocess", "here: weak_similarity_bijection semi", 6, 2),
        ("inprocess", "here: weak_similarity_bijection cubic", 8, 2),
        ("inprocess", "here: canonical_form paths", 6, 2),
        ("inprocess", "here: weak_similarity_bijection decoy", 16, 2),
    ]
    bench_record.check_record({"python": "3", "cpu_count": 1, "src_lines": bench_record.src_lines(), "rows": rows})


def test_weak_cells_record_holds_ten_pairs_per_tree():
    record = json.loads((ROOT / "BENCH_weak_cells.json").read_text())
    rows = {(row["layer"], row["case"], row["n"], row["reps"]) for row in record["rows"]}
    assert bench_record.PAIRS == 10 and bench_record.PAIR_SECONDS == 30
    for tree in ("parent", "change"):
        for m in bench_record.PAIR_METRICS:
            assert ("pairs", f"{tree}: similar seed {bench_record.SEED} {m}", None, 10) in rows


def test_recorded_pair_rows_follow_the_schema(tmp_path, monkeypatch):
    # perfbench writes its records under its own tree, so it runs on a copy, not in the checkout
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_record, "WORKLOADS", ("similar",))
    rows = bench_record.pair_rows({"here": tmp_path}, pairs=1, seconds=1)
    assert [(r["layer"], r["case"], r["n"], r["reps"]) for r in rows] == [
        ("pairs", "here: similar seed 1 latency_p50_ms", None, 1),
        ("pairs", "here: similar seed 1 latency_tail_ms", None, 1),
    ]
    assert [r["runs_s"] for r in rows] == [[r["min_s"]] for r in rows]  # each value, in run order
    assert (tmp_path / ".perfbench" / "similar-1-trace0.json").is_file()
    bench_record.check_record({"python": "3", "cpu_count": 1, "src_lines": bench_record.src_lines(), "rows": rows})


def test_startup_case_checks_a_one_point_space():
    rows = bench_record.cli_rows({"here": ROOT}, reps=2, cases=bench_record.STARTUP_CASES)
    assert [(r["layer"], r["case"], r["n"], r["reps"]) for r in rows] == [("cli", "here: check --json", 1, 2)]


def test_recorded_cli_rows_follow_the_schema():
    rows = bench_record.cli_rows({"here": ROOT}, reps=2, cases=(("enumerate", 3, ("--json",)),))
    assert [(r["layer"], r["case"], r["n"], r["reps"]) for r in rows] == [("cli", "here: enumerate --json", 3, 2)]
    bench_record.check_record({"python": "3", "cpu_count": 1, "src_lines": bench_record.src_lines(), "rows": rows})


@pytest.mark.parametrize(
    "change,match",
    [
        (lambda r: r.pop("src_lines"), "record keys"),
        (lambda r: r["rows"][0].update(extra=1), "row keys"),
        (lambda r: r["rows"][0].update(min_s=2.0), "min_s <= median_s"),
        (lambda r: r["rows"][0].update(n=0), "n must be"),
        (lambda r: r["rows"][0].update(reps=0), "reps must be"),
        (lambda r: r.update(rows=[]), "nonempty"),
        (lambda r: r["rows"][0].update(runs_s=[0.5, 1.0, 2.0]), "row keys"),  # runs_s only on pairs rows
        (lambda r: r["rows"][1].update(runs_s=[0.5, 1.0]), "runs_s must"),
        (lambda r: r["rows"][1].update(runs_s=[1.0, 0.5, 0.5]), "runs_s must"),
        (lambda r: r["rows"][1].update(runs_s="0.5"), "runs_s must"),
    ],
)
def test_malformed_records_are_rejected(change, match):
    record = {"python": "3.11", "cpu_count": 2, "src_lines": 100,
              "rows": [{"layer": "cli", "case": "x: enumerate", "n": 8, "reps": 3, "min_s": 0.5, "median_s": 1.0},
                       {"layer": "pairs", "case": "x: decide seed 1 latency_p50_ms", "n": None, "reps": 3,
                        "min_s": 0.5, "median_s": 1.0, "runs_s": [1.0, 0.5, 2.0]}]}
    bench_record.check_record(record)
    del record["rows"][1]["runs_s"]
    bench_record.check_record(record)  # pairs rows recorded before runs_s was kept
    record["rows"][1]["runs_s"] = [1.0, 0.5, 2.0]
    change(record)
    with pytest.raises(ValueError, match=match):
        bench_record.check_record(record)
