"""Schema of the checked-in ``BENCH_*.json`` records and of the recorder's rows; no timing gates."""

import importlib.util
import json
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
    ],
)
def test_malformed_records_are_rejected(change, match):
    record = {"python": "3.11", "cpu_count": 2, "src_lines": 100,
              "rows": [{"layer": "cli", "case": "x: enumerate", "n": 8, "reps": 3, "min_s": 0.5, "median_s": 1.0}]}
    bench_record.check_record(record)
    change(record)
    with pytest.raises(ValueError, match=match):
        bench_record.check_record(record)
