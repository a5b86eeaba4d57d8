"""Record timing rows for one or more source trees as ``BENCH_<label>.json``.

Usage, from the repository root:

    python3 tools/bench_record.py LABEL NAME=ROOT [NAME=ROOT ...]

Each ROOT is a checkout with ``src/`` and ``perfbench/``; NAME labels its
rows, as in ``parent=/tmp/parent change=.``.  The trees take turns within
every repetition, so a slow phase of a shared host falls on all of them:

* every CLI case runs ``REPS`` times in a fresh ``python -m starmetric``
  on that tree's ``src/``; exit code and stdout must be the same on every
  tree and every repetition;
* the ``sweep`` workload runs ``RUNS`` times as ``perfbench/run.py
  --workload sweep --seconds SECONDS --seed SEED --trace 0`` in that tree,
  and must report ``correct``; its row holds the raw per-op seconds from
  the run's record (an op is one ``verify`` plus one ``enumerate``).

Writes ``BENCH_<label>.json`` in the repository root:

    {python, cpu_count, src_lines,
     rows: [{layer, case, n, reps, min_s, median_s}]}

``layer`` is ``cli`` or ``perfbench``; ``case`` is ``NAME: command``;
``n`` is the point count of a sweep (null for an in-process workload);
``src_lines`` counts the non-blank lines of this checkout's
``src/starmetric``.  No timing gate is applied anywhere.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI_CASES = (
    ("verify --theorem 4.3", 7, ()),
    ("verify --theorem 4.3", 8, ()),
    ("enumerate", 8, ()),
    ("enumerate", 8, ("--json",)),
)
REPS = 10  # fresh-interpreter runs per CLI case and tree
RUNS = 3  # perfbench sweep runs per tree
SECONDS = 15  # length of each perfbench run
SEED = 1
RECORD_KEYS = {"python", "cpu_count", "src_lines", "rows"}
ROW_KEYS = {"layer", "case", "n", "reps", "min_s", "median_s"}


def src_lines(root: Path = ROOT) -> int:
    return sum(
        1
        for f in sorted((root / "src" / "starmetric").glob("*.py"))
        for line in f.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def sweep_n(root: Path = ROOT) -> int:
    """The point count perfbench's sweep runs its verbs at: ``SWEEP_N`` in ``perfbench/ops.py``."""
    module = ast.parse((root / "perfbench" / "ops.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SWEEP_N"]
    )


def _row(layer: str, case: str, n, times: list[float]) -> dict:
    return {"layer": layer, "case": case, "n": n, "reps": len(times), "min_s": min(times),
            "median_s": statistics.median(times)}


def _cli_argv(verb: str, n: int, extra: tuple) -> list[str]:
    return [*verb.split(), "--n", str(n), *extra]


def cli_rows(trees: dict[str, Path], reps: int = REPS, cases=CLI_CASES) -> list[dict]:
    """One row per tree and CLI case: wall seconds of a fresh interpreter, best and median of ``reps``."""
    times = {(name, i): [] for name in trees for i in range(len(cases))}
    outputs: dict[int, tuple] = {}
    for _ in range(reps):
        for i, (verb, n, extra) in enumerate(cases):
            for name, root in trees.items():
                env = dict(os.environ, PYTHONPATH=str(root / "src"))
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "starmetric", *_cli_argv(verb, n, extra)],
                                      capture_output=True, env=env, timeout=600)
                times[name, i].append(time.perf_counter() - t0)
                got = (proc.returncode, proc.stdout)
                if outputs.setdefault(i, got) != got:
                    raise SystemExit(f"{name}: {' '.join(_cli_argv(verb, n, extra))} printed other output")
    return [
        _row("cli", f"{name}: " + " ".join([verb, *extra]), n, times[name, i])
        for i, (verb, n, extra) in enumerate(cases)
        for name in trees
    ]


def sweep_rows(trees: dict[str, Path]) -> list[dict]:
    """One row per tree: raw per-op seconds over ``RUNS`` runs of ``perfbench/run.py --workload sweep``."""
    times = {name: [] for name in trees}
    for _ in range(RUNS):
        for name, root in trees.items():
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", "0"],
                capture_output=True, text=True, cwd=root, timeout=600, check=True,
            )
            if not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                raise SystemExit(f"{name}: perfbench sweep reported wrong answers")
            record = json.loads((root / ".perfbench" / f"sweep-{SEED}-trace0.json").read_text())
            times[name] += [dt for _, dt, _ in record["latencies_s"]]
    return [_row("perfbench", f"{name}: sweep seed {SEED}", sweep_n(root), times[name])
            for name, root in trees.items()]


def check_record(record: dict) -> None:
    """Raise ValueError unless ``record`` has the ``BENCH_*.json`` schema."""
    if set(record) != RECORD_KEYS:
        raise ValueError(f"record keys {sorted(record)} are not {sorted(RECORD_KEYS)}")
    if not isinstance(record["python"], str) or not all(
        isinstance(record[k], int) and record[k] > 0 for k in ("cpu_count", "src_lines")
    ):
        raise ValueError("python must be a string; cpu_count and src_lines positive ints")
    if not isinstance(record["rows"], list) or not record["rows"]:
        raise ValueError("rows must be a nonempty list")
    for row in record["rows"]:
        if set(row) != ROW_KEYS:
            raise ValueError(f"row keys {sorted(row)} are not {sorted(ROW_KEYS)}")
        if not (isinstance(row["layer"], str) and isinstance(row["case"], str)):
            raise ValueError(f"layer and case must be strings: {row}")
        if row["n"] is not None and not (isinstance(row["n"], int) and row["n"] >= 1):
            raise ValueError(f"n must be null or a positive int: {row}")
        if not (isinstance(row["reps"], int) and row["reps"] >= 1):
            raise ValueError(f"reps must be a positive int: {row}")
        if not all(isinstance(row[k], (int, float)) for k in ("min_s", "median_s")) or not (
            0 < row["min_s"] <= row["median_s"]
        ):
            raise ValueError(f"need 0 < min_s <= median_s: {row}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("trees", nargs="+", metavar="NAME=ROOT")
    args = parser.parse_args(argv)
    trees = {}
    for item in args.trees:
        name, sep, root = item.partition("=")
        if not sep or not (Path(root) / "src" / "starmetric").is_dir():
            parser.error(f"{item!r} is not NAME=ROOT with a ROOT/src/starmetric")
        trees[name] = Path(root).resolve()
    rows = cli_rows(trees) + sweep_rows(trees)
    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(), "src_lines": src_lines(),
              "rows": rows}
    check_record(record)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
