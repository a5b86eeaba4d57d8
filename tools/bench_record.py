"""Record timing rows for one or more source trees as ``BENCH_<label>.json``.

Usage, from the repository root:

    python3 tools/bench_record.py LABEL NAME=ROOT [NAME=ROOT ...]

Each ROOT is a checkout with ``src/`` and ``perfbench/``; NAME labels its
rows, as in ``parent=/tmp/parent change=/tmp/change``: export both trees
fresh, side by side, since where a tree lives has moved ``sweep``
readings.  The trees take turns within every repetition, so a slow phase
of a shared host falls on all of them:

* every CLI case runs ``REPS`` times in a fresh ``python -m starmetric``
  on that tree's ``src/``; exit code and stdout must be the same on every
  tree and every repetition.  ``CLI_CASES`` are the sweeps; the
  ``STARTUP_CASES`` run ``check --json`` on a one-point space, which pays
  the interpreter and the imports and almost nothing else;
* every in-process case ``(function, kind, n)`` runs ``INPROCESS_REPS``
  times in a fresh interpreter on that tree's ``src/``, which builds one
  space untimed and times one call of the named public function on it
  (``generate_ultrametric`` on the star ``build_star`` makes at the
  space's first point, also built untimed; ``weak_similarity_bijection``
  on a pair of n-point spaces); the result (a form's digest, else the
  sha256 of the result's JSON, a space's ``space_to_json``) must be the
  same on every tree and every repetition.  ``INPROCESS_CASES`` are the
  cases that grow fastest with n: ``canonical_form`` on m three-point
  caterpillar blocks under one root (n = 3m) and on the n-point star
  space; ``semimetric_us_check``, ``center_extension_probe`` and the star
  round trip's ``generate_ultrametric`` on the n-point star space; and
  ``weak_similarity_bijection`` on a seeded random semimetric against
  its relabeled copy under a strictly increasing map, and on two seeded
  random cubic graphs as two-valued spaces (edge 1, non-edge 2) that are
  not isomorphic; ``canonical_form`` on m three-point paths under
  one root (ranks 1, 1 and 2 inside, 3 across; n = 3m), which are not
  ultrametric and so take the search; and ``weak_similarity_bijection``
  on two ultrametrics whose points have equal sorted rows and which are
  not similar, each an 8-point class with every point blown up into
  n/8 twins (``tests/helpers.py``'s ``decoy_pair``);
* every one of the ``WORKLOADS`` is timed as ``PAIRS`` alternating pairs:
  each tree runs ``perfbench/run.py --workload W --seconds PAIR_SECONDS
  --seed SEED --trace 0`` in turn, the one that goes first alternating,
  as the benchmark's own A/B runs them, and must report ``correct`` (a
  ``sweep`` op is one ``verify`` plus one ``enumerate``, a ``decide`` op
  one space, a ``similar`` op one pair).  The rows hold the end-to-end
  ``latency_p50_ms`` and ``latency_tail_ms`` each run reports, in
  seconds, calibrated against host speed.

Writes ``BENCH_<label>.json`` in the repository root:

    {python, cpu_count, src_lines,
     rows: [{layer, case, n, reps, min_s, median_s}]}

``layer`` is ``cli``, ``inprocess`` or ``pairs`` (records made before
every workload was timed in pairs also hold raw per-op ``perfbench``
rows); ``case`` is ``NAME: command`` (``NAME: function kind`` in
process, ``NAME: workload seed S metric`` for pairs); ``n`` is the point
count of a sweep, of the checked space or of the in-process case's
space (null for the in-process perfbench workloads);
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI_CASES = (
    ("verify --theorem 4.3", 7, ()),
    ("verify --theorem 4.3", 8, ()),
    ("enumerate", 8, ()),
    ("enumerate", 8, ("--json",)),
)
STARTUP_CASES = (("check", 1, ("--json",)),)
INPROCESS_CASES = (
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
WORKLOADS = ("decide", "similar", "sweep")
REPS = 10  # fresh-interpreter runs per CLI case and tree
INPROCESS_REPS = 5  # fresh-interpreter runs per in-process case and tree
# Small changes need ten alternating pairs of the benchmark's own 30 s
# runs: fewer have lined up with host drift.
PAIRS, PAIR_SECONDS = 10, 30
PAIR_METRICS = ("latency_p50_ms", "latency_tail_ms")
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


def _cli_argv(verb: str, n: int, extra: tuple, workdir: Path) -> list[str]:
    """A sweep verb runs at ``--n n``; ``check`` reads a space of n points, all at distance 1, from ``workdir``."""
    if verb != "check":
        return [*verb.split(), "--n", str(n), *extra]
    path = workdir / f"space{n}.json"
    rows = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
    path.write_text(json.dumps({"points": [f"p{i}" for i in range(1, n + 1)], "dist": rows}))
    return [verb, *extra, str(path)]


def cli_rows(trees: dict[str, Path], reps: int = REPS, cases=CLI_CASES + STARTUP_CASES) -> list[dict]:
    """One row per tree and CLI case: wall seconds of a fresh interpreter, best and median of ``reps``."""
    times = {(name, i): [] for name in trees for i in range(len(cases))}
    outputs: dict[int, tuple] = {}
    with tempfile.TemporaryDirectory() as workdir:
        argvs = [_cli_argv(verb, n, extra, Path(workdir)) for verb, n, extra in cases]
        for _ in range(reps):
            for i, argv in enumerate(argvs):
                for name, root in trees.items():
                    env = dict(os.environ, PYTHONPATH=str(root / "src"))
                    t0 = time.perf_counter()
                    proc = subprocess.run([sys.executable, "-m", "starmetric", *argv],
                                          capture_output=True, env=env, timeout=600)
                    times[name, i].append(time.perf_counter() - t0)
                    got = (proc.returncode, proc.stdout)
                    if outputs.setdefault(i, got) != got:
                        raise SystemExit(f"{name}: {' '.join(argv)} printed other output")
    return [
        _row("cli", f"{name}: " + " ".join([verb, *extra]), n, times[name, i])
        for i, (verb, n, extra) in enumerate(cases)
        for name in trees
    ]


# argv: function, kind, n.  Builds the space through the public
# constructor (and, for generate_ultrametric, the star at its first
# point; for weak_similarity_bijection, the pair), then prints the seconds
# of one call of the function and the result: a digest when it has one,
# else the sha256 of its JSON.
_INPROCESS_CHILD = """
import hashlib, json, sys, time
from fractions import Fraction
from random import Random
import starmetric
from starmetric import FiniteSemimetricSpace
fn, kind, n = getattr(starmetric, sys.argv[1]), sys.argv[2], int(sys.argv[3])
def rank(i, j):
    if i == j:
        return 0
    if kind == "star":  # center label 0, leaf labels 2..n
        return max(i, j) + 1
    if i // 3 != j // 3:  # blocks: a cherry at 1, its third point at 2, blocks 3 apart
        return 3
    if kind == "paths":  # paths: 1 along each three-point path, 2 across its ends, paths 3 apart
        return 2 if {i % 3, j % 3} == {0, 2} else 1
    return 2 if 2 in (i % 3, j % 3) else 1
def space(d, prefix="p"):
    return FiniteSemimetricSpace(tuple(f"{prefix}{i + 1}" for i in range(n)),
                                 tuple(tuple(d(i, j) for j in range(n)) for i in range(n)))
def cubic(rng):  # tests/helpers.py's random_cubic_edges: the pairing model, redrawn until simple
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return lambda i, j: Fraction(0 if i == j else 1 if (min(i, j), max(i, j)) in edges else 2)
if kind == "semi":  # a random semimetric against a relabeled copy under x -> x^2 + x
    rng = Random(n)
    upper = {(i, j): Fraction(rng.randint(1, 6), rng.randint(1, 6)) for i in range(n) for j in range(i + 1, n)}
    d = lambda i, j: Fraction(0) if i == j else upper[min(i, j), max(i, j)]
    order = list(range(n))
    rng.shuffle(order)
    args = (space(d), space(lambda i, j: d(order[i], order[j]) ** 2 + d(order[i], order[j]), "q"))
elif kind == "cubic":  # tests/helpers.py's cubic_pair(n, 2): the first graph against the second
    rng = Random(200 + n)
    first = cubic(rng)
    args = (space(first), space(cubic(rng), "w"))
elif kind == "decoy":  # tests/helpers.py's decoy_pair(n // 8): the two classes of PROFILE_TWINS, blown up
    def blown(node):  # every level one higher, every leaf n // 8 twins at level 1
        return (1, ((),) * (n // 8)) if node == () else (node[0] + 1, tuple(map(blown, node[1])))
    def paths(node, above=()):  # each leaf's (level, child) steps from the root, leaves in child order
        if node == ():
            return [above]
        return [p for k, child in enumerate(node[1]) for p in paths(child, above + ((node[0], k),))]
    def tree(root):  # the rank of two leaves is the level where their paths part
        ps, values = paths(blown(root)), [Fraction(v) for v in range(5)]
        return lambda i, j: values[0 if i == j else next(lv for (lv, k), (_, m) in zip(ps[i], ps[j]) if k != m)]
    pair = ((3, ((2, ((),) * 4), (2, ((1, ((), ())), (1, ((), ())))))),
            (3, ((2, ((), (), (1, ((), ())))), (2, ((), (), (1, ((), ())))))))
    args = (space(tree(pair[0])), space(tree(pair[1]), "q"))
else:
    values = [Fraction(v) for v in range(n + 1)]
    s = space(lambda i, j: values[rank(i, j)])
    args = (starmetric.build_star(s, s.points[0]) if fn is starmetric.generate_ultrametric else s,)
t0 = time.perf_counter()
result = fn(*args)
seconds = time.perf_counter() - t0
if isinstance(result, FiniteSemimetricSpace):  # a space has no to_json
    result = starmetric.space_to_json(result)
elif result is not None and not isinstance(result, dict):
    result = getattr(result, "digest", None) or type(result).to_json(result)
print(seconds, result if isinstance(result, str)
      else hashlib.sha256(json.dumps(result, separators=(",", ":")).encode()).hexdigest())
"""


def inprocess_rows(trees: dict[str, Path], reps: int = INPROCESS_REPS, cases=INPROCESS_CASES) -> list[dict]:
    """One row per tree and in-process case: seconds of the one timed call, best and median of ``reps``."""
    times = {(name, i): [] for name in trees for i in range(len(cases))}
    results: dict[int, str] = {}
    for _ in range(reps):
        for i, (fn, kind, n) in enumerate(cases):
            for name, root in trees.items():
                env = dict(os.environ, PYTHONPATH=str(root / "src"))
                proc = subprocess.run([sys.executable, "-c", _INPROCESS_CHILD, fn, kind, str(n)],
                                      capture_output=True, text=True, env=env, timeout=600, check=True)
                seconds, result = proc.stdout.split()
                times[name, i].append(float(seconds))
                if results.setdefault(i, result) != result:
                    raise SystemExit(f"{name}: {fn} {kind} {n} gave another result")
    return [_row("inprocess", f"{name}: {fn} {kind}", n, times[name, i])
            for i, (fn, kind, n) in enumerate(cases) for name in trees]


def pair_rows(trees: dict[str, Path], pairs: int = PAIRS, seconds: int = PAIR_SECONDS) -> list[dict]:
    """One row per workload, ``PAIR_METRICS`` entry and tree: that metric of ``pairs`` alternating runs, in seconds.

    ``n`` is the sweep's point count, and null for the in-process workloads.
    """
    values = {(name, w, m): [] for name in trees for w in WORKLOADS for m in PAIR_METRICS}
    names = list(trees)
    for k in range(pairs):
        for w in WORKLOADS:
            for name in names if k % 2 == 0 else names[::-1]:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(SEED),
                     "--seconds", str(seconds), "--trace", "0"],
                    capture_output=True, text=True, cwd=trees[name], timeout=900, check=True,
                )
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"]:
                    raise SystemExit(f"{name}: perfbench {w} reported wrong answers")
                for m in PAIR_METRICS:
                    values[name, w, m].append(result["metrics"][m]["value"] / 1000)
    return [_row("pairs", f"{name}: {w} seed {SEED} {m}", sweep_n(root) if w == "sweep" else None, values[name, w, m])
            for w in WORKLOADS for m in PAIR_METRICS for name, root in trees.items()]


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
    rows = cli_rows(trees) + inprocess_rows(trees) + pair_rows(trees)
    record = {"python": platform.python_version(), "cpu_count": os.cpu_count(), "src_lines": src_lines(),
              "rows": rows}
    check_record(record)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
