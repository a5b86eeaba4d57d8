"""starmetric benchmark: one command per workload, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, the next op starts when the last
one has finished):

* ``decide``  -- one space's JSON text through the decision verbs
  (parse, ultrametric check, centers, obstruction, probe, star round
  trips, three-statement check), in process.
* ``similar`` -- one pair of spaces through weak similarity, isometry and
  canonical forms, in process.
* ``sweep``   -- one op runs ``verify --theorem 4.3 --n 7`` and then
  ``enumerate --n 7``, each in a fresh ``python -m starmetric``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every op
a second time with spans around each call into the program and prints
the per-layer metrics.  The last stdout line is the result object; the
line before it carries the run's context (Python version, nproc, load,
sample counts, raw timings, ``src/starmetric`` line count).  Full records
and spans go to ``.perfbench/`` in the repository root.

Every answer is checked (see ``ops.py``); with the default seed each op's
output must also match its pinned digest in ``golden.json``.  An op that
raises, answers wrongly, exits unexpectedly or overruns its time limit
is counted in ``failed``.  Times are scaled to a reference machine speed
measured next to each op (see ``calibrate``), or for a sweep op, while it
runs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import ops
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
# Set-up is timed raw: a slice before each round tracked it worse than
# none did (set-up times spread more once scaled).
SETUP_ROUNDS = 7
# Process-wide wall budget: op time limits shrink so the run always ends.
RUN_BUDGET_S = 170.0
OP_LIMIT_S = {"decide": 60.0, "similar": 60.0, "sweep": 40.0}
# Two value draws of every slot; runs cycle through them.
CORPUS_CYCLES = 2
# Timing on a shared 2-core host swings by up to 2x in phases lasting
# from a second to minutes, so raw times drift with the phase a run
# lands in.  Every in-process op is therefore preceded by a calibration
# slice, and its time is scaled to the speed at which that slice takes
# REF_CALIBRATION_S (see ``normalized``).  Sweep ops run in child
# interpreters, which a slice before them tracked no better than none, so
# this process, pinned to the children's core, times one slice every
# PROBE_EVERY_S while a verb runs, and the op is scaled by the mean of the
# slices timed during it.  Raw figures go to the context.
REF_CALIBRATION_S = 0.0012
PROBE_EVERY_S = 0.025
# Each run holds whole cycles of the corpus, at least MIN_CYCLES of them.
# A cycle has 25 slots, so the p50 and p90 of a run fall in the middle of
# one slot's copies (the 13th and 23rd cheapest) instead of between two,
# and p90 has at least ten ops beyond it.
MIN_CYCLES = 4
# A sweep op is a verify/enumerate pair, so that all its ops share one
# distribution; a run holds at least MIN_PAIRS of them, about twenty in
# 30 s.  Its tail is p75, the highest percentile with five ops beyond it.
MIN_PAIRS = 2
TAIL_PERCENTILE = {"decide": 90, "similar": 90, "sweep": 75}

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("classes_per_s", "classes/s"),
    ("setup_s", "s"),
)

SPANS = (
    "spaces.parse",
    "spaces.ultrametric",
    "spaces.reorder",
    "decision.find_centers",
    "decision.build_star",
    "decision.find_forbidden_quadruple",
    "decision.semimetric_us_check",
    "decision.exhaustive_quadruple_scan",
    "trees.generate_ultrametric",
    "infinite.presentation",
    "infinite.ray_truncation_space",
    "similarity.canonical_form.ultra",
    "similarity.canonical_form.semi",
    "similarity.weak_similarity_bijection",
    "similarity.isometry_bijection",
    "harness.enumerate",
    "harness.center_extension_probe",
    "cli.emit",
)
COUNTS = ("spaces.parse.entries", "decision.centers_found", "harness.enumerate.classes")
LAYERS = ("spaces", "trees", "decision", "similarity", "infinite", "harness", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for s in SPANS:
        names += [(f"{s}.busy_s", "s"), (f"{s}.calls", "count")]
    names += [(c, "count") for c in COUNTS]
    names += [("cli.startup_s", "s"), ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes")]
    for layer in LAYERS:
        names += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.share", "ratio")]
    names += [("bench.self_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


def _calibration_slice() -> float:
    t0 = time.perf_counter()
    row = [Fraction(i % 7 + 1, i % 5 + 1) for i in range(16)]
    hits = 0
    for a in row:
        for b in row:
            if a + b > max(a, b) * 2:
                hits += 1
    hits += sum(Fraction(f"{i}/{i % 9 + 1}") < 3 for i in range(1, 40))
    return time.perf_counter() - t0


def calibrate() -> float:
    """Machine speed now: seconds for a fixed slice of exact-arithmetic work.

    The slice compares, adds and parses Fractions the way the program's
    hot loops do and never touches the program.  The garbage collector is
    paused so that the program's leftover garbage cannot slow it; the
    fastest of three slices counts.
    """
    gc.disable()
    try:
        return min(_calibration_slice() for _ in range(3))
    finally:
        gc.enable()


def normalized(samples: list[float], cals: list[float]) -> list[float]:
    """Scale each time to the reference speed, by the calibration around it.

    The calibration of a sample is the median over a window of 9
    neighbouring samples (the whole run when it is shorter): over three
    sets of ten runs each, windows of 5 to 17 spread the run medians less
    than one of 25 did, and a lone slice more.
    """
    n = len(samples)
    half = min(4, (n - 1) // 2)
    out = []
    for j, dt in enumerate(samples):
        lo = max(0, min(j - half, n - 2 * half - 1))
        out.append(dt * REF_CALIBRATION_S / statistics.median(cals[lo : lo + 2 * half + 1]))
    return out


class OpTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise OpTimeout("op exceeded its time limit")


def nearest_rank(values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank method."""
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def src_lines() -> int:
    return sum(
        1
        for f in sorted((SRC / "starmetric").glob("*.py"))
        for line in f.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_process = time.perf_counter()
        self.env = child_env()
        self.python = sys.executable
        self.golden = json.loads((HERE / "golden.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[tuple] = []  # (slot, seconds, calibration) per untraced op
        self.ok_ops = 0

    def remaining(self, limit: float) -> float:
        return max(1.0, min(limit, RUN_BUDGET_S - (time.perf_counter() - self.t_process)))

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    # ------------------------------------------------------------ set-up

    def setup(self) -> float:
        """Imports (in a fresh interpreter), corpus generation, input writing."""
        times = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            subprocess.run([self.python, "-c", "import starmetric"], env=self.env, check=True, cwd=ROOT)
            self.build_inputs()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def build_inputs(self) -> None:
        work = WORK / f"{self.workload}-{self.seed}"
        work.mkdir(parents=True, exist_ok=True)
        if self.workload == "decide":
            self.corpus = gen.decide_corpus(self.seed, CORPUS_CYCLES)
            self.cycle = len(gen.DECIDE_SLOTS)
            texts = [[it.text] for it in self.corpus]
        elif self.workload == "similar":
            self.corpus = gen.similar_corpus(self.seed, CORPUS_CYCLES)
            self.cycle = len(gen.SIMILAR_SLOTS)
            texts = [list(it.texts) for it in self.corpus]
        else:
            self.corpus = []
            texts = [['{"points":["a"],"dist":[["0"]]}']]
        self.paths = []
        for i, group in enumerate(texts):
            paths = []
            for j, text in enumerate(group):
                p = work / f"item{i:04d}-{j}.json"
                p.write_text(text, encoding="utf-8")
                paths.append(p)
            self.paths.append(paths)
        self.corpus_digest = gen.corpus_digest(t for group in texts for t in group)

    # ---------------------------------------------------- in-process ops

    def run_op(self, fn, lib, tr, i: int):
        item = self.corpus[i % len(self.corpus)]
        paths = self.paths[i % len(self.corpus)]
        signal.setitimer(signal.ITIMER_REAL, self.remaining(OP_LIMIT_S[self.workload]))
        try:
            texts = [p.read_text(encoding="utf-8") for p in paths]
            return fn(lib, tr, item, texts[0] if len(texts) == 1 else tuple(texts))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def inprocess(self, lib, op_fn) -> dict:
        signal.signal(signal.SIGALRM, _alarm)
        off = Tracer(False)
        on = Tracer(True)
        outputs: list[str] = []
        traced_s = untraced_s = 0.0
        gc.collect()
        t_start = time.perf_counter()
        i = 0
        # a traced run reports sums over spans, not percentiles: one cycle will do
        min_ops = (1 if self.trace else MIN_CYCLES) * self.cycle
        while i < min_ops or i % self.cycle or time.perf_counter() - t_start < self.seconds:
            passes = [(off, False)] + ([(on, True)] if self.trace else [])
            if i % 2:  # alternate which pass meets an item first
                passes.reverse()
            for tr, is_traced in passes:
                cal = 0.0 if is_traced else calibrate()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    if is_traced:
                        tr.op = i
                        with tr.span("op"):
                            out = self.run_op(op_fn, lib, tr, i)
                    else:
                        out = self.run_op(op_fn, lib, tr, i)
                except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                    out = None
                    self.fail(f"op {i}: {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                if is_traced:
                    traced_s += dt
                    continue
                untraced_s += dt
                self.latencies.append((i % self.cycle, dt, cal))
                if out is None:
                    continue
                d = ops.digest(out)
                if i < len(self.corpus):
                    outputs.append(d)
                if self.seed == DEFAULT_SEED and d != self.golden[self.workload][i % len(self.corpus)]:
                    self.fail(f"op {i}: output differs from the golden digest")
                else:
                    self.ok_ops += 1
            i += 1
        wall = time.perf_counter() - t_start
        self.output_digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        return {"wall": wall, "tracer": on, "overhead": traced_s / untraced_s - 1 if self.trace else None}

    # ------------------------------------------------------------ sweep

    def cli_op(self, verb: str, probes: list[float]) -> tuple[float, int, str | None]:
        """One verb in a fresh interpreter: (seconds, stdout bytes, failure or None).

        Speed slices timed while it runs are added to ``probes``.
        """
        t0 = time.perf_counter()
        try:
            code, out, peak_kb, slices = ops.run_cli(
                self.python, self.env, ops.SWEEP_ARGS[verb], self.remaining(OP_LIMIT_S["sweep"]), ROOT,
                _calibration_slice, PROBE_EVERY_S,
            )
            dt = time.perf_counter() - t0
            probes += slices
            self.peak_rss_kb = max(self.peak_rss_kb, peak_kb)
            ops.check_sweep_output(verb, code, out, self.golden["sweep"])
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            return time.perf_counter() - t0, 0, f"{verb}: {type(exc).__name__}: {exc}"
        return dt, len(out), None

    def traced_child(self, verb: str, tr) -> tuple[float, float]:
        """Same work as the verb through public functions, with spans."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [self.python, str(HERE / "sweep_child.py"), verb, str(ops.SWEEP_N)],
                capture_output=True,
                env=self.env,
                cwd=ROOT,
                timeout=self.remaining(OP_LIMIT_S["sweep"]),
            )
            dt = time.perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr.decode(errors="replace").strip().splitlines()[-1:])
            rec = json.loads(proc.stdout)
            if rec["digest"] != self.golden["sweep"][verb]:
                raise RuntimeError("traced replica output differs from the CLI's")
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            self.fail(f"traced {verb}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0.0
        tr.absorb("op", t0, t0 + dt, rec["spans"], rec["counts"])
        library = sum(e - s for name, s, e, parent, _ in rec["spans"] if parent < 0 and name != "cli.emit")
        return dt, library

    def sweep(self) -> dict:
        # children inherit the pin, so the probe slices share their core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        on = Tracer(True)
        order = ["verify", "enumerate"] if self.seed % 2 == 0 else ["enumerate", "verify"]
        startup: list[float] = []
        cli_self = 0.0
        stdout_bytes: list[int] = []
        untraced_s = traced_s = 0.0
        self.peak_rss_kb = 0
        if self.trace:
            for _ in range(3):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    code, out, _, _ = ops.run_cli(self.python, self.env, ["check", "--json", str(self.paths[0][0])], 30, ROOT)
                    startup.append(time.perf_counter() - t0)
                    ops.require(code == 0 and json.loads(out) == {"ultrametric": True, "valid": True}, "check answer")
                except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                    self.fail(f"startup: {type(exc).__name__}: {exc}")
        t_start = time.perf_counter()
        pairs = op = 0
        while pairs < MIN_PAIRS or time.perf_counter() - t_start < self.seconds:
            self.attempted += 1
            pair_s = 0.0
            failures: list[str] = []
            probes: list[float] = []
            for verb in order:
                dt, nbytes, failure = self.cli_op(verb, probes)
                pair_s += dt
                stdout_bytes.append(nbytes)
                if failure:
                    failures.append(failure)
                if self.trace:
                    on.op = op
                    tdt, library = self.traced_child(verb, on)
                    untraced_s += dt
                    traced_s += tdt
                    cli_self += dt - library
                op += 1
            if failures:
                self.fail("; ".join(failures))
            else:
                self.ok_ops += 1
            self.latencies.append(("pair", pair_s, statistics.mean(probes) if probes else calibrate()))
            pairs += 1
            if self.trace:  # a traced run reports sums over spans: one pair will do
                break
        wall = time.perf_counter() - t_start
        return {
            "wall": wall,
            "tracer": on,
            "overhead": traced_s / untraced_s - 1 if self.trace else None,
            "startup": statistics.median(startup) if startup else 0.0,
            "cli_self": cli_self,
            "stdout_bytes": statistics.mean(stdout_bytes),
            "cli_op_s": untraced_s,
        }

    # ------------------------------------------------------------ report

    def end_to_end(self, res: dict, setup_s: float) -> dict:
        if self.workload == "sweep":
            times = [dt * REF_CALIBRATION_S / cal for _, dt, cal in self.latencies]
            rss = self.peak_rss_kb / 1024
            per_op = len(ops.SWEEP_ARGS) * ops.SWEEP_CLASSES
        else:
            times = normalized([dt for _, dt, _ in self.latencies], [cal for _, _, cal in self.latencies])
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            per_op = 1 if self.workload == "decide" else 2
        values = {
            "throughput_ops_s": self.ok_ops / sum(times),
            "latency_p50_ms": nearest_rank(times, 50) * 1000,
            "latency_tail_ms": nearest_rank(times, TAIL_PERCENTILE[self.workload]) * 1000,
            "peak_rss_mb": rss,
            "classes_per_s": self.ok_ops * per_op / sum(times),
            "setup_s": setup_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self, res: dict) -> dict:
        tr = res["tracer"]
        stats, counts = tr.summary()
        values: dict[str, float] = {}
        for s in SPANS:
            busy, calls, _ = stats.get(s, (0.0, 0, 0.0))
            values[f"{s}.busy_s"] = busy
            values[f"{s}.calls"] = calls
        for c in COUNTS:
            values[c] = counts.get(c, 0)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_busy, _calls, self_s) in stats.items():
            layer = name.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += self_s
        bench_self = stats.get("op", (0.0, 0, 0.0))[2]
        if self.workload == "sweep":
            # op time is the untraced verb; the CLI layer is what the
            # traced library work does not account for
            layer_self["cli"] = res["cli_self"]
            total = res["cli_op_s"]
            values["cli.startup_s"] = res["startup"]
            values["cli.self_s"] = res["cli_self"] / stats.get("op", (0.0, 1, 0.0))[1]
            values["cli.stdout_bytes"] = res["stdout_bytes"]
            bench_self = 0.0
        else:
            total = stats.get("op", (0.0, 0, 0.0))[0]
            values["cli.startup_s"] = values["cli.self_s"] = values["cli.stdout_bytes"] = 0
        for layer in LAYERS:
            values[f"layer.{layer}.self_s"] = layer_self[layer]
            values[f"layer.{layer}.share"] = layer_self[layer] / total if total else 0.0
        values["bench.self_s"] = bench_self
        values["trace.overhead_frac"] = res["overhead"]
        return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["decide", "similar", "sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starmetric" / "__init__.py").is_file():
        print(f"error: no starmetric sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    setup_s = run.setup()
    import starmetric

    if args.workload == "decide":
        res = run.inprocess(starmetric, ops.decide_op)
    elif args.workload == "similar":
        res = run.inprocess(starmetric, ops.similar_op)
    else:
        res = run.sweep()
    metrics = run.per_layer(res) if args.trace else run.end_to_end(res, setup_s)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load,
        "src_lines": src_lines(),
        "ops_timed": len(run.latencies),
        "latency_slots": len({slot for slot, _, _ in run.latencies}),
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "raw_ops_per_wall_s": run.ok_ops / res["wall"],
        "raw_latency_p50_ms": statistics.median(dt for _, dt, _ in run.latencies) * 1000,
        "calibration_median_s": statistics.median(cal for _, _, cal in run.latencies),
        "ok_ops": run.ok_ops,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "corpus_digest": run.corpus_digest,
        "output_digest": getattr(run, "output_digest", None),
        "golden_checked": args.seed == DEFAULT_SEED or args.workload == "sweep",
        "wall_s": res["wall"],
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    WORK.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    record = {"context": context, "result": result, "latencies_s": run.latencies}
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (WORK / f"{stem}-spans.json").write_text(json.dumps(res["tracer"].spans))
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
