"""One operation per workload, each checking every answer it gets.

An op returns its deterministic output record (hashed into the golden
digest) or raises ``WrongAnswer``.  The program is reached through the
``lib`` argument, the imported ``starmetric`` package, so the
benchmark's own tests can hand in a deliberately wrong stand-in.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import subprocess
import time
from pathlib import Path

from gen import DecideItem, SimilarItem

SWEEP_N = 7
SWEEP_CLASSES = 468
SWEEP_US = 2 ** (SWEEP_N - 2)
SWEEP_KINDS = {"X4": 338, "Y4": 98}
# Both verbs run in one process, without --jobs: at this size a worker
# pool's start-up would outweigh its work, and on two cores the pool
# would time the scheduler more than the program.
SWEEP_ARGS = {
    "verify": ["verify", "--theorem", "4.3", "--n", str(SWEEP_N), "--json"],
    "enumerate": ["enumerate", "--n", str(SWEEP_N), "--json"],
}
SEMIMETRIC_CHECK_MAX_N = 12


class WrongAnswer(Exception):
    """The program's answer failed a check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def digest(record) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _parse(lib, tr, text: str):
    with tr.span("spaces.parse"):
        s = lib.space_from_json(json.loads(text))
    tr.count("spaces.parse.entries", len(s.points) ** 2)
    return s


# ----------------------------------------------------------------- decide


def _check_triple(w, points: list[str], dist) -> None:
    idx = {p: i for i, p in enumerate(points)}
    require({w.x, w.y, w.z} <= idx.keys() and len({w.x, w.y, w.z}) == 3, "witness points")
    x, y, z = idx[w.x], idx[w.y], idx[w.z]
    require(dist[x][y] == w.lhs and max(dist[x][z], dist[z][y]) == w.rhs, "witness values")
    require(w.lhs > w.rhs, "witness does not violate")


def _check_quadruple(q, points: list[str], dist) -> None:
    idx = {p: i for i, p in enumerate(points)}
    names = (q.x, q.y, q.z, q.w)
    require(set(names) <= idx.keys() and len(set(names)) == 4, "quadruple points")
    x, y, z, w = (idx[p] for p in names)
    big = q.big
    require(dist[x][y] == dist[x][w] == dist[z][y] == dist[z][w] == big, "quadruple cross distances")
    require(dist[x][z] == q.small1 < big and dist[y][w] == q.small2 < big, "quadruple pair distances")
    require(q.kind == ("Y4" if q.small1 == q.small2 else "X4"), "quadruple kind")


def decide_op(lib, tr, item: DecideItem, text: str) -> dict:
    out: dict = {}
    exp = item.space
    if item.family == "ray":
        with tr.span("infinite.presentation"):
            spec = lib.StarSpec.from_json(json.loads(text))
            compact = lib.is_compact_star(spec)
            ray = lib.star_to_ray(spec)
        require(compact.compact, "compact presentation reported not compact")
        with tr.span("infinite.ray_truncation_space"):
            s = lib.ray_truncation_space(ray, item.k)
        require(list(s.points) == exp.points, "truncation points")
        require(all(list(row) == erow for row, erow in zip(s.dist, exp.dist)), "truncation distances")
        out["ray"] = ray.to_json()
    else:
        s = _parse(lib, tr, text)
    n = len(exp.points)
    dist = exp.dist

    with tr.span("spaces.ultrametric"):
        w = lib.ultrametric_violation(s)
    require((w is None) == item.ultrametric, "ultrametric verdict")
    if w is not None:
        _check_triple(w, exp.points, dist)
    out["witness"] = None if w is None else w.to_json()

    if w is None:
        with tr.span("decision.find_centers"):
            centers = lib.find_centers(s)
        tr.count("decision.centers_found", len(centers))
        with tr.span("decision.find_forbidden_quadruple"):
            q = lib.find_forbidden_quadruple(s)
        require(list(centers) == item.centers, "center set")
        require(bool(centers) == (q is None), "centers vs obstruction")
        require(bool(centers) == item.star_generated, "star-generated verdict")
        out["centers"] = list(centers)
        out["quadruple"] = None if q is None else q.to_json()
        if q is not None:
            _check_quadruple(q, exp.points, dist)
        else:
            with tr.span("harness.center_extension_probe"):
                probe = lib.center_extension_probe(s)
            ext = probe.extension
            require(probe.added_point not in exp.points, "probe point name")
            require(list(ext.points) == exp.points + [probe.added_point], "probe points")
            require(
                all(ext.dist[i][n] == ext.dist[n][i] == item.rowmin[i] for i in range(n)) and ext.dist[n][n] == 0,
                "probe distances",
            )
            require(probe.success == (probe.extension_ultrametric and probe.added_is_center), "probe verdict")
            require(probe.success, "probe fails on a star-generated space")
            out["probe"] = [probe.success, probe.added_point, probe.extension_ultrametric, probe.added_is_center]
        stars = []
        idx = {p: i for i, p in enumerate(exp.points)}
        for c in centers:
            with tr.span("decision.build_star"):
                star = lib.build_star(s, c)
            with tr.span("trees.generate_ultrametric"):
                g = lib.generate_ultrametric(star)
            with tr.span("spaces.reorder"):
                back = lib.reorder(g, s.points)
            require(back == s, f"round trip from center {c}")
            ci = idx[c]
            require(star.center == c and star.center_label == 0, "star center")
            require(
                all(lab == dist[ci][idx[leaf]] for leaf, lab in zip(star.leaves, star.leaf_labels)),
                "star leaf labels",
            )
            stars.append([c, [str(x) for x in star.leaf_labels]])
        out["stars"] = stars

    if n <= SEMIMETRIC_CHECK_MAX_N:
        with tr.span("decision.semimetric_us_check"):
            rep = lib.semimetric_us_check(s)
        require(rep.agree, "three statements disagree")
        require(rep.in_us == item.star_generated, "semimetric check verdict")
        out["us_check"] = rep.to_json()
    return out


# ---------------------------------------------------------------- similar


def _check_bijection(phi, a, b) -> None:
    """phi carries a's rank matrix onto b's (generated spaces, not the program's)."""
    require(isinstance(phi, dict) and len(phi) == len(a.points), "bijection size")
    require(set(phi) == set(a.points) and set(phi.values()) == set(b.points), "bijection points")
    ib = {p: i for i, p in enumerate(b.points)}
    perm = [ib[phi[p]] for p in a.points]
    n = len(perm)
    for i in range(n):
        ra, rb = a.ranks[i], b.ranks[perm[i]]
        for j in range(i + 1, n):
            if ra[j] != rb[perm[j]]:
                raise WrongAnswer("bijection does not carry the matrix")


def similar_op(lib, tr, item: SimilarItem, texts: tuple[str, str]) -> dict:
    a = _parse(lib, tr, texts[0])
    b = _parse(lib, tr, texts[1])
    out: dict = {}
    with tr.span("similarity.weak_similarity_bijection"):
        phi = lib.weak_similarity_bijection(a, b)
    require((phi is not None) == item.similar, "weak similarity verdict")
    if phi is not None:
        _check_bijection(phi, item.a, item.b)
    out["weak"] = phi
    if item.weaksim_only:
        return out

    with tr.span("similarity.isometry_bijection"):
        iso = lib.isometry_bijection(a, b)
    require((iso is not None) == item.isometric, "isometry verdict")
    if iso is not None:
        # equal spectra, so equal ranks mean equal distances
        _check_bijection(iso, item.a, item.b)
    out["iso"] = iso

    if item.canonical:
        name = "similarity.canonical_form." + ("semi" if item.family == "semi" else "ultra")
        with tr.span(name):
            ca = lib.canonical_form(a)
        with tr.span(name):
            cb = lib.canonical_form(b)
        require((ca == cb) == item.similar, "canonical forms vs similarity")
        require((ca.digest == cb.digest) == item.similar, "canonical digests vs similarity")
        out["canonical"] = [ca.digest, cb.digest]
    return out


# ------------------------------------------------------------------ sweep


def check_sweep_output(verb: str, returncode: int, stdout: bytes, golden: dict) -> None:
    require(returncode == 0, f"{verb} exit code {returncode}")
    if verb == "verify":
        rep = json.loads(stdout)["report"]
        require(rep["classes"] == SWEEP_CLASSES and rep["us_classes"] == SWEEP_US, "verify class counts")
        require(rep["kind_counts"] == SWEEP_KINDS, "verify kind counts")
        require(rep["ok"] is True and rep["discrepancies"] == [], "verify ok")
    else:
        lines = stdout.splitlines()
        require(len(lines) == SWEEP_CLASSES + 1, "enumerate line count")
        summary = json.loads(lines[-1])["summary"]
        require(
            summary == {"n": SWEEP_N, "classes": SWEEP_CLASSES, "us_classes": SWEEP_US,
                        "obstructed_classes": SWEEP_CLASSES - SWEEP_US},
            "enumerate summary",
        )
    require(hashlib.sha256(stdout).hexdigest() == golden[verb], f"{verb} output digest")


# Runs the CLI as ``python -m starmetric`` does, then reports the child's
# own peak RSS on stderr.  VmHWM counts only the pages the interpreter
# touched; a child's ru_maxrss also counts the parent's pages it shared
# until it exec'd, which would put a floor of the parent's size under it.
_CLI = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    sys.stderr.write("perfbench-peak-rss-kb %s\\n" % kb)
atexit.register(_peak)
runpy.run_module("starmetric", run_name="__main__", alter_sys=True)
"""


def run_cli(python: str, env: dict, argv: list[str], timeout: float, cwd: Path,
            probe=None, probe_every_s: float = 0.0) -> tuple[int, bytes, int, list]:
    """Run the CLI in a fresh interpreter.

    Returns (exit code, stdout, peak RSS in KiB, probe results): while the
    child runs, this process calls ``probe`` every ``probe_every_s`` seconds
    and keeps what each call returns.
    """
    proc = subprocess.Popen([python, "-c", _CLI, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    probes: list = []
    now = time.perf_counter()
    deadline = now + timeout
    next_probe = now + probe_every_s if probe is not None else deadline
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                now = time.perf_counter()
                if now > deadline:
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                if probe is not None and now >= next_probe:
                    probes.append(probe())
                    next_probe = time.perf_counter() + probe_every_s
                for key, _ in sel.select(max(0.0, min(deadline, next_probe) - now)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    err = b"".join(chunks[proc.stderr])
    peaks = [line.split()[1] for line in err.splitlines() if line.startswith(b"perfbench-peak-rss-kb ")]
    return proc.returncode, b"".join(chunks[proc.stdout]), int(peaks[-1]) if peaks else 0, probes
