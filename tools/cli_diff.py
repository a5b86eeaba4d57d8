"""Compare the CLI's output between two source trees, byte for byte.

Usage, from the repository root:

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--seed 7] [--count 200]

Writes a corpus of space JSON files (the four-point fixtures, the two
five-point path spaces, seeded random semimetrics, merge-process
ultrametrics and star spaces from ``tests/helpers.py``, and one space
each of one and two points), then runs the
``check``, ``us``, ``witness``, ``star``, ``probe`` and ``weaksim`` verbs
on every file, ``star`` on every star-generated file again with
``--dot FILE`` (the DOT file's bytes are compared too), with
``--center`` at its second center when it has two or more, and with
``--center`` at a point that is no center (exit 1, centers listed),
``check``, ``us``, ``weaksim``, ``probe`` and ``star`` on seeded
spaces of the same three kinds at n = 128 and 256, ``check`` and ``us`` on two
256-point matrices whose only fault is in the last row, ``weaksim`` on
pairs for each of its routes (rank sums that agree over sorted rows that
do not, a space that is not ultrametric with twins, a 20-point
cubic graph against a relabeled copy and a second cubic graph, and, in
both directions, two 32-point ultrametrics with equal sorted rows that
are not similar and a 48-point ultrametric against a reordered copy),
``compact`` and
``ray`` with and without ``--truncate 16`` and ``--truncate 64`` on
seeded star presentations (harmonic and geometric tails with
exceptional labels, one non-compact constant tail, and one star with
``skip`` 2), ``complete`` on seeded ray presentations (decreasing,
unflagged and finite), all four of those verbs on malformed
presentations (tail kinds that are a list, an object, a number or an
unknown name; each missing tail key; a float and a null value; ``skip``
as ``true``, -1 and 10,001; ``decreasing`` as ``"yes"``; ``exceptional``
as a string), ``gen`` on seeded tree texts (random trees of at most 12
vertices, stars, one tree with a zero-zero edge, random trees of 128 and
256 vertices and a 300-vertex path, all three with labels tied to a
pool of six values, a 256-leaf star, and stars whose center label
exceeds some leaf labels), ``check``, ``us``, ``witness``, ``star``
and ``probe`` on malformed spaces that break each axiom in turn (with
floats, bools and oversized rationals among the cells, one pair
spelled ``"1/2"`` and ``"2/4"``, and a ``"1e+_"`` cell), on a space
file that is not UTF-8 and on one with 100,000 nested arrays in a cell,
``gen`` on a tree file, ``compact`` and ``ray`` on a star file and
``complete`` on a ray file that are not UTF-8, ``compact`` and ``ray``
on a star file with 100,000 nested arrays among its exceptional labels,
plus ``enumerate`` at n = 6, 8 and 7
with ``--jobs 2`` and both ``verify`` sweeps (theorem 4.3 at n = 6 and
8), once under each tree, each with and without ``--json``.  Exit code, stdout and
stderr must match exactly; the first differences are printed and the
exit status is 1 if there are any.  Commands that raised out of
``cli.run`` under OLD_SRC (a crash with a traceback) are counted apart,
since giving them a proper exit code is a change of behaviour.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
# tests/helpers.py's cubic_pair(20, CUBIC_SEED), one that the search by
# sorted row profiles alone decides in a tenth of a second: other seeds
# cost it seconds to minutes, which a tree without refinement would pay
CUBIC_SEED = 3

# Runs inside each tree's interpreter: every argv line through cli.run.
# A ``--dot`` file is removed first and its bytes (as latin-1) recorded after.
_RUNNER = """\
import contextlib, io, json, os, sys
from starmetric.cli import run
for line in sys.stdin:
    argv = json.loads(line)
    dot = argv[argv.index("--dot") + 1] if "--dot" in argv else None
    if dot and os.path.exists(dot):
        os.remove(dot)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:
            code = "raised " + type(exc).__name__
    written = None
    if dot and os.path.exists(dot):
        with open(dot, "rb") as fh:
            written = fh.read().decode("latin-1")
    print(json.dumps([argv, code, out.getvalue(), err.getvalue(), written]))
"""


def _write_corpus(folder: Path, seed: int, count: int) -> tuple[list[str], dict[str, tuple[str, ...]]]:
    """Space files in (original, permuted) pairs, and the centers of each ultrametric file."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from helpers import permuted_copy, random_semimetric, random_star, random_ultrametric
    from starmetric import (
        find_centers,
        generate_ultrametric,
        is_ultrametric,
        path_tree_x4,
        path_tree_y4,
        space_to_json,
        validate_semimetric,
        x4_space,
        y4_space,
    )

    rng = Random(seed)
    spaces = [x4_space(), y4_space(), generate_ultrametric(path_tree_x4()), generate_ultrametric(path_tree_y4())]
    makers = (
        lambda: random_semimetric(rng, rng.randint(1, 12)),
        lambda: random_ultrametric(rng, rng.randint(1, 24)),
        lambda: generate_ultrametric(random_star(rng, max_leaves=23)),
    )
    while len(spaces) < count:
        spaces.append(makers[len(spaces) % 3]())
    spaces += [validate_semimetric(["a"], [["0"]]), validate_semimetric(["a", "b"], [["0", "3/2"], ["3/2", "0"]])]
    paths, centers = [], {}
    for i, s in enumerate(spaces):
        for tag, space in (("", s), ("p", permuted_copy(rng, s))):
            path = folder / f"{i:04d}{tag}.json"
            path.write_text(json.dumps(space_to_json(space)))
            paths.append(str(path))
            if is_ultrametric(space):
                centers[str(path)] = find_centers(space)
    return paths, centers


def _write_large(folder: Path, seed: int) -> tuple[list[str], list[str]]:
    """Spaces at n = 128 and 256 with permuted twins, and two faulty 256-point matrices."""
    from helpers import permuted_copy, rand_pos_frac, random_semimetric, random_ultrametric
    from starmetric import LabeledStarGraph, generate_ultrametric, space_to_json

    rng = Random(seed)
    spaces = []
    for n in (128, 256):
        leaves = [(f"u{i + 1}", rand_pos_frac(rng)) for i in range(n - 1)]
        spaces += [
            random_semimetric(rng, n),
            random_ultrametric(rng, n),
            generate_ultrametric(LabeledStarGraph.of("c", 0, leaves)),
        ]
    objs = []
    for s in spaces:
        objs += [space_to_json(s), space_to_json(permuted_copy(rng, s))]
    faulty = []
    for cell in ("1", 0.5):  # a nonzero diagonal; a float cell
        obj = space_to_json(spaces[-1])
        obj["dist"][-1][-1] = cell
        faulty.append(obj)
    return _dump(folder, "large", objs), _dump(folder, "faulty", faulty)


def _write_routes(folder: Path) -> list[str]:
    """``weaksim`` pairs, first and second file alternately, for the routes the bulk corpus rarely takes.

    Rank sums that agree while the sorted rows do not; a space that is not
    ultrametric with ten twins, against a relabeled copy; a 20-point cubic
    graph as a two-valued space against a relabeled copy and against a
    second cubic graph; and ``decoy_pair``'s ultrametrics with equal sorted
    rows, on which a search pruned by sorted rows alone backtracks through
    twins: a 32-point pair that is not similar and a 48-point pair that
    is, each in both directions.
    """
    from helpers import cubic_pair, decoy_pair, permuted_copy, twins_with_one_fault
    from starmetric import space_to_json, validate_semimetric

    rows_a = [["0", "1", "1", "4"], ["1", "0", "3", "2"], ["1", "3", "0", "3"], ["4", "2", "3", "0"]]
    rows_b = [["0", "2", "2", "2"], ["2", "0", "1", "3"], ["2", "1", "0", "4"], ["2", "3", "4", "0"]]
    twins = twins_with_one_fault(12, prefix="t")
    cubic, relabeled, other = cubic_pair(20, CUBIC_SEED)
    spaces = [validate_semimetric(["p1", "p2", "p3", "p4"], rows_a), validate_semimetric(["q1", "q2", "q3", "q4"], rows_b)]
    spaces += [twins, permuted_copy(Random(5), twins), cubic, relabeled, cubic, other]
    for a, b in (decoy_pair(4), decoy_pair(3, similar=True)):
        spaces += [a, b, b, a]
    return _dump(folder, "route", [space_to_json(s) for s in spaces])


def _write_presentations(folder: Path, seed: int) -> tuple[list[str], list[str]]:
    from helpers import rand_pos_frac

    rng = Random(seed)
    stars = []
    for _ in range(3):
        exceptional = [str(rand_pos_frac(rng)) for _ in range(rng.randint(1, 4))]
        ratio = f"{rng.randint(1, 4)}/{rng.randint(5, 9)}"
        for tail in (
            {"kind": "harmonic", "c": str(rand_pos_frac(rng))},
            {"kind": "geometric", "a": str(rand_pos_frac(rng)), "r": ratio},
        ):
            stars.append({"center_label": "0", "exceptional": exceptional, "tail": tail})
    stars.append({"center_label": "0", "exceptional": ["2"], "tail": {"kind": "constant", "q": "1"}})
    rays = [{"prefix": [], "tail": {"kind": "finite"}, "decreasing": True}]
    for star in stars:
        prefix = sorted(star["exceptional"], key=Fraction, reverse=True)
        decreasing = [str(Fraction(x) + 1) for x in prefix]
        rays.append({"prefix": decreasing, "tail": star["tail"], "decreasing": True, "skip": rng.randint(0, 3)})
        rays.append({"prefix": star["exceptional"], "tail": star["tail"]})
    stars.append({"center_label": "0", "exceptional": ["1/2"], "tail": {"kind": "harmonic", "c": "1"}, "skip": 2})
    # a star and a ray in one object, each field broken in turn; both verbs read it
    both = {"center_label": "0", "exceptional": ["1/2"], "prefix": ["2"], "decreasing": True}
    tails = [{"kind": kind, "c": "1"} for kind in (["harmonic"], {}, 7, "nope")]
    tails += [{"kind": "harmonic"}, {"kind": "geometric", "r": "1/2"}, {"kind": "geometric", "a": "1"}]
    tails += [{"kind": "constant"}, {"kind": "harmonic", "c": 0.5}, {"kind": "harmonic", "c": None}]
    broken = [{**both, "tail": tail} for tail in tails]
    fields = [("skip", True), ("skip", -1), ("skip", 10_001), ("decreasing", "yes"), ("exceptional", "1/2")]
    broken += [{**both, "tail": {"kind": "harmonic", "c": "1"}, key: value} for key, value in fields]
    broken = _dump(folder, "broken", broken)
    return _dump(folder, "star", stars) + broken, _dump(folder, "ray", rays) + broken


def _dump(folder: Path, tag: str, objs: list[dict]) -> list[str]:
    paths = []
    for i, obj in enumerate(objs):
        path = folder / f"{tag}{i:02d}.json"
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    return paths


def _write_trees(folder: Path, seed: int) -> list[str]:
    from helpers import random_star, random_tree
    from starmetric import LabeledStarGraph, LabeledTree, format_tree_text

    rng = Random(seed)
    texts = [format_tree_text(random_tree(rng, rng.randint(1, 12))) for _ in range(6)]
    texts += [format_tree_text(random_star(rng)) for _ in range(4)]
    texts.append("a 0\nb 0\nc 1\na -- b\nb -- c\n")
    # large trees with labels tied to six values, 0 among them, and no edge zero at both ends
    pool = [Fraction(k, 4) for k in range(6)]
    for n, shape in ((128, "tree"), (256, "tree"), (300, "path")):
        names = [f"v{i + 1}" for i in range(n)]
        parents = [rng.randint(0, i - 1) if shape == "tree" else i - 1 for i in range(1, n)]
        labels = [rng.choice(pool) for _ in names]
        for i, p in enumerate(parents, start=1):
            if labels[i] == 0 and labels[p] == 0:
                labels[i] = pool[1]
        listed = rng.sample(range(n), n)  # vertex order does not follow the tree
        edges = [(names[p], names[i]) for i, p in enumerate(parents, start=1)]
        tree = LabeledTree.of([(names[i], labels[i]) for i in listed], edges)
        texts.append(format_tree_text(tree))
    leaves = [(f"u{i + 1}", rng.choice(pool[1:])) for i in range(256)]
    texts.append(format_tree_text(LabeledStarGraph.of("c", 0, leaves)))
    # leaf labels below the center label are no distance of the space
    for size in (1, 5, 12, 40):
        leaves = [(f"u{i + 1}", rng.choice(pool)) for i in range(size)]
        texts.append(format_tree_text(LabeledStarGraph.of("c", pool[3], leaves)))
    paths = []
    for i, text in enumerate(texts):
        path = folder / f"tree{i:02d}.txt"
        path.write_text(text)
        paths.append(str(path))
    return paths


def _write_malformed(folder: Path) -> tuple[list[str], dict[str, list[str]]]:
    """Bad space files: each axiom broken in turn, one equal pair in two spellings, a ``1e+_`` cell, a file
    that is not UTF-8 and one nested too deep to decode; and by kind, a tree, a star and a ray file that are not
    UTF-8 and a star file nested too deep to decode."""
    dists = [
        [["1", "1"], ["1", "0"]],
        [["0", "1/2", "1"], ["2/4", "0", "1"], ["1", "1", "0"]],
        [["0", "1/2", "1"], ["3/4", "0", "1"], ["1", "1", "0"]],
    ]
    dists += [[["0", x], [x, "0"]] for x in ("-1", "0", 0.5, True, "1/" + "3" * 1000, "1e2000", "1e+_")]
    paths = []
    for i, dist in enumerate(dists):
        path = folder / f"malformed{i:02d}.json"
        path.write_text(json.dumps({"points": [f"p{j + 1}" for j in range(len(dist))], "dist": dist}))
        paths.append(str(path))
    star = {"center_label": "0", "exceptional": ["1/2"], "tail": {"kind": "harmonic", "c": "1"}}
    ray = {"prefix": ["1"], "tail": {"kind": "geometric", "a": "1", "r": "1/2"}, "decreasing": True}
    deep = "[" * 100_000 + "]" * 100_000
    files = {  # JSON saved as UTF-16, a tree text saved as Latin-1, and JSON nested past the decoder's recursion limit
        "not_utf8_space": json.dumps({"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}).encode("utf-16"),
        "not_utf8_tree": "caf\u00e9 0\nb 1\ncaf\u00e9 -- b\n".encode("latin-1"),
        "not_utf8_star": json.dumps(star).encode("utf-16"),
        "not_utf8_ray": json.dumps(ray).encode("utf-16"),
        "deep_space": ('{"points": ["a", "b"], "dist": [["0", %s], ["1", "0"]]}' % deep).encode(),
        "deep_star": ('{"center_label": "0", "exceptional": [%s], "tail": {"kind": "harmonic", "c": "1"}}' % deep).encode(),
    }
    by_kind = {"space": [], "tree": [], "star": [], "ray": []}
    for name, data in files.items():
        path = folder / name
        path.write_bytes(data)
        by_kind[name.rpartition("_")[2]].append(str(path))
    return paths + by_kind.pop("space"), by_kind


def _star_commands(path: str, points: list[str], centers: tuple[str, ...]) -> list[list[str]]:
    """``star`` at a second center, at a point that is no center, and with ``--dot``."""
    if not centers:
        return []
    cmds = [["star", path, "--dot", path[: -len(".json")] + ".dot"]]
    if len(centers) > 1:
        cmds.append(["star", path, "--center", centers[1]])
    others = [p for p in points if p not in centers]
    if others:
        cmds.append(["star", path, "--center", others[0]])
    return cmds


def _commands(
    corpus: tuple[list[str], dict[str, tuple[str, ...]]],
    presentations: tuple[list[str], list[str]],
    trees: list[str],
    malformed: tuple[list[str], dict[str, list[str]]],
    large: tuple[list[str], list[str]],
    routes: list[str],
) -> list[list[str]]:
    cmds = [
        ["enumerate", "--n", "6"],
        ["enumerate", "--n", "8"],
        ["enumerate", "--n", "7", "--jobs", "2"],
        ["verify", "--theorem", "4.3", "--n", "6"],
        ["verify", "--theorem", "4.3", "--n", "8"],
        ["verify", "--theorem", "4.6"],
    ]
    paths, centers = corpus
    for i in range(0, len(paths), 2):
        path, twin = paths[i], paths[i + 1]
        cmds += [[verb, path] for verb in ("check", "us", "witness", "star", "probe")]
        cmds += [["weaksim", path, twin], ["weaksim", path, paths[(i + 2) % len(paths)]]]
    for path, found in centers.items():
        points = json.loads(Path(path).read_text())["points"]
        cmds += _star_commands(path, points, found)
    stars, rays = presentations
    for star in stars:
        cmds += [["compact", star], ["ray", star], ["ray", star, "--truncate", "16"], ["ray", star, "--truncate", "64"]]
    cmds += [["complete", ray] for ray in rays]
    cmds += [["gen", path] for path in trees]
    bad_spaces, bad_files = malformed
    for path in bad_spaces:
        cmds += [[verb, path] for verb in ("check", "us", "witness", "star", "probe")]
    cmds += [["gen", path] for path in bad_files["tree"]]
    cmds += [[verb, path] for path in bad_files["star"] for verb in ("compact", "ray")]
    cmds += [["complete", path] for path in bad_files["ray"]]
    spaces, faulty = large
    for i in range(0, len(spaces), 2):
        path, twin = spaces[i], spaces[i + 1]
        cmds += [["check", path], ["us", path], ["weaksim", path, twin], ["weaksim", path, spaces[(i + 2) % len(spaces)]]]
        cmds += [["probe", path], ["star", path]]
    for path in faulty:
        cmds += [["check", path], ["us", path]]
    cmds += [["weaksim", path, twin] for path, twin in zip(routes[::2], routes[1::2])]
    return [c + extra for c in cmds for extra in ([], ["--json"])]


def _run(src: str, cmds: list[list[str]]) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    feed = "".join(json.dumps(c) + "\n" for c in cmds)
    proc = subprocess.run([sys.executable, "-c", _RUNNER], input=feed, capture_output=True, text=True, env=env, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        cmds = _commands(
            _write_corpus(folder, args.seed, args.count),
            _write_presentations(folder, args.seed),
            _write_trees(folder, args.seed),
            _write_malformed(folder),
            _write_large(folder, args.seed),
            _write_routes(folder),
        )
        old, new = _run(args.old_src, cmds), _run(args.new_src, cmds)
    crashed = [(a, b) for a, b in zip(old, new) if str(a[1]).startswith("raised")]
    diffs = [(a, b) for a, b in zip(old, new) if a != b and not str(a[1]).startswith("raised")]
    for a, b in diffs[:5]:
        print(f"differs: {a[0]}\n  old: {a[1:]}\n  new: {b[1:]}")
    outcomes = sorted({f"{a[1]} -> {b[1]}" for a, b in crashed})
    print(f"{len(cmds)} commands, {len(diffs)} differ; {len(crashed)} raised under OLD_SRC ({', '.join(outcomes)})")
    return 1 if diffs or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
