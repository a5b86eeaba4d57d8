"""Command-line front end.

Exit status is a pure function of the result: 0 when the checked property
holds (or the command simply succeeded), 1 when it fails (a witness is
printed), 2 on input or usage errors, 3 when the program itself fails
(an unexpected exception, reported in one ``error:`` line), and 141 when
the reader closed stdout early (as ``| head`` does).  One writer, ``run``,
prints every verb's result: its JSON payload under ``--json`` (always for
``gen`` and ``ray --truncate``), byte-identical for identical inputs, and
its human text otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Callable

from . import spaces, trees
from .decision import (
    NotACenter,
    NotUltrametric,
    build_star,
    find_centers,
    find_forbidden_quadruple,
    is_us,
)
from .harness import (
    BoundExceeded,
    PreconditionFailed,
    center_extension_probe,
    map_classes,
    verify_obstruction_equivalence,
    verify_tree_equivalence,
)
from .spaces import space_from_json, space_to_json, ultrametric_violation
from .trees import TreeError, generate_ultrametric, parse_tree_text, to_dot

OK = 0
FAIL = 1
USAGE = 2
CRASH = 3
CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left

Outcome = tuple[int, dict, str | None]  # exit code, JSON payload, human text (None: the payload either way)


JOBS_HELP = "worker processes, 1 to the CPU count (default 1; on 2 cores, 1 was fastest)"


class _InputError(Exception):
    pass


def _read(path: str, parse: Callable, *errors: type[Exception]):
    """``parse`` the UTF-8 text of ``path``; a file that cannot be read or decoded, JSON nested too deep to
    decode, and ``errors`` that ``parse`` raises, are input errors in that file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc
    except (UnicodeDecodeError, RecursionError, *errors) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _json(from_json: Callable) -> Callable:
    """A parser of JSON text that hands the decoded value to ``from_json``."""
    return lambda text: from_json(json.loads(text))


@contextmanager
def _in_file(path: str, *errors: type[Exception]):
    """Report ``errors`` raised while working on ``path`` as input errors in that file."""
    try:
        yield
    except errors as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _line(payload: dict) -> str:
    """The one JSON encoding of every payload and of ``enumerate``'s streamed lines."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _cmd_check(args) -> Outcome:
    w = ultrametric_violation(_read(args.space, _json(space_from_json), spaces.SpaceError))
    if w is None:
        return OK, {"valid": True, "ultrametric": True}, "ultrametric"
    return (
        FAIL,
        {"valid": True, "ultrametric": False, "witness": w.to_json()},
        f"not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs} = max(d({w.x},{w.z}), d({w.z},{w.y}))",
    )


def _cmd_us(args) -> Outcome:
    space = _read(args.space, _json(space_from_json), spaces.SpaceError)
    w = ultrametric_violation(space)
    if w is not None:
        return (
            FAIL,
            {"in_us": False, "ultrametric": False, "witness": w.to_json()},
            f"not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs}",
        )
    centers = find_centers(space)
    if centers:
        return (
            OK,
            {"in_us": True, "centers": list(centers)},
            "star-generated; centers: " + ", ".join(centers),
        )
    return FAIL, {"in_us": False, "centers": []}, "not star-generated: no center point"


def _cmd_witness(args) -> Outcome:
    space = _read(args.space, _json(space_from_json), spaces.SpaceError)
    rep = find_forbidden_quadruple(space)
    if rep is None:
        return OK, {"quadruple": None}, "no four-point obstruction"
    return (
        FAIL,
        {"quadruple": rep.to_json()},
        f"{rep.kind} obstruction on ({rep.x}, {rep.y}, {rep.z}, {rep.w}): "
        f"cross {rep.big}, pairs {rep.small1} and {rep.small2}",
    )


def _cmd_star(args) -> Outcome:
    space = _read(args.space, _json(space_from_json), spaces.SpaceError)
    centers = find_centers(space)
    if not centers:
        return FAIL, {"in_us": False, "centers": []}, "not star-generated: no center point"
    center = args.center if args.center is not None else centers[0]
    try:
        star = build_star(space, center)
    except NotACenter as exc:
        return FAIL, {"error": str(exc), "centers": list(centers)}, str(exc)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(to_dot(star))
        except OSError as exc:
            raise _InputError(f"cannot write {args.dot}: {exc}") from exc
    payload = {"center": star.center, "labels": {v: str(lab) for v, lab in zip(star.vertices, star.labels)}}
    return OK, payload, trees.format_tree_text(star).rstrip("\n")


def _cmd_gen(args) -> Outcome:
    tree = _read(args.tree, parse_tree_text, TreeError)
    try:
        space = generate_ultrametric(tree)
    except trees.NotGenerating as exc:
        return FAIL, {"error": str(exc)}, str(exc)
    return OK, space_to_json(space), None


def _cmd_ray(args) -> Outcome:
    from .infinite import FiniteSpec, InfiniteModelError, NotCompact, StarSpec, ray_truncation_space, star_to_ray

    spec = _read(args.star, _json(StarSpec.from_json), ValueError)
    with _in_file(args.star, InfiniteModelError):
        try:
            ray = star_to_ray(spec)
        except (NotCompact, FiniteSpec) as exc:
            return FAIL, {"error": str(exc)}, str(exc)
        if args.truncate:
            return OK, space_to_json(ray_truncation_space(ray, args.truncate)), None
        # the labels are built under --json too: one past the digit bound is an input error either way
        return (
            OK,
            {"ray": ray.to_json()},
            "decreasing ray labels: "
            + ", ".join(str(x) for x in ray.labels(8))
            + ", ...",
        )


def _cmd_complete(args) -> Outcome:
    from .infinite import InfiniteModelError, NotDecreasingToZero, RaySpec, ray_to_completion

    ray = _read(args.ray, _json(RaySpec.from_json), ValueError)
    with _in_file(args.ray, InfiniteModelError):
        try:
            model = ray_to_completion(ray)
        except NotDecreasingToZero as exc:
            return FAIL, {"error": str(exc)}, str(exc)
        return (
            OK,
            {"completion": model.to_json()},
            f"completion adds point {model.added_point} with center label 0",
        )


def _cmd_compact(args) -> Outcome:
    from .infinite import InfiniteModelError, StarSpec, is_compact_star

    spec = _read(args.star, _json(StarSpec.from_json), ValueError)
    with _in_file(args.star, InfiniteModelError):
        rep = is_compact_star(spec)
        return (
            OK if rep.compact else FAIL,
            {"compactness": rep.to_json()},
            ("compact" if rep.compact else "not compact") + f" ({rep.reason})"
            + (f" at epsilon={rep.epsilon}" if rep.epsilon is not None else ""),
        )


def _cmd_weaksim(args) -> Outcome:
    from .similarity import weak_similarity_bijection

    a, b = (_read(path, _json(space_from_json), spaces.SpaceError) for path in (args.a, args.b))
    phi = weak_similarity_bijection(a, b)
    if phi is None:
        return FAIL, {"weakly_similar": False}, "not weakly similar"
    return (
        OK,
        {"weakly_similar": True, "bijection": phi},
        "weakly similar: " + ", ".join(f"{u} -> {v}" for u, v in phi.items()),
    )


def _cmd_enumerate(args) -> Outcome:
    total = us_count = 0
    for space, us in map_classes(is_us, args.n, args.jobs):
        total += 1
        us_count += us
        if args.json:  # one line per class as it is decided, ahead of the summary
            print(_line({"class": total, "us": us, "space": space_to_json(space)}))
    summary = {
        "n": args.n,
        "classes": total,
        "us_classes": us_count,
        "obstructed_classes": total - us_count,
    }
    return (
        OK,
        {"summary": summary},
        f"n={args.n}: {total} classes up to weak similarity\n"
        f"  star-generated: {us_count}\n"
        f"  obstructed:     {total - us_count}",
    )


def _cmd_verify(args) -> Outcome:
    if args.theorem == "4.3":
        if args.n is None:
            raise _InputError("verify --theorem 4.3 requires --n")
        rep = verify_obstruction_equivalence(args.n, jobs=args.jobs)
        human = (
            f"n={rep.n}: {rep.classes} classes, {rep.us_classes} star-generated, "
            f"{rep.obstructed_classes} obstructed ({dict(rep.kind_counts)}), "
            f"{len(rep.discrepancies)} discrepancies"
        )
    else:
        rep = verify_tree_equivalence()
        human = (
            f"{rep.classes_checked} classes with n <= 4 checked, "
            f"{len(rep.discrepancies)} discrepancies; "
            f"five-point witnesses: "
            + ", ".join(
                f"tree_generated={w.tree_generated}, star_generated={w.star_generated}"
                for w in rep.five_point_witnesses
            )
        )
    return OK if rep.ok else FAIL, {"report": rep.to_json()}, human


def _cmd_probe(args) -> Outcome:
    space = _read(args.space, _json(space_from_json), spaces.SpaceError)
    try:
        rep = center_extension_probe(space)
    except PreconditionFailed as exc:
        raise _InputError(str(exc)) from exc
    return OK, {"probe": rep.to_json()}, "probe succeeded: " + rep.note


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starmetric",
        description="Ultrametric spaces generated by labeled star graphs: checks, witnesses, constructions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", parents=[common], help="validate a space and test ultrametricity")
    p.add_argument("space")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("us", parents=[common], help="decide star-generability and list centers")
    p.add_argument("space")
    p.set_defaults(fn=_cmd_us)

    p = sub.add_parser("witness", parents=[common], help="find a four-point obstruction")
    p.add_argument("space")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("star", parents=[common], help="build a generating star from a center")
    p.add_argument("space")
    p.add_argument("--center", default=None, help="center point id (default: first reported)")
    p.add_argument("--dot", default=None, help="write DOT export to this file")
    p.set_defaults(fn=_cmd_star)

    p = sub.add_parser("gen", parents=[common], help="tree text file -> space JSON")
    p.add_argument("tree")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("ray", parents=[common], help="compact star JSON -> decreasing ray")
    p.add_argument("star")
    p.add_argument("--truncate", type=int, default=0, metavar="K", help="emit the first K ray points as space JSON")
    p.set_defaults(fn=_cmd_ray)

    p = sub.add_parser("complete", parents=[common], help="decreasing ray JSON -> completion model")
    p.add_argument("ray")
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("compact", parents=[common], help="decide compactness of a star presentation")
    p.add_argument("star")
    p.set_defaults(fn=_cmd_compact)

    p = sub.add_parser("weaksim", parents=[common], help="decide weak similarity of two spaces")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_weaksim)

    p = sub.add_parser("enumerate", parents=[common], help="enumerate weak-similarity classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[common], help="run an equivalence sweep")
    p.add_argument("--theorem", choices=["4.3", "4.6"], required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("probe", parents=[common], help="one-point center-extension probe")
    p.add_argument("space")
    p.set_defaults(fn=_cmd_probe)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return USAGE if exc.code not in (0, None) else OK
    try:
        # a pool starts all its workers at once: a typo must not fork thousands
        if not 1 <= getattr(args, "jobs", 1) <= (os.cpu_count() or 1):
            raise _InputError(f"--jobs must be between 1 and {os.cpu_count() or 1} (the CPU count), got {args.jobs}")
        code, payload, human = args.fn(args)
        print(_line(payload) if args.json or human is None else human)
        if sys.stdout is not None:  # None when started with stdout closed, and print skips it
            sys.stdout.flush()  # a reader gone early must show here, not at exit
        return code
    except BrokenPipeError:
        # as Python's signal docs advise: stdout goes to devnull, so the
        # flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return CLOSED
    except (_InputError, spaces.SpaceError, TreeError, BoundExceeded, NotUltrametric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        # exit 1 means "the property fails", so a crash must not end with it
        detail = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return CRASH


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
