"""Command-line front end.

Exit status is a pure function of the result: 0 when the checked property
holds (or the command simply succeeded), 1 when it fails (a witness is
printed), 2 on input or usage errors, 3 when the program itself fails
(an unexpected exception, reported in one ``error:`` line).  ``--json``
switches every verb to machine-readable output; identical inputs always
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:  # the verbs that use them import these, so other verbs never load ``infinite``
    from .infinite import RaySpec, StarSpec

OK = 0
FAIL = 1
USAGE = 2
CRASH = 3


JOBS_HELP = "worker processes, 1 to the CPU count (default 1; on 2 cores, 1 was fastest)"


class _InputError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON: {exc}") from exc


@contextmanager
def _in_file(path: str, *errors: type[Exception]):
    """Report ``errors`` raised while reading or working on ``path`` as input errors in that file."""
    try:
        yield
    except errors as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _read_space(path: str) -> spaces.FiniteSemimetricSpace:
    with _in_file(path, spaces.SpaceError):
        return space_from_json(_read_json(path))


def _read_star(path: str) -> StarSpec:
    from .infinite import InfiniteModelError, StarSpec

    with _in_file(path, InfiniteModelError, TreeError, ValueError):
        return StarSpec.from_json(_read_json(path))


def _read_ray(path: str) -> RaySpec:
    from .infinite import InfiniteModelError, RaySpec

    with _in_file(path, InfiniteModelError, ValueError):
        return RaySpec.from_json(_read_json(path))


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    else:
        print(human)


def _cmd_check(args) -> int:
    try:
        space = space_from_json(_read_json(args.space))
    except spaces.SpaceError as exc:
        _emit(args, {"valid": False, "error": str(exc)}, f"invalid semimetric: {exc}")
        return FAIL
    w = ultrametric_violation(space)
    if w is None:
        _emit(args, {"valid": True, "ultrametric": True}, "ultrametric")
        return OK
    _emit(
        args,
        {"valid": True, "ultrametric": False, "witness": w.to_json()},
        f"not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs} = max(d({w.x},{w.z}), d({w.z},{w.y}))",
    )
    return FAIL


def _cmd_us(args) -> int:
    space = _read_space(args.space)
    w = ultrametric_violation(space)
    if w is not None:
        _emit(
            args,
            {"in_us": False, "ultrametric": False, "witness": w.to_json()},
            f"not ultrametric: d({w.x},{w.y}) = {w.lhs} > {w.rhs}",
        )
        return FAIL
    centers = find_centers(space)
    if centers:
        _emit(
            args,
            {"in_us": True, "centers": list(centers)},
            "star-generated; centers: " + ", ".join(centers),
        )
        return OK
    _emit(args, {"in_us": False, "centers": []}, "not star-generated: no center point")
    return FAIL


def _cmd_witness(args) -> int:
    space = _read_space(args.space)
    rep = find_forbidden_quadruple(space)
    if rep is None:
        _emit(args, {"quadruple": None}, "no four-point obstruction")
        return OK
    _emit(
        args,
        {"quadruple": rep.to_json()},
        f"{rep.kind} obstruction on ({rep.x}, {rep.y}, {rep.z}, {rep.w}): "
        f"cross {rep.big}, pairs {rep.small1} and {rep.small2}",
    )
    return FAIL


def _cmd_star(args) -> int:
    space = _read_space(args.space)
    centers = find_centers(space)
    if not centers:
        _emit(args, {"in_us": False, "centers": []}, "not star-generated: no center point")
        return FAIL
    center = args.center if args.center is not None else centers[0]
    try:
        star = build_star(space, center)
    except NotACenter as exc:
        _emit(args, {"error": str(exc), "centers": list(centers)}, str(exc))
        return FAIL
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(star))
    payload = {
        "center": star.center,
        "labels": {star.center: str(star.center_label)}
        | {leaf: str(lab) for leaf, lab in zip(star.leaves, star.leaf_labels)},
    }
    _emit(args, payload, trees.format_tree_text(star).rstrip("\n"))
    return OK


def _cmd_gen(args) -> int:
    try:
        with open(args.tree, "r", encoding="utf-8") as fh:
            tree = parse_tree_text(fh.read())
    except OSError as exc:
        raise _InputError(f"cannot read {args.tree}: {exc}") from exc
    except TreeError as exc:
        raise _InputError(f"{args.tree}: {exc}") from exc
    try:
        space = generate_ultrametric(tree)
    except trees.NotGenerating as exc:
        _emit(args, {"error": str(exc)}, str(exc))
        return FAIL
    print(json.dumps(space_to_json(space), separators=(",", ":"), sort_keys=True))
    return OK


def _cmd_ray(args) -> int:
    from .infinite import FiniteSpec, InfiniteModelError, NotCompact, ray_truncation_space, star_to_ray

    spec = _read_star(args.star)
    with _in_file(args.star, InfiniteModelError):
        try:
            ray = star_to_ray(spec)
        except (NotCompact, FiniteSpec) as exc:
            _emit(args, {"error": str(exc)}, str(exc))
            return FAIL
        if args.truncate:
            space = ray_truncation_space(ray, args.truncate)
            print(json.dumps(space_to_json(space), separators=(",", ":"), sort_keys=True))
            return OK
        _emit(
            args,
            {"ray": ray.to_json()},
            "decreasing ray labels: "
            + ", ".join(str(x) for x in ray.labels(8))
            + ", ...",
        )
    return OK


def _cmd_complete(args) -> int:
    from .infinite import InfiniteModelError, NotDecreasingToZero, ray_to_completion

    ray = _read_ray(args.ray)
    with _in_file(args.ray, InfiniteModelError):
        try:
            model = ray_to_completion(ray)
        except NotDecreasingToZero as exc:
            _emit(args, {"error": str(exc)}, str(exc))
            return FAIL
        _emit(
            args,
            {"completion": model.to_json()},
            f"completion adds point {model.added_point} with center label 0",
        )
    return OK


def _cmd_compact(args) -> int:
    from .infinite import InfiniteModelError, is_compact_star

    spec = _read_star(args.star)
    with _in_file(args.star, InfiniteModelError):
        rep = is_compact_star(spec)
        _emit(
            args,
            {"compactness": rep.to_json()},
            ("compact" if rep.compact else "not compact") + f" ({rep.reason})"
            + (f" at epsilon={rep.epsilon}" if rep.epsilon is not None else ""),
        )
    return OK if rep.compact else FAIL


def _cmd_weaksim(args) -> int:
    from .similarity import weak_similarity_bijection

    a = _read_space(args.a)
    b = _read_space(args.b)
    phi = weak_similarity_bijection(a, b)
    if phi is None:
        _emit(args, {"weakly_similar": False}, "not weakly similar")
        return FAIL
    _emit(
        args,
        {"weakly_similar": True, "bijection": phi},
        "weakly similar: " + ", ".join(f"{u} -> {v}" for u, v in phi.items()),
    )
    return OK


def _cmd_enumerate(args) -> int:
    total = us_count = 0
    for space, us in map_classes(is_us, args.n, args.jobs):
        total += 1
        us_count += us
        if args.json:
            print(
                json.dumps(
                    {"class": total, "us": us, "space": space_to_json(space)},
                    separators=(",", ":"),
                    sort_keys=True,
                )
            )
    summary = {
        "n": args.n,
        "classes": total,
        "us_classes": us_count,
        "obstructed_classes": total - us_count,
    }
    if args.json:
        print(json.dumps({"summary": summary}, separators=(",", ":"), sort_keys=True))
    else:
        print(f"n={args.n}: {total} classes up to weak similarity")
        print(f"  star-generated: {us_count}")
        print(f"  obstructed:     {total - us_count}")
    return OK


def _cmd_verify(args) -> int:
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
    _emit(args, {"report": rep.to_json()}, human)
    return OK if rep.ok else FAIL


def _cmd_probe(args) -> int:
    space = _read_space(args.space)
    try:
        rep = center_extension_probe(space)
    except PreconditionFailed as exc:
        raise _InputError(str(exc)) from exc
    _emit(
        args,
        {"probe": rep.to_json()},
        ("probe succeeded: " if rep.success else "probe failed: ") + rep.note,
    )
    return OK if rep.success else FAIL


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return USAGE if exc.code not in (0, None) else OK
    fn: Callable = args.fn
    try:
        # a pool starts all its workers at once: a typo must not fork thousands
        if not 1 <= getattr(args, "jobs", 1) <= (os.cpu_count() or 1):
            raise _InputError(f"--jobs must be between 1 and {os.cpu_count() or 1} (the CPU count), got {args.jobs}")
        return fn(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (spaces.SpaceError, TreeError, BoundExceeded, NotUltrametric) as exc:
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
