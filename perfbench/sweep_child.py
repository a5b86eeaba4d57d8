"""Traced stand-in for one sweep verb, run in a fresh interpreter.

Does the work of ``starmetric verify --theorem 4.3 --n N --json`` or
``starmetric enumerate --n N --json`` through public functions, with a
span around each call: the class enumeration, then the per-class
decision calls, then (for ``enumerate``) the JSON emit, all in this
one process as the verbs do without ``--jobs``.  Prints one JSON
object: the spans, the counters and the sha256 of the output the verb
would print, which must match the CLI's.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from spans import Tracer

import starmetric as sm


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


def main(verb: str, n: int) -> dict:
    tr = Tracer(True)
    with tr.span("harness.enumerate"):
        spaces = list(sm.enumerate_classes(n))
    tr.count("harness.enumerate.classes", len(spaces))
    us_flags = []
    kinds = {"X4": 0, "Y4": 0}
    for space in spaces:
        with tr.span("decision.find_centers"):
            us = bool(sm.find_centers(space))
        us_flags.append(us)
        if verb == "verify":
            with tr.span("decision.find_forbidden_quadruple"):
                quad = sm.find_forbidden_quadruple(space)
            with tr.span("decision.exhaustive_quadruple_scan"):
                oracle = sm.exhaustive_quadruple_scan(space)
            if (quad is None) != (oracle is None) or us != (quad is None):
                raise SystemExit("decision routes disagree")
            if quad is not None:
                kinds[quad.kind] += 1
    total, us_count = len(spaces), sum(us_flags)
    if verb == "verify":
        report = {
            "n": n,
            "classes": total,
            "us_classes": us_count,
            "obstructed_classes": sum(kinds.values()),
            "kind_counts": kinds,
            "discrepancies": [],
            "ok": True,
        }
        text = _line({"report": report})
    else:
        with tr.span("cli.emit"), open(os.devnull, "w", encoding="utf-8") as sink:
            lines = [
                _line({"class": i, "us": us, "space": sm.space_to_json(space)})
                for i, (space, us) in enumerate(zip(spaces, us_flags), start=1)
            ]
            summary = {"n": n, "classes": total, "us_classes": us_count, "obstructed_classes": total - us_count}
            lines.append(_line({"summary": summary}))
            text = "".join(lines)
            sink.write(text)
    return {"spans": tr.spans, "counts": dict(tr.counts), "digest": hashlib.sha256(text.encode()).hexdigest()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
