"""The center-extension probe reads its precondition and its verdict off the chain.

On an ultrametric, a caterpillar chain means a center exists, which holds
exactly when there is no four-point obstruction; so the probe rejects an
obstructed input by ``_bottom_run`` alone, and grows the chain with the
added point in its bottom spine node, which makes the extension
ultrametric with the added point a center.  These tests pin the probe to
the earlier one kept in ``helpers``, which searched for the obstruction
and checked its extension: the same report, the same handed-over chain
and the same ``PreconditionFailed`` message, on every class with n <= 8
and on seeded inputs up to n = 64, while neither the obstruction search
nor a center search may run.
"""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    GeometricTail,
    HarmonicTail,
    PreconditionFailed,
    RaySpec,
    center_extension_probe,
    enumerate_classes,
    generate_ultrametric,
    ray_truncation_space,
)
from starmetric import decision, harness

from helpers import (
    permuted_copy,
    rand_pos_frac,
    random_semimetric,
    random_star,
    random_ultrametric,
    searched_center_extension_probe,
)


def _seeded() -> list:
    """Seeded star, ray and merge spaces up to n = 64, each also relabeled, and semimetrics."""
    rng = Random(2101)
    out = []
    for n in (1, 2, 3, 4, 5, 8, 13, 21, 34, 64):
        out.append(generate_ultrametric(random_star(rng, max_leaves=n)))
        out.append(random_ultrametric(rng, n))
        tail = HarmonicTail(rand_pos_frac(rng)) if rng.random() < 0.5 else GeometricTail(rand_pos_frac(rng), Fraction(1, 2))
        out.append(ray_truncation_space(RaySpec((), tail, rng.randint(0, 3), decreasing=True), n))
        prefix = tuple(rand_pos_frac(rng, 4) for _ in range(n))
        out.append(ray_truncation_space(RaySpec(prefix, tail), n))
    out += [permuted_copy(rng, s) for s in out]
    return out + [random_semimetric(rng, n) for n in (3, 4, 5, 8, 13) * 4]


def _outcome(probe, s):
    """The report's JSON and the extension's handed-over chain, or the precondition's message."""
    try:
        rep = probe(s)
    except PreconditionFailed as exc:
        return str(exc)
    return rep.to_json(), vars(rep.extension)["hierarchy"]


def _refuse(*args):
    raise AssertionError("the probe ran a search it reads off the chain")


def _assert_same_outcomes(spaces: list, monkeypatch) -> list:
    """Each space's outcome, the same from both probes, with the searches refused to the chain-read one."""
    want = [_outcome(searched_center_extension_probe, s) for s in spaces]
    monkeypatch.setattr(decision, "_constructive_quadruple", _refuse)
    monkeypatch.setattr(harness, "find_forbidden_quadruple", _refuse)
    monkeypatch.setattr(harness, "find_centers", _refuse)
    assert [_outcome(center_extension_probe, s) for s in spaces] == want
    return want


@pytest.mark.parametrize("n", range(1, 9))
def test_probe_equals_the_searched_probe_on_every_class(n, monkeypatch):
    outcomes = _assert_same_outcomes(list(enumerate_classes(n)), monkeypatch)
    messages = [o for o in outcomes if isinstance(o, str)]
    assert len(outcomes) - len(messages) == 2 ** max(n - 2, 0)  # the US classes
    assert set(messages) == ({"input contains a four-point obstruction"} if n >= 4 else set())


def test_probe_equals_the_searched_probe_on_seeded_spaces(monkeypatch):
    outcomes = _assert_same_outcomes(_seeded(), monkeypatch)
    messages = [o for o in outcomes if isinstance(o, str)]
    assert len(outcomes) - len(messages) > 40
    assert messages.count("input contains a four-point obstruction") > 10
    assert sum(m.startswith("input is not ultrametric: ") for m in messages) > 10
