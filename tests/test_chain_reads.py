"""Nearest ranks, centers and the probe's extension read off the verified chain.

``decision._nearest`` reads each point's nearest rank off ``s.hierarchy``
(the lesser join rank beside the point on the chain), ``find_centers``
reads the leaves of the bottom spine node of a caterpillar hierarchy, and
``center_extension_probe`` hands its one-point extension the input's
chain with the added point in that node; ``find_forbidden_quadruple``
answers None on a caterpillar chain without its pair scan.  These tests pin each read to
the rank-matrix route it stands beside: ``_row_minima``, the rank scan
``_scan_centers``, the pair scan kept in ``helpers``, and the Prim check ``_equals_subdominant``, which
no longer runs on the extension.  Inputs carry three kinds of chain: the one a
catalogue class or a generated space is built with, the Prim chain of a
parsed, relabeled copy, and either read backwards.  ``is_ultrametric`` needs no witness scan.
"""

from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    FiniteSemimetricSpace,
    GeometricTail,
    HarmonicTail,
    InternalInconsistency,
    LabeledStarGraph,
    PreconditionFailed,
    RaySpec,
    center_extension_probe,
    enumerate_classes,
    find_centers,
    find_forbidden_quadruple,
    generate_ultrametric,
    is_ultrametric,
    ray_truncation_space,
    semimetric_us_check,
    ultrametric_violation,
    validate_semimetric,
)
from starmetric import decision, harness, spaces
from starmetric.decision import _nearest, _row_minima, _scan_centers
from starmetric.spaces import _path_maxima

from helpers import (
    brute_centers,
    fraction_ultrametric_violation,
    pair_scan_quadruple,
    permuted_copy,
    rand_pos_frac,
    random_star,
    random_tree,
    random_ultrametric,
)


def _catalogue() -> list:
    """Every class with n <= 8 on its handed-over chain, and a seeded relabeling of each on its Prim chain."""
    rng = Random(1901)
    out = []
    for n in range(1, 9):
        for s in enumerate_classes(n):
            out += [s, permuted_copy(rng, s)]
    return out


def _rays(rng: Random) -> list:
    rays = []
    for _ in range(3):
        tail = HarmonicTail(rand_pos_frac(rng)) if rng.random() < 0.5 else GeometricTail(rand_pos_frac(rng), Fraction(1, 2))
        rays.append(RaySpec((), tail, rng.randint(0, 3), decreasing=True))
        rays.append(RaySpec(tuple(rand_pos_frac(rng, 4) for _ in range(rng.randint(0, 40))), tail))
    return rays


def _seeded() -> list:
    """Generated stars and trees, and seeded star, merge and ray spaces up to n = 64, each also relabeled."""
    rng = Random(1902)
    out = []
    for n in (1, 2, 3, 4, 5, 8, 13, 21, 34, 64):
        out.append(generate_ultrametric(random_star(rng, max_leaves=n)))
        out.append(random_ultrametric(rng, n))
    out += [generate_ultrametric(random_tree(rng, n)) for n in (3, 4, 5, 6, 7, 8, 10, 12) * 3]
    out += [ray_truncation_space(ray, k) for ray in _rays(rng) for k in (1, 2, 5, 16, 64)]
    return out + [permuted_copy(rng, s) for s in out]


def _reversed(s):
    """``s`` with its chain read backwards, which lists each node's leaves against input order.

    Each point then joins at the rank of the point after it on ``s``'s chain.
    """
    order, join = s.hierarchy
    back = [0] * len(order)
    for u, v in zip(order, order[1:]):
        back[u] = join[v]
    chain = (order[::-1], tuple(back))
    return FiniteSemimetricSpace._trusted(points=s.points, spectrum=s.spectrum, ranks=s.ranks, hierarchy=chain)


SPACES = {"catalogue": _catalogue(), "seeded": _seeded()}
SPACES["reversed"] = [_reversed(s) for s in SPACES["seeded"] + SPACES["catalogue"][::7]]


@pytest.mark.parametrize("kind", SPACES)
def test_nearest_ranks_equal_the_row_minima(kind):
    for s in SPACES[kind]:
        assert _nearest(s) == tuple(_row_minima(s.ranks))


@pytest.mark.parametrize("kind", SPACES)
def test_centers_equal_the_rank_scan(kind):
    found = 0
    for s in SPACES[kind]:
        centers = find_centers(s)
        assert centers == _scan_centers(s)
        assert bool(centers) == (find_forbidden_quadruple(s) is None)
        found += bool(centers)
        if len(s) <= 13:
            assert centers == brute_centers(s)
    assert 0 < found < len(SPACES[kind])


@pytest.mark.parametrize("kind", SPACES)
def test_quadruple_equals_the_pair_scan(kind, monkeypatch):
    # a caterpillar chain answers None, so only an obstructed space reaches the pair scan
    wants = [pair_scan_quadruple(s) for s in SPACES[kind]]
    scanned = []
    scan = decision._constructive_quadruple
    monkeypatch.setattr(decision, "_constructive_quadruple", lambda s: scanned.append(s) or scan(s))
    assert [find_forbidden_quadruple(s) for s in SPACES[kind]] == wants
    assert len(scanned) == sum(w is not None for w in wants) > 0


def _chain_edges(chain: tuple) -> list[tuple[int, int, int]]:
    order, join = chain
    return [(join[v], u, v) for u, v in zip(order, order[1:])]


@pytest.mark.parametrize("kind", SPACES)
def test_probe_chain_rebuilds_the_extension(kind):
    probed = 0
    for s in SPACES[kind]:
        if find_forbidden_quadruple(s) is not None:
            continue
        probed += 1
        report = center_extension_probe(s)
        ext = report.extension
        chain = vars(ext)["hierarchy"]  # handed over, so no Prim pass ran on the extension
        assert _path_maxima(len(ext), _chain_edges(chain))[0] == ext.ranks
        assert spaces._equals_subdominant(ext.ranks) is not None
        assert report.success and report.extension_ultrametric and report.added_is_center
        assert report.added_point in _scan_centers(ext)
        assert _nearest(ext) == tuple(_row_minima(ext.ranks))
        assert find_centers(ext) == _scan_centers(ext)
    assert probed > 10


def test_probe_raises_on_a_tampered_bottom_node(monkeypatch):
    rng = Random(1903)
    cases = [s for s in SPACES["seeded"] if len(s) >= 3 and find_forbidden_quadruple(s) is None]
    cases += [permuted_copy(rng, generate_ultrametric(random_star(rng, 12))) for _ in range(10)]
    bottom = harness._bottom_run
    for s in cases:
        lo, hi = bottom(*s.hierarchy)
        # inserted after chain position at - 1, the added point is in the bottom node only for lo < at <= hi
        # a run of None reads as an obstruction, which the probe rejects as input
        monkeypatch.setattr(harness, "_bottom_run", lambda order, join: None)
        with pytest.raises(PreconditionFailed, match="^input contains a four-point obstruction$"):
            center_extension_probe(s)
        for tampered in [(at - 1, at) for at in range(1, len(s) + 1) if not lo < at <= hi]:
            monkeypatch.setattr(harness, "_bottom_run", lambda order, join: tampered)
            with pytest.raises(InternalInconsistency, match="grown chain"):
                center_extension_probe(s)
        monkeypatch.setattr(harness, "_bottom_run", bottom)


def _star_with_a_last_fault(n: int):
    """The star space on a center and n - 1 leaves labeled 1..n-1, with the last two leaves moved apart.

    Only pairs of the last two points break the strong triangle
    inequality, so the ordered witness scan meets its first one last.
    """
    leaves = [(f"u{i}", Fraction(i)) for i in range(1, n)]
    rows = [list(row) for row in generate_ultrametric(LabeledStarGraph.of("c", 0, leaves)).dist]
    rows[-1][-2] = rows[-2][-1] = Fraction(2 * n)
    return validate_semimetric(["c"] + [p for p, _ in leaves], rows)


def test_is_ultrametric_runs_no_witness_scan(monkeypatch):
    calls = []
    scan = spaces._first_violation
    monkeypatch.setattr(spaces, "_first_violation", lambda s: calls.append(s) or scan(s))
    s = _star_with_a_last_fault(64)
    assert not is_ultrametric(s)
    report = semimetric_us_check(s)
    assert not (report.in_us or report.every4_us or report.every4_tree)
    assert calls == []
    w = ultrametric_violation(s)
    assert w == fraction_ultrametric_violation(s) and (w.x, w.y, w.z) == ("u62", "u63", "c")
    assert calls == [s]


def test_us_check_keeps_two_routes(monkeypatch):
    # in_us comes from the rank scan, the every-4 statements from the chain's shape
    s = generate_ultrametric(LabeledStarGraph.of("c", 0, [(f"u{i}", Fraction(i)) for i in range(1, 8)]))
    monkeypatch.setattr(decision, "_scan_centers", lambda s: ())
    assert semimetric_us_check(s)[:3] == (False, True, True)
    monkeypatch.undo()
    monkeypatch.setattr(decision, "_bottom_run", lambda order, join: None)
    assert semimetric_us_check(s)[:3] == (True, False, False)
