"""The integer rank core against its Fraction oracle.

``FiniteSemimetricSpace.ranks`` and the cached ultrametric verdict carry
every order-only decision.  These property tests pin them to the direct
Fraction scan in ``helpers`` and to invariance under strictly increasing
maps of the distance values.  Hypothesis runs derandomized, so every run
draws the same examples.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from starmetric import (
    KIND_Y4,
    canonical_form,
    exhaustive_quadruple_scan,
    find_centers,
    find_forbidden_quadruple,
    generate_ultrametric,
    is_ultrametric,
    is_us,
    reorder,
    semimetric_us_check,
    ultrametric_violation,
    validate_semimetric,
    weakly_similar,
)
from starmetric.spaces import _equals_subdominant
from helpers import (
    brute_centers,
    fraction_ultrametric_violation,
    monotone_transform,
    random_star,
    random_ultrametric,
)

MAX_N = 24


@st.composite
def tied_semimetrics(draw):
    """Random rational semimetrics whose entries come from a pool of few values."""
    n = draw(st.integers(1, MAX_N))
    pool = draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
            min_size=1,
            max_size=5,
        )
    )
    entries = iter(draw(st.lists(st.sampled_from(pool), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(entries)
    return validate_semimetric([f"p{i + 1}" for i in range(n)], rows)


@st.composite
def merge_ultrametrics(draw):
    return random_ultrametric(Random(draw(st.integers(0, 2**32))), draw(st.integers(1, MAX_N)))


@st.composite
def star_spaces(draw):
    return generate_ultrametric(random_star(Random(draw(st.integers(0, 2**32))), max_leaves=MAX_N - 1))


@st.composite
def perturbed_ultrametrics(draw):
    """An ultrametric with one pair moved to another spectrum value: near misses."""
    s = draw(merge_ultrametrics())
    n = len(s.points)
    if n < 2:
        return s
    i = draw(st.integers(0, n - 2))
    j = draw(st.integers(i + 1, n - 1))
    values = sorted({v for row in s.dist for v in row if v > 0})
    rows = [list(row) for row in s.dist]
    rows[i][j] = rows[j][i] = draw(st.sampled_from(values))
    return validate_semimetric(s.points, rows)


any_space = st.one_of(tied_semimetrics(), merge_ultrametrics(), star_spaces(), perturbed_ultrametrics())
ultrametric_space = st.one_of(merge_ultrametrics(), star_spaces())


def _stretched(s, seed: int):
    """A random strictly increasing map of the values, and v -> v^2 + v."""
    square = validate_semimetric(s.points, [[v * v + v for v in row] for row in s.dist])
    return monotone_transform(Random(seed), s), square


@settings(derandomize=True, max_examples=150, deadline=None)
@given(any_space)
def test_ultrametric_violation_matches_fraction_scan(s):
    expected = fraction_ultrametric_violation(s)
    got = ultrametric_violation(s)
    assert is_ultrametric(s) == (expected is None)
    # the O(n^2) success path on its own, which the fallback scan would mask
    assert (_equals_subdominant(s.ranks) is not None) == (expected is None)
    if expected is None:
        assert got is None
    else:
        assert (got.x, got.y, got.z) == (expected.x, expected.y, expected.z)
        assert (got.lhs, got.rhs) == (expected.lhs, expected.rhs)
        assert got.to_json() == expected.to_json()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(any_space)
def test_triple_witness_is_valid(s):
    w = ultrametric_violation(s)
    if w is None:
        return
    assert len({w.x, w.y, w.z}) == 3
    assert w.lhs == s.d(w.x, w.y) and w.rhs == max(s.d(w.x, w.z), s.d(w.z, w.y))
    assert w.lhs > w.rhs


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ultrametric_space)
def test_quadruple_witness_is_valid(s):
    for q in (find_forbidden_quadruple(s), exhaustive_quadruple_scan(s)):
        if q is None:
            assert find_centers(s)
            continue
        assert len({q.x, q.y, q.z, q.w}) == 4
        assert s.d(q.x, q.y) == s.d(q.x, q.w) == s.d(q.z, q.y) == s.d(q.z, q.w) == q.big
        assert (q.small1, q.small2) == (s.d(q.x, q.z), s.d(q.y, q.w))
        assert q.small1 < q.big and q.small2 < q.big
        assert (q.kind == KIND_Y4) == (q.small1 == q.small2)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(any_space, st.integers(0, 2**32))
def test_ranks_invariant_under_increasing_maps(s, seed):
    for other in _stretched(s, seed):
        assert other.ranks == s.ranks
    values = sorted({v for row in s.dist for v in row})
    assert all(s.dist[i][j] == values[r] for i, row in enumerate(s.ranks) for j, r in enumerate(row))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ultrametric_space, st.integers(0, 2**32))
def test_centers_and_quadruple_invariant_under_increasing_maps(s, seed):
    centers = find_centers(s)
    quad = find_forbidden_quadruple(s)
    assert centers == brute_centers(s)
    assert bool(centers) == (quad is None)
    for other in _stretched(s, seed):
        assert find_centers(other) == centers
        other_quad = find_forbidden_quadruple(other)
        assert (other_quad is None) == (quad is None)
        if quad is not None:
            assert (other_quad.x, other_quad.y, other_quad.z, other_quad.w, other_quad.kind) == (
                quad.x,
                quad.y,
                quad.z,
                quad.w,
                quad.kind,
            )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(tied_semimetrics(), merge_ultrametrics(), star_spaces()), st.integers(0, 2**32))
def test_decisions_invariant_under_relabeling(s, seed):
    order = list(s.points)
    Random(seed).shuffle(order)
    t = reorder(s, order)
    assert is_ultrametric(t) == is_ultrametric(s)
    # n = 3 raises; the check visits every 4-subset of a star space, 10,626 at n = 24
    if len(s) != 3 and len(s) <= 12:
        assert semimetric_us_check(t) == semimetric_us_check(s)
    assert canonical_form(t).digest == canonical_form(s).digest
    assert weakly_similar(s, t)
    if is_ultrametric(s):
        assert is_us(t) == is_us(s)
        assert (find_forbidden_quadruple(t) is None) == (find_forbidden_quadruple(s) is None)
        centers = set(find_centers(s))
        assert find_centers(t) == tuple(p for p in t.points if p in centers)


def test_verdict_and_ranks_are_cached():
    s = random_ultrametric(Random(3), 9)
    assert s.ranks is s.ranks
    assert ultrametric_violation(s) is None and "ultrametric_witness" in vars(s)
