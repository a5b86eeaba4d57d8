"""Each space's decisions are computed once, and stars are built without re-validation.

The nearest-neighbour ranks (the row minima, read off the chain by
``decision._chain_minima``) are kept on the immutable space after their
first use, as ``ultrametric_witness`` is; the ultrametric precondition
is still checked on every call.  ``build_star`` hands its star over
through ``_trusted``; these tests pin it to the star built
through the validating constructor, kept in ``helpers``.
``generate_ultrametric`` finds a zero-zero edge on label ranks and
names it with ``generating_violation``.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from starmetric import (
    LabeledStarGraph,
    LabeledTree,
    NotUltrametric,
    build_star,
    center_extension_probe,
    find_centers,
    find_forbidden_quadruple,
    generate_ultrametric,
    is_us,
    reorder,
    semimetric_us_check,
    space_from_json,
    space_to_json,
    ultrametric_violation,
    validate_semimetric,
    x4_space,
    y4_space,
)
from starmetric import decision
from starmetric.harness import enumerate_classes
from starmetric.spaces import UnknownPoint
from starmetric.trees import NotGenerating, generating_violation

from helpers import (
    fraction_generate_ultrametric,
    permuted_copy,
    random_star,
    random_tree,
    random_ultrametric,
    validated_build_star,
)


def _spaces():
    rng = Random(1401)
    out = [x4_space(), y4_space()]
    out += [random_ultrametric(rng, n) for n in (1, 2, 3, 5, 8, 13)]
    out += [permuted_copy(rng, generate_ultrametric(random_star(rng, 12))) for _ in range(6)]
    return out


def _decide(text: str):
    """One space's JSON through every decision verb, as the ``decide`` benchmark op runs them."""
    s = space_from_json(json.loads(text))
    assert ultrametric_violation(s) is None
    centers = find_centers(s)
    if find_forbidden_quadruple(s) is None:
        assert center_extension_probe(s).success
    for c in centers:
        assert reorder(generate_ultrametric(build_star(s, c)), s.points) == s
    if len(s) != 3:
        assert semimetric_us_check(s).in_us == bool(centers)
    return s, centers


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: f"n{len(s)}")
def test_row_minima_run_once_per_space_through_a_decide_sequence(space, monkeypatch):
    seen = []
    kernel = decision._chain_minima

    def counted(order, join):
        seen.append(order)
        return kernel(order, join)

    monkeypatch.setattr(decision, "_chain_minima", counted)
    s, _ = _decide(json.dumps(space_to_json(space)))
    # the space itself; the probe hands its one-point extension the nearest ranks
    assert [order is s.hierarchy[0] for order in seen] == [True]


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: f"n{len(s)}")
def test_obstruction_search_keeps_nothing_on_the_space(space):
    # what the search reads and keeps is the ultrametric check's and the nearest ranks'
    ultrametric_violation(space)
    decision._nearest(space)
    before = dict(vars(space))
    first = find_forbidden_quadruple(space)
    assert vars(space) == before
    assert find_forbidden_quadruple(space) == first
    assert (first is None) == is_us(space)


def test_non_ultrametric_input_raises_on_every_call():
    s = validate_semimetric(["a", "b", "c", "d"], [
        ["0", "1", "3", "1"],
        ["1", "0", "1", "1"],
        ["3", "1", "0", "1"],
        ["1", "1", "1", "0"],
    ])
    for _ in range(3):
        for call in (find_centers, find_forbidden_quadruple, is_us, lambda s: build_star(s, "b")):
            with pytest.raises(NotUltrametric, match=r"d\(a,c\) = 3 > 1"):
                call(s)


def test_build_star_rejects_a_name_outside_the_space():
    s = generate_ultrametric(LabeledStarGraph.of("c", 0, [("u", 1), ("v", Fraction(1, 2))]))
    with pytest.raises(UnknownPoint, match="unknown point 'zz'"):
        build_star(s, "zz")


def _assert_same_star(s, c):
    star, ref = build_star(s, c), validated_build_star(s, c)
    assert type(star) is LabeledStarGraph
    assert star == ref
    assert (star.vertices, star.edges, star.labels) == (ref.vertices, ref.edges, ref.labels)
    assert star._adj == ref._adj
    assert reorder(generate_ultrametric(star), s.points) == s


@pytest.mark.parametrize("n", range(1, 8))
def test_build_star_equals_the_validated_star_on_every_class(n):
    for s in enumerate_classes(n):
        for c in find_centers(s):
            _assert_same_star(s, c)


def test_build_star_equals_the_validated_star_on_random_stars():
    rng = Random(1402)
    for _ in range(150):
        s = permuted_copy(rng, generate_ultrametric(random_star(rng, 15)))
        centers = find_centers(s)
        assert centers
        for c in centers:
            _assert_same_star(s, c)


def test_zero_edges_raise_the_reference_message():
    rng = Random(1403)
    raised = 0
    for _ in range(300):
        base = random_tree(rng, rng.randint(1, 9))
        labels = [Fraction(0) if rng.random() < 0.4 else lab for lab in base.labels]
        t = LabeledTree(base.vertices, base.edges, tuple(labels))
        bad = generating_violation(t)
        if bad is None:
            assert generate_ultrametric(t) == fraction_generate_ultrametric(t)
            continue
        raised += 1
        with pytest.raises(NotGenerating) as exc:
            generate_ultrametric(t)
        assert str(exc.value) == f"edge {bad[0]} -- {bad[1]} has both endpoint labels zero"
    assert 100 < raised < 300
