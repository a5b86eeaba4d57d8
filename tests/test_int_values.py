"""Integer work from the JSON string up to the rank.

``rat`` turns a plain ASCII ``p`` or ``p/q`` string into a ``Fraction``
from two ints, without a regex; every other spelling goes through
``Fraction``'s own parser.  ``spaces._ranked_values`` ranks distinct
values on their integer pairs for parsing, ``ranks`` and tree
generation.  ``reorder`` looks up all names at once, and the probe hands
its extension the nearest ranks.  These tests pin each to ``Fraction``'s parser or to the earlier code
kept in ``helpers``.  Hypothesis runs derandomized, so every run draws
the same examples.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starmetric import (
    LabeledTree,
    center_extension_probe,
    enumerate_classes,
    find_forbidden_quadruple,
    generate_ultrametric,
    reorder,
    x4_space,
)
from starmetric.decision import _nearest, _row_minima
from starmetric.rational import MAX_RATIONAL_CHARS, RationalTooLarge, rat
from starmetric.spaces import DuplicateName, EmptySubset, UnknownPoint, _ranked_values
from starmetric.trees import NotGenerating

from helpers import (
    deduped_generate_ultrametric,
    permuted_copy,
    random_star,
    random_tree,
)

ALPHABET = "0123456789/+-_.e ٣"  # U+0663 is the Arabic-Indic digit three


def _assert_parity(text: str) -> None:
    """``rat(text)`` equals ``Fraction(text.strip())``, or both refuse it, ``rat`` as ``not an exact rational``."""
    try:
        got = rat(text)
    except RationalTooLarge:
        return  # a bound of rat's own, which Fraction does not have
    except ValueError as exc:
        assert str(exc) == f"not an exact rational: {text!r}", text
        got = None
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        want = None
    assert got == want and type(got) is type(want), text


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.one_of(st.text(ALPHABET, max_size=12), st.text("0123456789/", min_size=1, max_size=12)))
def test_rat_matches_fraction_on_drawn_strings(text):
    _assert_parity(text)


def test_rat_matches_fraction_on_every_short_string():
    for k in range(4):
        for chars in product(ALPHABET, repeat=k):
            _assert_parity("".join(chars))


@pytest.mark.parametrize("text", ["1/0", "00/00", "0/000", "1/", "/2", "1/2/3", "²", "1/²"])
def test_rat_refuses_what_fraction_refuses(text):
    with pytest.raises(ValueError, match="not an exact rational"):
        rat(text)


def test_rat_reads_plain_strings():
    assert rat("007/02") == Fraction(7, 2)
    assert rat("0/5") == 0 and rat("6/4") == Fraction(3, 2) and rat("12") == 12
    assert rat(" 3/4 ") == Fraction(3, 4) and rat("+3") == 3 and rat("٣/6") == Fraction(1, 2)
    numerator = "9" * MAX_RATIONAL_CHARS
    assert rat(numerator) == int(numerator)
    with pytest.raises(RationalTooLarge):
        rat(numerator + "/7")


def test_ranked_values_ranks_every_key_and_shares_equal_values():
    values = {"a": Fraction(3), "b": 3, "c": Fraction(1, 3), "d": Fraction(0), "e": Fraction(2, 6)}
    spectrum, rank = _ranked_values(values)
    assert spectrum == (0, Fraction(1, 3), 3)
    assert rank == {"a": 2, "b": 2, "c": 1, "d": 0, "e": 1}


def _tied_copy(rng: Random, lab: Fraction) -> Fraction:
    """``lab`` itself or an equal but distinct object."""
    p, q = lab.numerator, lab.denominator
    return rng.choice([lab, Fraction(p, q), rat(f"{2 * p}/{2 * q}"), rat(str(lab))])


def test_generation_matches_the_deduping_reference_on_tied_labels():
    rng = Random(1501)
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)]
    raised = distinct_ties = 0
    for _ in range(400):
        base = random_tree(rng, rng.randint(1, 12))
        picks = [pool[0] if rng.random() < 0.15 else rng.choice(pool[1:]) for _ in base.labels]
        labels = tuple([_tied_copy(rng, lab) for lab in picks])
        distinct_ties += len({id(v) for v in labels}) > len(set(labels))
        t = LabeledTree(base.vertices, base.edges, labels)
        try:
            want = deduped_generate_ultrametric(t)
        except NotGenerating as exc:
            raised += 1
            with pytest.raises(NotGenerating) as got:
                generate_ultrametric(t)
            assert str(got.value) == str(exc)
            continue
        got = generate_ultrametric(t)
        assert (got.spectrum, got.ranks) == (want.spectrum, want.ranks)
    assert 20 < raised < 200 and distinct_ties > 100


@pytest.mark.parametrize(
    "names,error,message",
    [
        ([], EmptySubset, "need at least one point"),
        (["zz"], UnknownPoint, "unknown point 'zz'"),
        (["p1", "zz", "yy"], UnknownPoint, "unknown point 'zz'"),
        (["yy", "p2", "zz"], UnknownPoint, "unknown point 'yy'"),
        (["zz", "p1", "zz"], DuplicateName, "duplicate point in ('zz', 'p1', 'zz')"),
    ],
)
def test_reorder_raises_for_the_first_fault(names, error, message):
    with pytest.raises(error) as exc:
        reorder(x4_space(), names)
    assert str(exc.value) == message


def test_reorder_names_the_first_unknown_point():
    rng = Random(1503)
    s = x4_space()
    for _ in range(200):
        names = rng.sample([*s.points, "zz", "yy", "xx"], rng.randint(1, 7))
        unknown = [p for p in names if p not in s.points]
        if not unknown:
            assert reorder(s, names).points == tuple(names)
            continue
        with pytest.raises(UnknownPoint) as exc:
            reorder(s, names)
        assert str(exc.value) == f"unknown point {unknown[0]!r}"


def _assert_probe_chain_gives_nearest(s) -> None:
    # the extension is handed its chain, and the nearest ranks read off it are the row minima
    ext = center_extension_probe(s).extension
    assert _nearest(ext) == tuple(_row_minima(ext.ranks))


@pytest.mark.parametrize("n", range(1, 8))
def test_probe_hands_over_the_nearest_ranks_on_every_class(n):
    for s in enumerate_classes(n):
        if find_forbidden_quadruple(s) is None:
            _assert_probe_chain_gives_nearest(s)


def test_probe_hands_over_the_nearest_ranks_on_random_stars():
    rng = Random(1504)
    for _ in range(150):
        _assert_probe_chain_gives_nearest(permuted_copy(rng, generate_ultrametric(random_star(rng, 15))))
