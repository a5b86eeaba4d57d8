"""Exact rational coercion shared by every input surface (JSON, CLI, constructors)."""

import re
from fractions import Fraction

# Bounds on string input, so a short string such as "1e20000" cannot make
# Fraction build an integer with tens of thousands of digits.
MAX_RATIONAL_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*$")


class RationalTooLarge(ValueError):
    """A rational string exceeds the length or decimal-exponent bound."""


def rat(value) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Accepts ints, Fractions, and strings in integer, decimal, or ``p/q``
    form.  Floats are rejected on purpose: a binary float would silently
    corrupt the exact order and equality comparisons everything here
    relies on.  Strings longer than ``MAX_RATIONAL_CHARS`` or with a
    decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` raise
    :class:`RationalTooLarge`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"exact rational required, got bool: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_RATIONAL_CHARS:
            raise RationalTooLarge(f"rational string of {len(value)} characters exceeds {MAX_RATIONAL_CHARS}")
        # plain ASCII "p" and "p/q" skip both regexes; every other spelling,
        # and q = 0, takes Fraction's own parser and its errors
        p, slash, q = value.partition("/")
        if value.isascii() and p.isdigit() and (not slash or q.isdigit() and q.strip("0")):
            return Fraction(int(p), int(q)) if slash else Fraction(int(p))
        exp = _EXPONENT.search(value)
        if exp is not None and abs(int(exp.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
            raise RationalTooLarge(f"decimal exponent in {value!r} exceeds {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational: {value!r}") from exc
    raise TypeError(f"exact rational required, got {type(value).__name__}: {value!r}")
