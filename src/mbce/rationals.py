"""Exact rational helpers.

All probability and utility values in this package are
``fractions.Fraction``: lowest terms, positive denominator, arbitrary
precision. Inside, the hot arithmetic runs on integers with no loss of
exactness: the simplex in ``linprog`` scales each row to integers, the game
layer (best responses, obedience) prices integer rows against an integer
utility table, the belief polytopes take their rows from that table, the
implement path (Bayes plausibility, the outcome and choice rule of a
decision rule, the Gale max-flow) works over one common denominator, and so
do the public and ring reductions in ``applications`` (the auxiliary game,
the ring joint and its marginals); each builds ``Fraction``s only at the
answer. ``integer_row`` and ``integer_table`` are the common steps, and
``exact_sum`` adds rationals with the first: numerators over the lcm of the
denominators, one ``Fraction`` for the total.
Floats are refused at every boundary because verdicts hinge on exact
boundary equalities that tolerances would misclassify.

Report files carry every input and witness, so parsing and printing
rationals is a hot path too. ``exact_fraction`` tests the exact types the
parsers and builders pass (``Fraction``, ``int``, ``str``) before any
subclass, and ``vector_json`` prints a row of ``Fraction``s as they are,
without converting them again. A numerator or denominator with more digits
than Python converts between ``int`` and ``str``
(``sys.get_int_max_str_digits()``) can be neither read nor printed:
parsing one raises ValueError, printing one ``NumberTooLong``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import NumberTooLong

# An optional minus sign, ASCII digits, and an optional "/q" with q > 0
# written without leading zeros; the groups are the numerator and the
# denominator. Without re.ASCII, \d would also match other scripts' decimal
# digits, which int() reads.
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?", re.ASCII)


def exact_fraction(value: int | str | Fraction) -> Fraction:
    """Convert an int, Fraction, or "p/q" string to a Fraction.

    Floats (and bools) are rejected rather than converted: a float that
    reached this point would silently launder binary rounding error into a
    verdict path.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if kind is str:
        return _parse_rational(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def _parse_rational(text: str) -> Fraction:
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    numerator, denominator = match.groups()
    if denominator is None:
        return Fraction(int(numerator))
    return Fraction(int(numerator), int(denominator))


def vector_json(values) -> list[int | str]:
    """Serialize each Fraction of ``values`` as an int when exact, else as a
    "p/q" string. The domain types hold only Fractions; any other value
    raises TypeError rather than being converted."""
    try:
        return [n if d == 1 else f"{n}/{d}" for n, d in map(Fraction.as_integer_ratio, values)]
    except ValueError:  # past sys.get_int_max_str_digits()
        raise NumberTooLong() from None


def fraction_to_json(q: Fraction) -> int | str:
    """Serialize a Fraction as an int when exact, else as a "p/q" string."""
    return vector_json((q,))[0]


def fraction_vector(values) -> tuple[Fraction, ...]:
    return tuple(exact_fraction(v) for v in values)


def fraction_table(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(fraction_vector(row) for row in rows)


def integer_row(values) -> tuple[int, tuple[int, ...]]:
    """``(scale, ints)`` with ``ints[i] == scale * values[i]`` and ``scale``
    the lcm of the denominators: a rational row as integers over one
    positive denominator."""
    scale = lcm(*(q.denominator for q in values))
    return scale, tuple(q.numerator * (scale // q.denominator) for q in values)


def integer_table(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(scale, table)`` with ``table[i][j] == scale * rows[i][j]`` and
    ``scale`` the lcm of every denominator: a rational table as integers
    over one positive denominator."""
    scale = lcm(*(q.denominator for row in rows for q in row))
    return scale, tuple(tuple(q.numerator * (scale // q.denominator) for q in row) for row in rows)


def exact_sum(values) -> Fraction:
    """The sum of rationals as one ``Fraction``: their numerators added over
    the lcm of their denominators (``integer_row``), not one ``Fraction``
    addition per term. The empty sum is 0."""
    scale, ints = integer_row(tuple(values))
    return Fraction(sum(ints), scale)
