"""Exact rational helpers.

All probability and utility values in this package are
``fractions.Fraction``: lowest terms, positive denominator, arbitrary
precision. (The simplex in ``linprog`` scales each row to integers and works
on those, with no loss of exactness.) Floats are refused at every boundary
because verdicts hinge on exact boundary equalities that tolerances would
misclassify.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def exact_fraction(value: int | str | Fraction) -> Fraction:
    """Convert an int, Fraction, or "p/q" string to a Fraction.

    Floats (and bools) are rejected rather than converted: a float that
    reached this point would silently launder binary rounding error into a
    verdict path.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not an integer or p/q rational: {value!r}")
        return Fraction(text)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def fraction_to_json(q: Fraction) -> int | str:
    """Serialize a Fraction as an int when exact, else as a "p/q" string."""
    if q.denominator == 1:
        return int(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def fraction_vector(values) -> tuple[Fraction, ...]:
    return tuple(exact_fraction(v) for v in values)


def fraction_table(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(fraction_vector(row) for row in rows)
