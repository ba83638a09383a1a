"""Exact rationals, held as integer rows.

A row of rationals is held in its integer form ``(scale, ints)``: a
positive ``scale`` and the integers ``ints[i] == scale * values[i]``. A
table is held the same way, every entry over one scale. The form is
reduced when no integer divides the scale and every entry at once; then the
scale is the lcm of the entries' lowest-terms denominators, so two rows are
equal as ``Fraction``s exactly when their reduced forms are equal. The
domain types (games, marginals, outcomes, choice and decision rules,
posterior distributions, ring joints) store their rows in the reduced form
and reduce what they are given, once, as they are built. Their ``Fraction``
tuples are views derived from it on first read.

The path from a file to a report stays on integers: ``parse_row`` and
``parse_table`` read ints, "p/q" strings and ``Fraction``s straight into
the integer form, the checks and builders compute on integers over common
denominators, the simplex in ``linprog`` takes each constraint as an
integer row and returns one, and ``vector_json`` prints a row from its
integer form. A ``Fraction`` is built only for an answer, such as a residual
(``fraction_to_json`` prints one); ``parse_row`` and ``parse_table`` bring it
back to the integer form, reduced, since a ``Fraction`` is in lowest terms.

Floats are refused at every boundary because verdicts hinge on exact
boundary equalities that tolerances would misclassify. The parsers read
each entry as ``exact_fraction`` does, and the exact types the parsers and
builders pass (``int``, ``str``, ``Fraction``) are tested before any
subclass. A numerator or denominator with more digits than Python converts
between ``int`` and ``str`` (``sys.get_int_max_str_digits()``) can be
neither read nor printed: parsing one raises ValueError, printing one
``NumberTooLong``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import NumberTooLong

IntegerRow = tuple[int, tuple[int, ...]]
IntegerTable = tuple[int, tuple[tuple[int, ...], ...]]

_ZERO = Fraction(0)

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
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        scale, (n,) = parse_row((str(value),))
        return Fraction(n, scale)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def parse_row(values) -> IntegerRow:
    """The integer form of a row of ints, "p/q" strings and ``Fraction``s,
    each read as ``exact_fraction`` reads it and refused with its error:
    ``scale`` is the lcm of the denominators as written ("2/4" counts 4),
    which the domain types reduce."""
    scale, (ints,) = parse_table((values,))
    return scale, ints


def parse_table(rows) -> IntegerTable:
    """The integer form of a table whose rows ``parse_row`` reads, every
    entry over the lcm of all the denominators. An int entry costs one type
    test."""
    fullmatch = _RATIONAL_RE.fullmatch
    table = [list(row) for row in rows]
    fractions = []  # (row, column, denominator) of each entry that is no int
    for i, row in enumerate(table):
        for j, value in enumerate(row):
            if type(value) is not int:
                if type(value) is str:
                    match = fullmatch(value.strip())
                    if match is None:
                        raise ValueError(f"not an integer or p/q rational: {value!r}")
                    numerator, denominator = match.groups()
                    n, d = int(numerator), 1 if denominator is None else int(denominator)
                else:
                    q = exact_fraction(value)
                    n, d = q.numerator, q.denominator
                row[j] = n
                if d != 1:
                    fractions.append((i, j, d))
    if not fractions:
        return 1, tuple(map(tuple, table))
    scale = lcm(*[d for _, _, d in fractions])
    ints = [[n * scale for n in row] for row in table]
    for i, j, d in fractions:
        ints[i][j] = table[i][j] * (scale // d)
    return scale, tuple(map(tuple, ints))


def common_scale(rows) -> IntegerTable:
    """A list of integer rows as one table over the lcm of their scales."""
    scale = lcm(*[s for s, _ in rows])
    return scale, tuple(
        [ints if s == scale else tuple([x * (scale // s) for x in ints]) for s, ints in rows]
    )


def reduced_row(row: IntegerRow) -> IntegerRow:
    """``row`` with its scale and entries divided by their gcd."""
    scale, ints = row
    if scale == 1:
        return row
    g = gcd(scale, *ints)
    # g is 0 only for zeros over a zero scale, which validation refuses.
    return row if g <= 1 else (scale // g, tuple([x // g for x in ints]))


def reduced_table(table: IntegerTable) -> IntegerTable:
    """``table`` with its scale and entries divided by their gcd; the gcd
    is taken row by row and stops at 1, which a reduced table reaches
    early."""
    scale, rows = table
    g = scale
    for row in rows:
        if g == 1:
            return table
        g = gcd(g, *row)
    if g <= 1:  # 0 only for zeros over a zero scale, which validation refuses
        return table
    return scale // g, tuple([tuple([x // g for x in row]) for row in rows])


def row_fractions(row: IntegerRow) -> tuple[Fraction, ...]:
    """The ``Fraction`` view of an integer row; its zeros share one
    ``Fraction``."""
    scale, ints = row
    return tuple(Fraction(x, scale) if x else _ZERO for x in ints)


def table_fractions(table: IntegerTable) -> tuple[tuple[Fraction, ...], ...]:
    """The ``Fraction`` view of an integer table."""
    scale, rows = table
    return tuple(row_fractions((scale, row)) for row in rows)


def vector_json(row: IntegerRow) -> list[int | str]:
    """Serialize each entry of an integer row as an int when it is whole,
    else as a "p/q" string in lowest terms: the text of the ``Fraction``
    the entry stands for."""
    scale, ints = row
    if scale == 1:
        return list(ints)
    try:
        return [
            (n // g if (g := gcd(n, scale)) == scale else f"{n // g}/{scale // g}") if n else 0
            for n in ints
        ]
    except ValueError:  # past sys.get_int_max_str_digits()
        raise NumberTooLong() from None


def fraction_to_json(q: Fraction) -> int | str:
    """Serialize a Fraction as an int when exact, else as a "p/q" string.
    Any other value raises TypeError rather than being converted."""
    n, d = Fraction.as_integer_ratio(q)
    try:
        return n if d == 1 else f"{n}/{d}"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise NumberTooLong() from None
