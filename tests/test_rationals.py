"""Parsing and scaling of exact rationals."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbce.rationals import exact_fraction, exact_sum, integer_row

F = Fraction

# The parser before it read the numerator and denominator from its own match:
# validate with an anchored regex, then let Fraction parse the text again.
_REFERENCE_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def reference_exact_fraction(value: str) -> Fraction:
    text = value.strip()
    if not _REFERENCE_RE.match(text):
        raise ValueError(f"not an integer or p/q rational: {value!r}")
    return Fraction(text)


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as err:  # the exception type is what is compared
        return type(err)


@given(
    st.one_of(
        st.text(alphabet="0123456789-+/ \n", max_size=12),
        st.from_regex(r"[ \n]{0,2}[-+]?[0-9]{1,5}(/[0-9]{1,5})?[ \n]{0,2}", fullmatch=True),
    )
)
def test_parser_accepts_what_the_reference_accepts(text):
    """Same strings accepted, same values, same exception types."""
    assert outcome(exact_fraction, text) == outcome(reference_exact_fraction, text)


@pytest.mark.parametrize(
    "text, value",
    [
        ("0", F(0)),
        ("-0", F(0)),
        (" 7\n", F(7)),
        ("6/4", F(3, 2)),
        ("-10/15", F(-2, 3)),
        ("007/10", F(7, 10)),
    ],
)
def test_accepted_strings(text, value):
    result = exact_fraction(text)
    assert result == value and type(result) is Fraction


@pytest.mark.parametrize(
    "text",
    [
        "",
        "+1",
        "1/0",
        "1/01",
        "1 / 2",
        "--1",
        "1/-2",
        "1/2/3",
        "1.5",
        # Decimal digits of other scripts: Arabic-Indic and fullwidth.
        "\u0661\u0662/4",
        "\uff11\uff12",
        "1/1\u0661",
    ],
)
def test_refused_strings(text):
    with pytest.raises(ValueError):
        exact_fraction(text)


class _Int(int):
    pass


class _Str(str):
    pass


@pytest.mark.parametrize(
    "value, expected",
    [(F(1, 3), F(1, 3)), (-4, F(-4)), (_Int(3), F(3)), (_Str(" 6/4"), F(3, 2))],
    ids=repr,
)
def test_exact_types_and_subclasses_convert_alike(value, expected):
    result = exact_fraction(value)
    assert result == expected and type(result) is Fraction


@pytest.mark.parametrize("value", [True, False, 0.5, None, [1]], ids=repr)
def test_refused_types(value):
    with pytest.raises(TypeError):
        exact_fraction(value)


@given(st.lists(st.fractions(max_denominator=10**6), min_size=1, max_size=6))
def test_integer_row_scales_by_the_lcm(values):
    scale, ints = integer_row(values)
    assert scale > 0 and all(type(i) is int for i in ints)
    assert [F(i, scale) for i in ints] == values
    assert all(scale % q.denominator == 0 for q in values)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=12))
def test_exact_sum_is_the_fraction_sum(values):
    """One Fraction over the lcm of the denominators, equal to adding the
    values one at a time; the empty sum is 0."""
    total = exact_sum(values)
    assert type(total) is Fraction
    assert total == sum(values, F(0))
    assert exact_sum(iter(values)) == total  # a single-pass iterable works too
