"""Parsing, printing and scaling of exact rationals."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.applications import RingOutcome
from mbce.errors import ParseError
from mbce.game import ActionMarginal, BaseGame, Outcome, StochasticChoiceRule
from mbce.implementation import DecisionRule, PosteriorDistribution
from mbce.io import parse_game, rows_json
from mbce.rationals import exact_fraction, parse_row, parse_table, reduced_row, vector_json
from references import exact_sum, integer_row, integer_table

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


entries = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**6))


@given(
    st.lists(st.lists(entries, max_size=6), max_size=4),
    st.lists(st.integers(-(10**6), 10**6), max_size=6),
)
def test_parse_row_and_table_give_the_reference_integer_form(table, ints):
    """On rows of ``Fraction``s and ints, the empty row and rows of ints
    only among them, ``parse_row`` and ``parse_table`` give the integer
    form of the reference ``integer_row`` and ``integer_table``."""
    for row in (*table, ints, []):
        assert parse_row(row) == integer_row(row)
    assert parse_table(table) == integer_table(table)
    assert parse_table([ints, []]) == integer_table([ints, []])


# -- integer rows from parse to print, against the Fraction route ---------
#
# The parsers read each leaf of a file straight into the integer form and
# the printers write from it. The references are the route they replaced:
# each leaf read into a ``Fraction`` by ``reference_leaf``, the
# ``exact_fraction`` the parsers called, and a row printed by
# ``reference_vector_json``, the ``vector_json`` of a row of Fractions.

LIMIT = sys.get_int_max_str_digits()
PROPERTY = settings(settings.get_profile("derandomized"), max_examples=200, deadline=None)
_LEAF_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?", re.ASCII)


def reference_leaf(value) -> Fraction:
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if kind is str:
        return reference_parse_rational(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return reference_parse_rational(value)
    raise TypeError(f"refusing to build an exact rational from {type(value).__name__}")


def reference_parse_rational(text: str) -> Fraction:
    match = _LEAF_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an integer or p/q rational: {text!r}")
    numerator, denominator = match.groups()
    if denominator is None:
        return Fraction(int(numerator))
    return Fraction(int(numerator), int(denominator))


def reference_vector_json(values) -> list:
    return [n if d == 1 else f"{n}/{d}" for n, d in map(Fraction.as_integer_ratio, values)]


def answer(compute, *args):
    """The value, or the exception's type and message."""
    try:
        return compute(*args)
    except (TypeError, ValueError) as err:
        return type(err), str(err)


def near_limit(draw) -> int:
    """A positive integer of LIMIT - 3 to LIMIT digits."""
    return draw(st.integers(10 ** (LIMIT - 4), 10**LIMIT - 1))


@st.composite
def valid_leaves(draw):
    """An int, a "p/q" string (unlike denominators, negative numerators,
    and not in lowest terms as often as not), a Fraction, a spelling the
    grammar allows, or a numerator or denominator near the digit limit."""
    kind = draw(st.sampled_from(("int", "ratio", "ratio", "fraction", "spelling", "long")))
    if kind == "int":
        return draw(st.integers(-(10**6), 10**6))
    if kind == "ratio":
        k = draw(st.integers(1, 12))
        return f"{draw(st.integers(-999, 999)) * k}/{draw(st.integers(1, 10**6)) * k}"
    if kind == "fraction":
        return draw(st.fractions(max_denominator=10**6))
    if kind == "spelling":
        return draw(st.sampled_from(["0", "-0", " 7\n", "6/4", "-10/15", "007/10", "12/1"]))
    numerator = near_limit(draw) if draw(st.booleans()) else draw(st.integers(1, 999))
    denominator = near_limit(draw) if draw(st.booleans()) else draw(st.integers(1, 999))
    if draw(st.booleans()):
        return numerator if draw(st.booleans()) else -numerator
    return f"{'-' if draw(st.booleans()) else ''}{numerator}/{denominator}"


INVALID_LEAVES = st.sampled_from(
    [
        "1/01",
        "3/007",
        "+1/2",
        "+3",
        "1/0",
        "-2/0",
        "\u0661\u0662/4",
        "\uff11\uff12",
        "1/1\u0661",
        "",
        "1 / 2",
        "1.5",
        True,
        False,
        0.5,
        1.0,
        None,
        [1],
        "7" * (LIMIT + 1),
        "1/" + "3" * (LIMIT + 1),
    ]
)


@PROPERTY
@given(st.lists(st.lists(valid_leaves(), min_size=1, max_size=5), min_size=1, max_size=4))
def test_parse_then_print_gives_the_fraction_text(rows):
    """Valid leaves print, through the reduced integer form, exactly as
    their Fractions printed, row by row and as one table; the reduced form
    is the Fractions' own integer form."""
    fractions = [[reference_leaf(v) for v in row] for row in rows]
    expected = [reference_vector_json(row) for row in fractions]
    for row, fraction_row, text in zip(rows, fractions, expected):
        assert vector_json(reduced_row(parse_row(row))) == text
        assert reduced_row(parse_row(row)) == integer_row(fraction_row)
        assert vector_json(ActionMarginal(parse_row(row)).integer_probs) == text
    assert rows_json(parse_table(rows)) == expected
    assert rows_json(Outcome(parse_table(rows)).integer_probs) == expected


@PROPERTY
@given(
    st.lists(valid_leaves(), max_size=4),
    INVALID_LEAVES,
    st.lists(st.one_of(valid_leaves(), INVALID_LEAVES), max_size=4),
)
def test_invalid_leaves_are_refused_as_the_fraction_route_refused_them(head, bad, tail):
    """A row with an invalid leaf raises the error, with the message, that
    reading its first invalid leaf into a Fraction raised, and the file
    parser names that leaf's position."""
    row = [*head, bad, *tail]
    expected = answer(lambda: [reference_leaf(v) for v in row])
    assert answer(parse_row, row) == expected
    assert answer(parse_table, [head, row]) == expected
    doc = {"states": ["t"], "actions": ["a"], "utility": [[0]], "prior": row}
    with pytest.raises(ParseError) as caught:
        parse_game(doc, "f.json")
    assert str(caught.value) == f"f.json: prior[{len(head)}]: {expected[1]}"


def written(draw, q: Fraction):
    """One of the ways a file may write ``q``."""
    k = draw(st.integers(1, 6))
    form = draw(st.sampled_from(("fraction", "text", "int")))
    if form == "int" and q.denominator == 1:
        return q.numerator
    if form == "text":
        return f"{q.numerator * k}/{q.denominator * k}"
    return q


@st.composite
def table_pairs(draw):
    """Two tables of Fractions of one shape, equal about half the time,
    each written with its own scale, spelling and common factors."""
    n_rows, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    first = [draw(st.lists(entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    second = [list(row) for row in first]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_cols - 1))
        second[i][j] += draw(st.sampled_from([Fraction(1, 7), Fraction(-1, 12), Fraction(2)]))
    forms = [
        [[written(draw, q) for q in row] for row in table] for table in (first, second)
    ]
    return first, second, forms


def flat(table):
    """An integer table's entries as one integer row."""
    scale, rows = table
    return scale, sum(rows, ())


# Each stored type built from one integer table, whole or flattened into a
# row, so that two are equal exactly when their tables are.
STORED_TYPES = {
    "game": lambda t: BaseGame(("t",), ("a",), t, flat(t)),
    "marginal": lambda t: ActionMarginal(flat(t)),
    "outcome": Outcome,
    "choice rule": StochasticChoiceRule,
    "posteriors": lambda t: PosteriorDistribution(t, flat(t)),
    "decision rule": DecisionRule,
    "ring joint": lambda t: RingOutcome((len(t[1]),), len(t[1][0]), t),
}


@PROPERTY
@given(table_pairs())
def test_stored_types_compare_and_hash_as_their_fractions(pair):
    """Each type that stores the integer form reduces it as it is built:
    two of them are equal exactly when their Fraction tables are, equal
    ones hash alike, and the views are those Fractions."""
    first, second, (first_form, second_form) = pair
    same = first == second
    for name, build in STORED_TYPES.items():
        a, b = build(parse_table(first_form)), build(parse_table(second_form))
        assert (a == b) == same, name
        if same:
            assert hash(a) == hash(b), name
    assert Outcome(parse_table(first_form)).probs == tuple(map(tuple, first))
    assert DecisionRule(parse_table(second_form)).rows == tuple(map(tuple, second))
    assert ActionMarginal(parse_row(first_form[0])).probs == tuple(first[0])
