"""The integer forms of outcomes, posteriors and decision rules.

``Outcome.integer_probs``, ``PosteriorDistribution.integer_weights`` and
``integer_support``, and ``DecisionRule.integer_rows`` are the stored
fields, and the checks and builders read them; the ``Fraction`` tuples
(``probs``, ``support``, ``weights``, ``rows``) are views derived from them.
The references below are the ``Fraction`` code the integer checks replaced,
with their bodies kept as they were (only names and the way they build the
types changed): each rewritten check must give their answer, or raise their
exception with their message, on outcomes with negative entries, wrong
totals and repeated support points as well as on valid ones.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mbce.cli import cmd_implement
from mbce.errors import (
    DimensionMismatch,
    MbceError,
    NotADistribution,
    StateMarginalMismatch,
    ValidationError,
    ZeroPriorState,
)
from mbce.game import (
    Outcome,
    StochasticChoiceRule,
    action_marginal_of,
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    choice_rule_from_outcome,
    make_game,
    make_marginal,
    state_marginal_of,
    validate_outcome,
)
from mbce.implementation import (
    DecisionRule,
    PosteriorDistribution,
    is_bayes_plausible,
    make_posteriors,
)
from mbce.io import load_report, report_string
from mbce.rationals import parse_row, vector_json
from references import check_state_marginal as fraction_prior_state_marginal
from references import choice_rule_from_outcome as fraction_prior_choice_rule
from references import exact_sum, fraction_vector, integer_row, integer_table, obedience_slack
from references import is_bayes_plausible as fraction_prior_bayes_plausible

F = Fraction
ONE = F(1)

# Small denominators and unlike, mostly coprime ones near 10^6.
DENOMINATORS = st.one_of(
    st.integers(1, 12), st.sampled_from([999_983, 1_000_003, 999_979, 2**20])
)


@st.composite
def vectors(draw, n, faults=True):
    """A probability vector of length ``n``, and with ``faults`` half the
    time one that is not: two entries moved apart (negative ones possible,
    same total), one entry shifted (wrong total) or one entry negated."""
    parts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    total = sum(parts) or 1
    d = draw(DENOMINATORS)
    entries = [F(q * d // total, d) for q in parts]
    entries[-1] += 1 - sum(entries)
    changes = ("none", "none", "none", "move", "shift", "negate") if faults else ("none",)
    change, i, j, numerator = draw(st.tuples(
        st.sampled_from(changes), st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)
    ))
    delta = F(numerator, d)
    if change == "move" and i != j:
        entries[i] += delta
        entries[j] -= delta
    elif change == "shift":
        entries[i] += delta
    elif change == "negate":
        entries[i] = -entries[i]
    return tuple(entries)


@st.composite
def outcomes(draw):
    """An outcome over 1-4 actions and 1-4 states, its total mass drawn
    like a ``vectors`` entry: usually 1, sometimes not, signs mixed."""
    n_actions, n_states = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = draw(vectors(n_actions * n_states))
    rows = [cells[a * n_states : (a + 1) * n_states] for a in range(n_actions)]
    return Outcome(integer_table(rows))


def game_for(outcome, data):
    """A game of the outcome's shape, utilities in sevenths in [-3, 3]."""
    width, size = outcome.n_states, outcome.n_actions * outcome.n_states
    sevenths = data.draw(st.lists(st.integers(-21, 21), min_size=size, max_size=size))
    cells = [F(n, 7) for n in sevenths]
    utility = [cells[a * width : (a + 1) * width] for a in range(outcome.n_actions)]
    states = [f"t{t}" for t in range(outcome.n_states)]
    actions = [f"a{a}" for a in range(outcome.n_actions)]
    return make_game(states, actions, utility, [F(1, outcome.n_states)] * outcome.n_states)


def answer(compute, *args):
    """The value, or the exception's type and, for this package's errors,
    its message (a ZeroDivisionError names the numerator of its operands)."""
    try:
        return compute(*args)
    except Exception as err:  # the type and message are what is compared
        return type(err), str(err) if isinstance(err, MbceError) else None


# -- the Fraction references ----------------------------------------------


def reference_validate_outcome(outcome, game):
    if outcome.n_actions != game.n_actions or any(
        len(row) != game.n_states for row in outcome.probs
    ):
        raise DimensionMismatch("outcome table does not match the game's shape")
    if any(q.numerator < 0 for row in outcome.probs for q in row):
        raise NotADistribution("outcome has a negative entry")
    total = exact_sum(q for row in outcome.probs for q in row)
    if total != ONE:
        raise NotADistribution(f"outcome mass is {total}, not 1")


def reference_action_marginal_of(outcome):
    return tuple(exact_sum(row) for row in outcome.probs)


def reference_state_marginal_of(outcome):
    return tuple(exact_sum(row[t] for row in outcome.probs) for t in range(outcome.n_states))


def reference_choice_rule_from_outcome(outcome, prior):
    if reference_state_marginal_of(outcome) != tuple(prior):
        raise StateMarginalMismatch(
            f"state marginal {reference_state_marginal_of(outcome)} "
            f"differs from prior {tuple(prior)}"
        )
    rows = tuple(
        tuple(Fraction(q.numerator * p.denominator, q.denominator * p.numerator) for q in column)
        for p, column in zip(prior, zip(*outcome.probs))
    )
    return StochasticChoiceRule(integer_table(rows))


def reference_make_posteriors(support, weights):
    support = tuple(map(fraction_vector, support))
    weights = fraction_vector(weights)
    if len(support) != len(weights) or not support:
        raise DimensionMismatch("support and weights must align and be nonempty")
    dim = len(support[0])
    for belief in support:
        if len(belief) != dim:
            raise DimensionMismatch("support beliefs have mixed dimensions")
        if any(q.numerator < 0 for q in belief) or exact_sum(belief) != ONE:
            raise NotADistribution(f"support point {belief} is not a probability vector")
    if any(w.numerator <= 0 for w in weights) or exact_sum(weights) != ONE:
        raise NotADistribution("weights must be positive and sum to 1")
    if len(set(support)) != len(support):
        raise NotADistribution("support points must be pairwise distinct")
    return PosteriorDistribution(integer_table(support), integer_row(weights))


def reference_is_decision_rule(rows, n_posteriors, n_actions):
    """The decision-rule check ``load_report`` made on ``Fraction`` rows."""
    return not (
        len(rows) != n_posteriors
        or any(
            len(row) != n_actions or exact_sum(row) != 1 or any(q.numerator < 0 for q in row)
            for row in rows
        )
    )


def reference_menu_rule_error(rows, menus, menu_mass, marginal):
    """The first message of the ``Fraction`` menu-rule check on rows that
    name every menu once, in order, or None when it passes."""
    n_actions = len(marginal)
    for menu, row in zip(menus, rows):
        if len(row) != n_actions or exact_sum(row) != 1 or any(
            q.numerator < 0 or (q.numerator > 0 and a not in menu) for a, q in enumerate(row)
        ):
            return "menu rule row is not a tie-break over its menu"
    for a, target in enumerate(marginal):
        if exact_sum(menu_mass[m] * row[a] for m, row in zip(menus, rows) if row[a]) != target:
            return "menu rule rows do not split the menus into the marginal"
    return None


# -- the views --------------------------------------------------------------


class TestViews:
    @settings(max_examples=50)
    @given(outcomes())
    def test_outcome_view(self, outcome):
        assert outcome.integer_probs == integer_table(outcome.probs)
        assert all(type(q) is Fraction for row in outcome.probs for q in row)

    @settings(max_examples=50)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=6)),
           st.integers(1, 6).flatmap(vectors))
    def test_posterior_views(self, support, weights):
        tau = PosteriorDistribution(integer_table(support), integer_row(weights))
        assert (tau.support, tau.weights) == (tuple(support), weights)
        assert tau.integer_support == integer_table(tau.support)
        assert tau.integer_weights == integer_row(tau.weights)

    @settings(max_examples=50)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(vectors(n), min_size=1, max_size=6)))
    def test_decision_rule_view(self, rows):
        rule = DecisionRule(integer_table(rows))
        assert rule.rows == tuple(rows)
        assert rule.integer_rows == integer_table(rule.rows)

    def test_views_are_no_fields(self):
        """A ``Fraction`` view is no field: equality and hashing ignore it,
        and a twin built from the same fields has not derived it."""
        pairs = [
            (Outcome((6, ((3, 2), (1, 0)))), "probs"),
            (DecisionRule((2, ((1, 1), (2, 0)))), "rows"),
            (make_posteriors([["1/3", "2/3"], [1, 0]], ["3/4", "1/4"]), "support"),
            (make_posteriors([["1/3", "2/3"], [1, 0]], ["3/4", "1/4"]), "weights"),
        ]
        for value, view in pairs:
            twin = type(value)(*(getattr(value, f.name) for f in fields(value)))
            assert view not in {f.name for f in fields(value)}
            getattr(value, view)
            assert view in vars(value) and view not in vars(twin)
            assert value == twin and hash(value) == hash(twin)


# -- the checks that read them, against their Fraction references -----------


class TestChecksMatchFractions:
    @given(outcomes(), st.data())
    def test_validate_outcome(self, outcome, data):
        game = game_for(outcome, data)
        assert answer(validate_outcome, outcome, game) == answer(
            reference_validate_outcome, outcome, game
        )

    @settings(max_examples=200)
    @given(outcomes())
    def test_row_and_column_sums(self, outcome):
        assert action_marginal_of(outcome) == reference_action_marginal_of(outcome)
        assert state_marginal_of(outcome) == reference_state_marginal_of(outcome)

    @given(outcomes(), st.data())
    def test_marginal_checks(self, outcome, data):
        """Against the exact sums and against drawn vectors of either length."""
        rows, columns = reference_action_marginal_of(outcome), reference_state_marginal_of(outcome)
        other_rows = data.draw(vectors(outcome.n_actions))
        other_columns = data.draw(vectors(outcome.n_states))
        for target in (rows, other_rows):
            assert check_action_marginal(outcome, make_marginal(target)) == (target == rows)
        for target in (columns, other_columns):
            assert check_state_marginal(outcome, parse_row(target)) == (target == columns)

    @settings(max_examples=200)
    @given(outcomes(), st.data())
    def test_obedience(self, outcome, data):
        """The violations are exactly the pairs of negative ``obedience_slack``,
        with that slack, whatever the outcome's signs and total."""
        game = game_for(outcome, data)
        pairs = [(a, alt) for a in range(game.n_actions) for alt in range(game.n_actions)]
        expected = [
            (a, alt, obedience_slack(outcome, game, a, alt))
            for a, alt in pairs
            if obedience_slack(outcome, game, a, alt) < 0
        ]
        report = check_obedience(outcome, game)
        assert [(v.recommended, v.deviation, v.slack) for v in report.violations] == expected
        assert report.obedient == (not expected)

    @given(outcomes(), st.data())
    def test_choice_rule(self, outcome, data):
        """At the outcome's own state marginal, which may have zero or
        negative entries, and at a drawn prior: the same rule, or the same
        exception with the same message; where the reference divides by a
        zero prior entry, ZeroPriorState naming the first zero state."""
        other = data.draw(vectors(outcome.n_states))
        for prior in (reference_state_marginal_of(outcome), other):
            expected = answer(reference_choice_rule_from_outcome, outcome, prior)
            if expected == (ZeroDivisionError, None):
                zero = list(prior).index(0)
                expected = ZeroPriorState, f"state {zero} has zero prior mass"
            assert answer(choice_rule_from_outcome, outcome, parse_row(prior)) == expected

    @given(st.data())
    def test_make_posteriors(self, data):
        """Points of mixed sign and total, repeated points, a point of another
        dimension, weights that are zero, negative or off by one entry."""
        dim, faults = data.draw(st.integers(1, 4)), data.draw(st.booleans())
        support = data.draw(st.lists(vectors(dim, faults), min_size=1, max_size=5))
        # Hypothesis favours the ends of a range, so the rarer faults sit
        # at interior values.
        if data.draw(st.integers(0, 2)) == 1:
            support.append(data.draw(st.sampled_from(support)))
        if data.draw(st.integers(0, 9)) == 5:
            support.insert(data.draw(st.integers(0, len(support))), data.draw(vectors(dim + 1)))
        if data.draw(st.integers(0, 19)) == 10:
            support = []
        n_weights = len(support) + {4: 1, 6: -1}.get(data.draw(st.integers(0, 9)), 0)
        weights = data.draw(vectors(n_weights, faults)) if n_weights > 0 else ()
        assert answer(make_posteriors, support, weights) == answer(
            reference_make_posteriors, support, weights
        )


# -- the prior as an integer row --------------------------------------------


def unreduced(prior, k):
    """The prior's integer row with its scale and its integers times ``k``."""
    scale, ints = parse_row(prior)
    return scale * k, tuple(x * k for x in ints)


def padded(table):
    """An integer table with a zero state appended to every row."""
    scale, rows = table
    return scale, tuple(row + (0,) for row in rows)


class TestPriorAsIntegerRow:
    @settings(max_examples=100, deadline=None)
    @given(outcomes(), st.data())
    def test_integer_prior_matches_the_fraction_prior(self, outcome, data):
        """``is_bayes_plausible``, ``check_state_marginal`` and
        ``choice_rule_from_outcome`` on the prior's integer row, passed
        unreduced (its scale and integers times k for k in 1..5), give the
        answer, the result or the exception with its message of the
        references that take the prior as ``Fraction``s. The priors are the
        outcome's state marginal, a drawn vector and tau's mean; those with
        a zero state appended to the outcome and to tau's support, so the
        choice rule meets a zero prior entry (ZeroPriorState); and the
        state marginal one state long and one short (DimensionMismatch)."""
        n = outcome.n_states
        support = data.draw(st.lists(vectors(n), min_size=1, max_size=4))
        weights = data.draw(vectors(len(support)))
        tau = PosteriorDistribution(integer_table(support), integer_row(weights))
        columns = reference_state_marginal_of(outcome)
        mean = tuple(
            exact_sum(w * mu[t] for w, mu in zip(tau.weights, tau.support)) for t in range(n)
        )
        zero_tau = PosteriorDistribution(padded(tau.integer_support), tau.integer_weights)
        zero_outcome = Outcome(padded(outcome.integer_probs))
        cases = [
            (tau, outcome, columns, None),
            (tau, outcome, data.draw(vectors(n)), None),
            (tau, outcome, mean, None),
            (zero_tau, zero_outcome, columns + (F(0),), ZeroPriorState),
            (zero_tau, zero_outcome, mean + (F(0),), None),
            (tau, outcome, columns + (F(0),), DimensionMismatch),
            (tau, outcome, columns[:-1], DimensionMismatch),
        ]
        for posteriors, joint, prior, raised in cases:
            expected = (
                answer(fraction_prior_bayes_plausible, posteriors, prior),
                answer(fraction_prior_state_marginal, joint, prior),
                answer(fraction_prior_choice_rule, joint, prior),
            )
            if raised is not None:
                assert expected[2][0] is raised
            for k in range(1, 6):
                row = unreduced(prior, k)
                assert (
                    answer(is_bayes_plausible, posteriors, row),
                    answer(check_state_marginal, joint, row),
                    answer(choice_rule_from_outcome, joint, row),
                ) == expected


# -- the rule checks of an implement report's reload ------------------------

# Three actions over two states; the third ties with both at the centre
# belief, so the menus are {a1}, {a1, a2, a3} and {a2}.
TIE_GAME = make_game(
    ["t1", "t2"], ["a1", "a2", "a3"], [[1, 0], [0, 1], ["1/2", "1/2"]], ["1/2", "1/2"]
)
TIE_TAU = make_posteriors([[1, 0], ["1/2", "1/2"], [0, 1]], ["1/4", "1/2", "1/4"])
TIE_MARGINAL = ("1/3", "1/3", "1/3")
IMPLEMENT_TEXT = report_string(cmd_implement(TIE_GAME, make_marginal(TIE_MARGINAL), TIE_TAU)[0])


def reload_message(tmp_path, doc):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_report(str(path))
    except ValidationError as err:
        return str(err)
    return None


class TestReloadRuleChecks:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decision_rule_rows(self, tmp_path_factory, data):
        """A decision rule is refused as no distribution per posterior
        exactly when the ``Fraction`` check refuses it."""
        doc = json.loads(IMPLEMENT_TEXT)
        faults = data.draw(st.booleans())
        n_rows = TIE_TAU.size + {4: 1, 6: -1}.get(data.draw(st.integers(0, 9)), 0)
        widths = [3 - (data.draw(st.integers(0, 9)) == 5) for _ in range(n_rows)]
        rows = [data.draw(vectors(n, faults)) for n in widths]
        doc["witnesses"]["decision_rule"] = [vector_json(integer_row(row)) for row in rows]
        message = reload_message(tmp_path_factory.mktemp("rule"), doc) or ""
        refused = message.endswith("decision rule needs one distribution per posterior")
        assert refused == (not reference_is_decision_rule(rows, TIE_TAU.size, 3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_menu_rule_rows(self, tmp_path_factory, data):
        """Menu-rule rows are refused with the ``Fraction`` check's message,
        and load when it passes them."""
        doc = json.loads(IMPLEMENT_TEXT)
        entries = doc["witnesses"]["menu_rule"]
        menus = [frozenset(entry["menu"]) for entry in entries]
        mass = {frozenset({0}): F(1, 4), frozenset({1}): F(1, 4), frozenset({0, 1, 2}): F(1, 2)}
        rows = [data.draw(vectors(data.draw(st.sampled_from((3, 3, 3, 2))))) for _ in entries]
        if data.draw(st.booleans()):  # tie-breaks, so only the split decides
            share = F(data.draw(st.integers(0, 8)), 48)
            tie_row = (F(1, 6) - share, F(1, 6), F(2, 3) + share)
            rows = [(ONE, F(0), F(0)), (F(0), ONE, F(0)), tie_row]
            menus = [frozenset({0}), frozenset({1}), frozenset({0, 1, 2})]
        for entry, menu, row in zip(entries, menus, rows):
            entry["menu"], entry["probs"] = sorted(menu), vector_json(integer_row(row))
        expected = reference_menu_rule_error(rows, menus, mass, fraction_vector(TIE_MARGINAL))
        message = reload_message(tmp_path_factory.mktemp("menu"), doc)
        assert (message and message.split(": ", 1)[1]) == expected
