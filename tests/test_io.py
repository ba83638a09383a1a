"""Instance files in, canonical self-checking reports out.

The reload tests tamper with saved reports on purpose: a report that still
loads after its witness was edited would mean load_report trusts prose
instead of re-deriving the checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbce.applications import check_ring, make_first_order, make_profile, make_ring
from mbce.cli import cmd_check, cmd_implement, cmd_public, cmd_ring, cmd_verify, main
from mbce.consistency import (
    ACTION_PAIR_CONDITION,
    STATE_CONDITION,
    STRASSEN_DIRECTION,
    UNSUPPORTABLE_ACTION,
)
from mbce.errors import NumberTooLong, ParseError, ValidationError
from mbce.game import make_game, make_marginal, matching_game
from mbce.implementation import make_posteriors
from mbce.io import (
    IMPLEMENTATION_INFEASIBLE,
    MAX_NESTING,
    CanonicalText,
    Report,
    canonical_json,
    inputs_digest,
    load_document,
    load_game,
    load_report,
    menu_rule_json,
    report_string,
    ring_json,
    rows_json,
    save_report,
    vector_json,
)
from mbce.rationals import fraction_to_json, parse_row
from pins import PINS, run_pin

F = Fraction
SRC = str(Path(__file__).resolve().parents[1] / "src")

GAME_DOC = {
    "states": ["t1", "t2"],
    "actions": ["a1", "a2"],
    "utility": [[1, 0], [0, 1]],
    "prior": ["3/4", "1/4"],
}


def write(tmp_path, obj, name="doc.json"):
    path = tmp_path / name
    text = obj if isinstance(obj, str) else canonical_json(obj)
    path.write_text(text, encoding="utf-8")
    return str(path)


def reload_report(tmp_path, report, mutate=None):
    doc = json.loads(report_string(report))
    if mutate is not None:
        mutate(doc)
    return load_report(write(tmp_path, doc, "report.json"))


class TestLoadDocument:
    def test_float_literal_rejected(self, tmp_path):
        path = write(tmp_path, '{"prior": [0.5, 0.5]}')
        with pytest.raises(ValidationError, match='"p/q"'):
            load_document(path)

    def test_infinity_rejected(self, tmp_path):
        for constant in ("Infinity", "NaN", "-Infinity"):
            path = write(tmp_path, f'{{"weight": {constant}}}')
            with pytest.raises(ValidationError, match=f"float literal {constant} is not allowed"):
                load_document(path)

    def test_invalid_json(self, tmp_path):
        path = write(tmp_path, "{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_document(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_document(str(tmp_path / "absent.json"))

    def test_top_level_must_be_object(self, tmp_path):
        path = write(tmp_path, "[1, 2]")
        with pytest.raises(ParseError, match="object"):
            load_document(path)

    GAME_TAIL = b', "actions": ["a1", "a2"], "utility": [[1, 0], [0, 1]], "prior": [1, 0]}'

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"states": ["t\xff", "t2"]' + GAME_TAIL, "not UTF-8"),
            (b'{"states": ["t1", "t2"], "marginal": [' + b"7" * 5000 + b"]}", "unreadable number"),
            (b'{"states": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "nested too deeply"),
            (b'{"states": ["\\ud800", "t2"]' + GAME_TAIL, "lone surrogate"),
            (b'{"states": ["\\udc00t", "t2"]' + GAME_TAIL, "lone surrogate"),
            (b'{"states": ["\\ude00\\ud83d", "t2"]' + GAME_TAIL, "lone surrogate"),
            (b'\xef\xbb\xbf{"states": ["t1", "t2"]' + GAME_TAIL, "invalid JSON: Unexpected UTF-8 BOM"),
        ],
        ids=[
            "invalid-utf8", "5000-digit-literal", "200000-deep", "high", "low", "reversed-pair",
            "byte-order-mark",
        ],
    )
    def test_unreadable_file_is_a_parse_error(self, tmp_path, capsys, content, message):
        """Each file is refused with a ParseError when loaded, and with exit
        3 and an ``error: `` line by the CLI, never with a traceback."""
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=message):
            load_report(str(path))
        assert main(["check", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert captured.err.startswith("error: ")

    def test_surrogate_pairs_and_escaped_backslashes_still_load(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{"states": ["\\ud83d\\ude00", "\\\\ud800"]}')
        assert load_document(str(path))["states"] == ["\U0001f600", "\\ud800"]


class TestGameSection:
    def test_rationals_parse_exactly(self, tmp_path):
        doc = dict(GAME_DOC, utility=[[1, 0], ["-1/2", "3/4"]])
        loaded = load_game(write(tmp_path, doc))
        assert loaded.game.utility == ((F(1), F(0)), (F(-1, 2), F(3, 4)))
        assert loaded.game.prior == (F(3, 4), F(1, 4))

    def test_missing_field_is_named(self, tmp_path):
        doc = {k: v for k, v in GAME_DOC.items() if k != "prior"}
        with pytest.raises(ParseError, match="prior"):
            load_game(write(tmp_path, doc))

    def test_bad_cell_carries_a_crumb(self, tmp_path):
        doc = dict(GAME_DOC, utility=[[1, "x"], [0, 1]])
        with pytest.raises(ParseError, match=r"utility\[0\]\[1\]"):
            load_game(write(tmp_path, doc))

    @pytest.mark.parametrize(
        "field, value, crumb, reason",
        [
            ("utility", [[1, 0], [0, "1/2", True]], r"utility\[1\]\[2\]", "booleans"),
            ("prior", ["1/4", "1/2", "1/4", None], r"prior\[3\]", "NoneType"),
            ("prior", ["3/4", "1/" + "9" * 5000], r"prior\[1\]", "value has 5000 digits"),
        ],
        ids=["bool", "null", "5000-digit-denominator"],
    )
    def test_bad_entry_after_good_ones_is_located(self, tmp_path, field, value, crumb, reason):
        """A list is parsed whole; the first entry that fails, after good
        ones, is named in the error with its reason."""
        doc = dict(GAME_DOC, **{field: value})
        with pytest.raises(ParseError, match=rf"{crumb}: .*{reason}"):
            load_game(write(tmp_path, doc))

    def test_zero_denominator_rejected(self, tmp_path):
        doc = dict(GAME_DOC, prior=["1/0", "1/1"])
        with pytest.raises(ParseError, match=r"prior\[0\]"):
            load_game(write(tmp_path, doc))

    def test_boolean_entry_rejected(self, tmp_path):
        doc = dict(GAME_DOC, prior=[True, 0])
        with pytest.raises(ParseError, match="boolean"):
            load_game(write(tmp_path, doc))

    def test_domain_error_is_located(self, tmp_path):
        doc = dict(GAME_DOC, prior=["3/4", "3/4"])
        with pytest.raises(ValidationError) as err:
            load_game(write(tmp_path, doc))
        assert "doc.json" in str(err.value)

    def test_schema_version_guard(self, tmp_path):
        doc = dict(GAME_DOC, schema_version=2)
        with pytest.raises(ValidationError, match="schema_version"):
            load_game(write(tmp_path, doc))


class TestDropNullStates:
    DOC = {
        "states": ["t1", "tdead", "t2"],
        "actions": ["a1", "a2"],
        "utility": [[1, 5, 0], [0, 5, 1]],
        "prior": ["3/4", 0, "1/4"],
        "tau": {"support": [[1, 0, 0], [0, 0, 1]], "weights": ["3/4", "1/4"]},
    }

    def test_zero_prior_column_removed(self, tmp_path):
        loaded = load_game(write(tmp_path, self.DOC), drop_null_states=True)
        assert loaded.game.states == ("t1", "t2")
        assert loaded.game.utility == ((F(1), F(0)), (F(0), F(1)))
        assert loaded.game.prior == (F(3, 4), F(1, 4))
        assert loaded.tau.support == ((F(1), F(0)), (F(0), F(1)))

    def test_without_flag_zero_prior_is_refused(self, tmp_path):
        # full-support priors are a game invariant; the flag is the way in
        with pytest.raises(ValidationError, match="zero prior"):
            load_game(write(tmp_path, self.DOC))

    def test_ragged_game_refused(self, tmp_path):
        doc = dict(self.DOC, states=["t1", "tdead"])
        del doc["tau"]
        with pytest.raises(ValidationError, match="ragged"):
            load_game(write(tmp_path, doc), drop_null_states=True)

    def test_ragged_tau_refused(self, tmp_path):
        """A support row shorter than the prior has no coordinate to keep."""
        doc = dict(self.DOC, tau={"support": [[1, 0], [0, 0, 1]], "weights": ["3/4", "1/4"]})
        with pytest.raises(ValidationError, match="ragged tau"):
            load_game(write(tmp_path, doc), drop_null_states=True)


class TestOtherSections:
    def test_marginal_without_game(self, tmp_path):
        loaded = load_game(write(tmp_path, {"marginal": ["1/3", "2/3"]}))
        assert loaded.game is None
        assert loaded.marginal.probs == (F(1, 3), F(2, 3))

    def test_tau_must_be_object(self, tmp_path):
        doc = dict(GAME_DOC, tau=[[1, 0]])
        with pytest.raises(ParseError, match="tau"):
            load_game(write(tmp_path, doc))

    def test_marginals_require_ring(self, tmp_path):
        doc = {"marginals": [["1/2", "1/2"]]}
        with pytest.raises(ValidationError, match="ring"):
            load_game(write(tmp_path, doc))

    def test_ring_round_trip(self, tmp_path):
        doc = {
            "ring": {
                "states": ["t1", "t2"],
                "prior": ["3/4", "1/4"],
                "stages": [
                    {"actions": ["a1", "a2"], "utility": [[1, 0], [0, 1]]},
                    {"actions": ["b1", "b2"], "utility": [[1, 0], [0, 1]]},
                ],
            },
            "marginals": [["1/2", "1/2"], ["1/2", "1/2"]],
        }
        loaded = load_game(write(tmp_path, doc))
        assert loaded.ring.n_players == 2
        assert loaded.ring.actions == (("a1", "a2"), ("b1", "b2"))
        assert loaded.profile.marginals[1].probs == (F(1, 2), F(1, 2))

    def test_first_order_round_trip(self, tmp_path):
        doc = {
            "first_order": {
                "states": ["t1", "t2"],
                "prior": ["1/2", "1/2"],
                "players": [
                    {"actions": ["x1", "x2"], "utility": [[1, 0], [0, 1]]}
                ],
            }
        }
        loaded = load_game(write(tmp_path, doc))
        assert loaded.first_order.players[0].actions == ("x1", "x2")


class TestCanonicalReports:
    def test_byte_identity(self):
        a = Report("check", {"n": 1}, "consistent", witnesses={"outcome": [[1]]})
        b = Report("check", {"n": 1}, "consistent", witnesses={"outcome": [[1]]})
        assert report_string(a) == report_string(b)
        assert report_string(a).endswith("\n")

    def test_digest_tracks_inputs_only(self):
        base = Report("check", {"n": 1}, "consistent")
        other_verdict = Report("check", {"n": 1}, "inconsistent")
        other_inputs = Report("check", {"n": 2}, "consistent")
        assert base.to_dict()["inputs_sha256"] == other_verdict.to_dict()["inputs_sha256"]
        assert base.to_dict()["inputs_sha256"] != other_inputs.to_dict()["inputs_sha256"]

    def test_timing_pinned_to_null(self):
        assert Report("check", {}, "x").to_dict()["timing_ms"] is None

    def test_menu_rule_serialization_sorted(self):
        rule = {
            frozenset({1}): (F(0), F(1)),
            frozenset({0, 1}): (F(1, 2), F(1, 2)),
            frozenset({0}): (F(1), F(0)),
        }
        entries = menu_rule_json({m: parse_row(row) for m, row in rule.items()})
        assert [e["menu"] for e in entries] == [[0], [1], [0, 1]]
        assert entries[2]["probs"] == ["1/2", "1/2"]


# Strings with what JSON escapes (quotes, backslashes, control characters)
# next to what it keeps as is (non-ASCII, non-BMP).
_JSON_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\U0001f600'), st.characters()),
    max_size=8,
)
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_JSON_TEXT, children, max_size=5),
    max_leaves=30,
)


class TestCanonicalWriter:
    @given(_JSON_TREES)
    def test_writes_what_json_dumps_writes(self, tree):
        """The reference is the encoder reports were first written with."""
        reference = json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        assert canonical_json(tree) == reference

    @pytest.mark.parametrize(
        "value", [1.5, (1, 2), F(1, 2), {1: "a"}, {"a": [{"b": {0}}]}], ids=repr
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            canonical_json(value)

    @given(_JSON_TREES, st.data())
    def test_a_rendered_subtree_is_written_in_place(self, tree, data):
        """A subtree anywhere, the root included, replaced by its own
        canonical text without the final newline: the same bytes."""
        expected = canonical_json(tree)
        root = [tree]
        holder, slot = root, 0
        while type(holder[slot]) in (list, dict) and holder[slot] and data.draw(st.booleans()):
            node = holder[slot]
            keys = range(len(node)) if type(node) is list else sorted(node)
            holder, slot = node, data.draw(st.sampled_from(keys))
        holder[slot] = CanonicalText(canonical_json(holder[slot])[:-1])
        assert canonical_json(root[0]) == expected

    def test_deep_nesting_raises_no_recursion_error(self):
        depth = 3 * sys.getrecursionlimit()
        tree = []
        for _ in range(depth):
            tree = [tree]
        opening = "".join("  " * i + "[\n" for i in range(depth))
        closing = "".join("\n" + "  " * i + "]" for i in reversed(range(depth)))
        assert canonical_json(tree) == opening + "  " * depth + "[]" + closing + "\n"

    def test_report_with_990_deep_inputs_is_refused(self, tmp_path, capsys):
        """Past the fixed nesting limit a document is refused as too deep,
        the same way from a test's deep stack, where ``json`` itself runs
        out of stack, as from a fresh interpreter, where it does not."""
        deep = "[" * 990 + "]" * 990
        path = write(
            tmp_path,
            '{"command": "check", "verdict": "consistent", "inputs_sha256": "0", '
            f'"inputs": {{"states": {deep}}}}}',
        )
        message = f"nested too deeply (more than {MAX_NESTING} levels)"
        with pytest.raises(ParseError) as refused:
            load_report(path)
        assert str(refused.value).endswith(message)
        assert main(["check", path]) == 3
        assert capsys.readouterr().err.endswith(message + "\n")
        loader = (
            "import sys\n"
            "from mbce.errors import ParseError\n"
            "from mbce.io import load_report\n"
            "try:\n"
            "    load_report(sys.argv[1])\n"
            "except ParseError as err:\n"
            "    print(err)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", loader, path], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith(message + "\n")

    def test_nesting_up_to_the_limit_parses(self, tmp_path):
        """The top-level object is the first level; many brackets side by
        side nest no deeper."""
        shallow = "[" + ", ".join(["[[]]"] * MAX_NESTING) + "]"
        assert load_document(write(tmp_path, f'{{"states": {shallow}}}'))["states"][0] == [[]]
        for depth, refused in ((MAX_NESTING, False), (MAX_NESTING + 1, True)):
            inner = "[" * (depth - 1) + "]" * (depth - 1)
            path = write(tmp_path, f'{{"states": {inner}}}')
            if refused:
                with pytest.raises(ParseError, match="nested too deeply"):
                    load_document(path)
            else:
                assert "states" in load_document(path)

    def test_an_int_too_long_to_print_names_the_limit(self):
        limit = str(sys.get_int_max_str_digits())
        with pytest.raises(NumberTooLong, match=limit):
            canonical_json({"n": [1, 10**5000]})
        with pytest.raises(NumberTooLong, match=limit):
            fraction_to_json(F(1, 10**5000 + 1))

    def test_check_refuses_a_report_value_too_long_to_print(self, tmp_path, capsys):
        """Each input value is under the digit limit, but the witness is not:
        exit 3 with the limit named, and no report."""
        d, e = 10**3000 + 7, 10**3000 + 9
        doc = dict(
            GAME_DOC,
            utility=[[f"1/{e}", 0], [0, f"1/{e + 2}"]],
            prior=[f"1/{d}", f"{d - 1}/{d}"],
            marginal=["1/2", "1/2"],
        )
        assert main(["check", write(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and str(sys.get_int_max_str_digits()) in captured.err


class TestReportReload:
    def test_consistent_check_report(self, tmp_path, match_three_quarters):
        report, code = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))
        assert code == 0
        doc = reload_report(tmp_path, report)
        assert doc["verdict"] == "consistent"

    def test_tampered_witness_rejected(self, tmp_path, match_three_quarters):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))

        def mutate(doc):
            doc["witnesses"]["outcome"][0][0] = "1/3"

        with pytest.raises(ValidationError):
            reload_report(tmp_path, report, mutate)

    def test_tampered_inputs_break_digest(self, tmp_path, match_three_quarters):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))

        def mutate(doc):
            doc["inputs"]["marginal"] = ["1/4", "3/4"]

        with pytest.raises(ValidationError, match="digest"):
            reload_report(tmp_path, report, mutate)

    def test_state_condition_certificate_rechecked(self, tmp_path, match_three_quarters):
        report, code = cmd_check(match_three_quarters, make_marginal(["1/4", "3/4"]))
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["certificate"]["kind"] == "state-condition"

        def mutate(d):
            d["certificate"]["residual"] = "-1/9"

        with pytest.raises(ValidationError, match="re-derive"):
            reload_report(tmp_path, report, mutate)

    def test_direction_certificate_rechecked(self, tmp_path, direction_blind_spot):
        report, code = cmd_check(*direction_blind_spot)
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["certificate"]["kind"] == "strassen-direction"

        def mutate(d):
            d["certificate"]["direction"][0] = 2

        with pytest.raises(ValidationError, match="re-derive"):
            reload_report(tmp_path, report, mutate)

    def test_unsupportable_certificate_rechecked(self, tmp_path):
        game = make_game(["t1", "t2"], ["a1", "a2"], [[0, 0], [1, 1]], ["1/2", "1/2"])
        report, code = cmd_check(game, make_marginal(["1/2", "1/2"]))
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["certificate"]["action"] == 0

        def mutate(d):
            d["certificate"]["action"] = 1  # the dominant action is supportable

        with pytest.raises(ValidationError, match="supportable"):
            reload_report(tmp_path, report, mutate)

    def test_inconsistent_oracle_report_reloads(self, tmp_path, match_three_quarters):
        report, code = cmd_check(
            match_three_quarters, make_marginal(["1/4", "3/4"]), "oracle"
        )
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["command"] == "oracle"
        assert doc["certificate"]["kind"] == "state-condition"

    def test_unknown_verdict_rejected(self, tmp_path, match_three_quarters):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))

        def mutate(doc):
            doc["verdict"] = "maybe"

        with pytest.raises(ValidationError, match="verdict"):
            reload_report(tmp_path, report, mutate)

    def test_unknown_certificate_kind_rejected(self, tmp_path, match_three_quarters):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/4", "3/4"]))

        def mutate(doc):
            doc["certificate"]["kind"] = "vibes"

        with pytest.raises(ValidationError, match="kind"):
            reload_report(tmp_path, report, mutate)

    def test_unknown_command_rejected(self, tmp_path):
        inputs = {"n": 1}
        doc = {
            "command": "dance",
            "inputs": inputs,
            "inputs_sha256": inputs_digest(inputs),
            "verdict": "ok",
        }
        with pytest.raises(ValidationError, match="command"):
            load_report(write(tmp_path, doc, "report.json"))

    def test_implement_report_rechecked(self, tmp_path, match_three_quarters):
        tau = make_posteriors([[1, 0], [0, 1]], ["3/4", "1/4"])
        report, code = cmd_implement(
            match_three_quarters, make_marginal(["3/4", "1/4"]), tau
        )
        assert code == 0
        doc = reload_report(tmp_path, report)
        assert doc["verdict"] == "implemented"

        def wrong_outcome(d):
            d["witnesses"]["outcome"][0][0] = "1/2"

        with pytest.raises(ValidationError, match="re-derive"):
            reload_report(tmp_path, report, wrong_outcome)

        def phantom_menu(d):
            d["witnesses"]["menu_rule"][0]["menu"] = [0, 1]

        with pytest.raises(ValidationError, match="menu"):
            reload_report(tmp_path, report, phantom_menu)

    def test_implement_tau_must_have_the_games_states(self, tmp_path, match_half):
        """A posterior with a coordinate beyond the game's states is refused,
        though best responses and the outcome read only the game's states."""
        tau = make_posteriors([["1/2", "1/2"]], [1])
        report, code = cmd_implement(match_half, make_marginal(["1/2", "1/2"]), tau)
        assert code == 0

        def extra_state(d):
            for node in (d["inputs"]["tau"], d["witnesses"]["tau"]):
                node["support"] = [["1/2", "1/2", 0]]
            d["inputs_sha256"] = inputs_digest(d["inputs"])

        with pytest.raises(ValidationError, match="dimensions"):
            reload_report(tmp_path, report, extra_state)

    def test_infeasible_implement_report_rechecked(self, tmp_path, match_half):
        tau = make_posteriors([[1, 0], [0, 1]], ["1/2", "1/2"])
        report, code = cmd_implement(match_half, make_marginal(["1/4", "3/4"]), tau)
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["certificate"]["subset"] == [0]
        assert doc["certificate"]["deficit"] == "-1/4"

        def other_subset(d):
            d["certificate"]["subset"] = [1]

        def wrong_deficit(d):
            d["certificate"]["deficit"] = 7

        def no_actions(d):
            d["certificate"]["subset"] = []

        for mutate in (other_subset, wrong_deficit, no_actions):
            with pytest.raises(ValidationError, match="subset"):
                reload_report(tmp_path, report, mutate)

    def test_ring_report_rechecked(self, tmp_path):
        ring = make_ring(
            ["t1", "t2"],
            ["3/4", "1/4"],
            [
                (["a1", "a2"], [[1, 0], [0, 1]]),
                (["b1", "b2"], [[1, 0], [0, 1]]),
            ],
        )
        profile = make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]])
        report, code = cmd_ring(ring, profile)
        assert code == 0
        doc = reload_report(tmp_path, report)
        assert doc["verdict"] == "consistent"

        def mutate(d):
            d["witnesses"]["joint"]["probs"][0][0] = "1/3"

        with pytest.raises(ValidationError, match="re-derive"):
            reload_report(tmp_path, report, mutate)

    def test_ring_report_above_the_profile_cap_is_refused(self, tmp_path):
        # 4^6 x 2 = 8192 profiles: every stage is consistent, but the joint
        # is refused before it is built, so no report can carry it.
        identity = [[int(a == s) for s in range(4)] for a in range(4)]
        stages = [([f"p{i}a{a}" for a in range(4)], identity) for i in range(6)]
        stages.append((["x", "y"], [[0] * 4, [0] * 4]))
        prior = ["1/10", "2/10", "3/10", "4/10"]
        ring = make_ring(["t1", "t2", "t3", "t4"], prior, stages)
        profile = make_profile(ring, [prior] * 6 + [["1/2", "1/2"]])
        verdict = check_ring(ring, profile)
        assert verdict.consistent
        inputs = {
            "ring": ring_json(ring),
            "marginals": [vector_json(m.integer_probs) for m in profile.marginals],
        }
        doc = {
            "command": "ring",
            "inputs": inputs,
            "inputs_sha256": inputs_digest(inputs),
            "verdict": "consistent",
            "witnesses": {"stage_witnesses": [rows_json(w.integer_probs) for w in verdict.stage_witnesses]},
        }
        with pytest.raises(ValidationError, match="8192 action profiles exceed the cap of 4096"):
            load_report(write(tmp_path, doc, "report.json"))

    def test_inconsistent_ring_report_rechecked(self, tmp_path):
        ring = make_ring(
            ["t1", "t2"],
            ["3/4", "1/4"],
            [
                (["a1", "a2"], [[1, 0], [0, 1]]),
                (["b1", "b2"], [[1, 0], [0, 1]]),
            ],
        )
        profile = make_profile(ring, [["3/4", "1/4"], ["1/4", "3/4"]])
        report, code = cmd_ring(ring, profile)
        assert code == 2
        doc = reload_report(tmp_path, report)
        assert doc["details"]["failing_stage"] == 1

        def wrong_residual(d):
            d["certificate"]["residual"] = "-1/9"

        def earlier_stage(d):
            d["details"]["failing_stage"] = 0

        def missing_stage(d):
            d["details"]["failing_stage"] = 2

        for mutate, message in (
            (wrong_residual, "re-derive"),
            (earlier_stage, "re-derive"),
            (missing_stage, "failing stage"),
        ):
            with pytest.raises(ValidationError, match=message):
                reload_report(tmp_path, report, mutate)

    @pytest.mark.parametrize("field", ["states", "actions"])
    def test_repeated_label_in_inputs_refused(self, tmp_path, match_three_quarters, field):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))

        def mutate(doc):
            doc["inputs"][field] = ["x", "x"]
            doc["inputs_sha256"] = inputs_digest(doc["inputs"])

        with pytest.raises(ValidationError, match="label 'x' is repeated"):
            reload_report(tmp_path, report, mutate)

    def test_repeated_ring_label_in_inputs_refused(self, tmp_path):
        ring = make_ring(
            ["t1", "t2"],
            ["3/4", "1/4"],
            [
                (["a1", "a2"], [[1, 0], [0, 1]]),
                (["b1", "b2"], [[1, 0], [0, 1]]),
            ],
        )
        report, _ = cmd_ring(ring, make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]]))

        def mutate(doc):
            doc["inputs"]["ring"]["stages"][1]["actions"] = ["b", "b"]
            doc["inputs_sha256"] = inputs_digest(doc["inputs"])

        with pytest.raises(ValidationError, match="action label 'b' is repeated"):
            reload_report(tmp_path, report, mutate)

    def test_public_report_rechecked(self, tmp_path):
        fo = make_first_order(
            ["t1", "t2"],
            ["1/2", "1/2"],
            [(["x1", "x2"], [[1, 0], [0, 1]])],
        )
        report, code = cmd_public(fo, make_marginal(["1/2", "1/2"]))
        assert code == 0
        doc = reload_report(tmp_path, report)
        assert doc["verdict"] == "consistent"

    def test_verify_report_reloads(self, tmp_path):
        report, code = cmd_verify(5, 1, 3, 3)
        assert code == 0
        doc = reload_report(tmp_path, report)
        assert doc["details"]["disagreements"] == []

    @pytest.mark.parametrize(
        "field, value",
        [("consistent", 99), ("inconsistent", 0), ("disagreements", [2])],
    )
    def test_tampered_verify_details_rejected(self, tmp_path, field, value):
        report, _ = cmd_verify(5, 1, 3, 3)
        assert report.details[field] != value

        def mutate(doc):
            doc["details"][field] = value

        with pytest.raises(ValidationError, match="details do not re-derive"):
            reload_report(tmp_path, report, mutate)

    def test_tampered_verify_verdict_rejected(self, tmp_path):
        report, _ = cmd_verify(5, 1, 3, 3)

        def mutate(doc):
            doc["verdict"] = "disagreement"

        with pytest.raises(ValidationError, match="verdict does not match"):
            reload_report(tmp_path, report, mutate)

    def test_verify_inputs_rederive_with_a_fresh_digest(self, tmp_path):
        report, _ = cmd_verify(5, 1, 3, 3)

        def mutate(doc):
            doc["inputs"]["seed"] = 2
            doc["inputs_sha256"] = inputs_digest(doc["inputs"])

        with pytest.raises(ValidationError, match="details do not re-derive"):
            reload_report(tmp_path, report, mutate)

    @pytest.mark.parametrize(
        "key, value", [("n", -1), ("seed", "1"), ("max_states", 1), ("max_actions", True)]
    )
    def test_malformed_verify_inputs_rejected(self, tmp_path, key, value):
        report, _ = cmd_verify(5, 1, 3, 3)

        def mutate(doc):
            doc["inputs"][key] = value
            doc["inputs_sha256"] = inputs_digest(doc["inputs"])

        with pytest.raises(ValidationError, match="must be integers"):
            reload_report(tmp_path, report, mutate)

    def test_save_report_writes_canonical_bytes(self, tmp_path, match_three_quarters):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/2", "1/2"]))
        path = tmp_path / "report.json"
        save_report(report, str(path))
        assert path.read_text(encoding="utf-8") == report_string(report)
        load_report(str(path))

    def test_save_report_over_a_longer_file_writes_the_canonical_bytes(
        self, tmp_path, match_three_quarters
    ):
        report, _ = cmd_check(match_three_quarters, make_marginal(["1/4", "3/4"]))
        path = tmp_path / "report.json"
        path.write_bytes(b"\xff" * 65536)
        save_report(report, str(path))
        assert path.read_bytes() == report_string(report).encode("utf-8")
        load_report(str(path))


MATCH_RING_STAGES = [
    (["a1", "a2"], [[1, 0], [0, 1]]),
    (["b1", "b2"], [[1, 0], [0, 1]]),
]

# Posteriors at t1, at the tie and at t2 of the matching game with prior 1/2:
# menus {0}, {0, 1} and {1} with masses 1/4, 1/2 and 1/4.
TIE_TAU = (
    [[1, 0], ["1/2", "1/2"], [0, 1]],
    ["1/4", "1/2", "1/4"],
)


def two_matching_players(prior):
    return make_first_order(
        ["t1", "t2"],
        prior,
        [(["x1", "x2"], [[1, 0], [0, 1]]), (["y1", "y2"], [[1, 0], [0, 1]])],
    )


class TestMenuRuleClaims:
    def implemented(self, match_half):
        report, code = cmd_implement(
            match_half, make_marginal(["1/2", "1/2"]), make_posteriors(*TIE_TAU)
        )
        assert code == 0
        assert [e["menu"] for e in report.witnesses["menu_rule"]] == [[0], [1], [0, 1]]
        return report

    def test_cli_menu_rule_reloads(self, tmp_path, match_half):
        doc = reload_report(tmp_path, self.implemented(match_half))
        assert doc["witnesses"]["menu_rule"][2]["probs"] == ["1/2", "1/2"]

    def test_negative_entry_rejected(self, tmp_path, match_half):
        def mutate(doc):
            doc["witnesses"]["menu_rule"][2]["probs"] = [2, -1]

        with pytest.raises(ValidationError, match="menu rule row"):
            reload_report(tmp_path, self.implemented(match_half), mutate)

    def test_empty_menu_rule_rejected(self, tmp_path, match_half):
        def mutate(doc):
            doc["witnesses"]["menu_rule"] = []

        with pytest.raises(ValidationError, match="leaves out a menu"):
            reload_report(tmp_path, self.implemented(match_half), mutate)

    def test_repeated_menu_rejected(self, tmp_path, match_half):
        def mutate(doc):
            doc["witnesses"]["menu_rule"][1] = dict(doc["witnesses"]["menu_rule"][0])

        with pytest.raises(ValidationError, match="menu twice"):
            reload_report(tmp_path, self.implemented(match_half), mutate)

    def test_rows_must_split_into_the_marginal(self, tmp_path, match_half):
        # a valid tie-break, but the menu masses then give 3/4 to a1
        def mutate(doc):
            doc["witnesses"]["menu_rule"][2]["probs"] = [1, 0]

        with pytest.raises(ValidationError, match="split the menus"):
            reload_report(tmp_path, self.implemented(match_half), mutate)


def test_ring_joint_must_keep_the_prior(tmp_path):
    """Moving stage-0 mass between states keeps obedience and both player
    marginals, but the chained joint no longer averages to the prior."""
    ring = make_ring(["t1", "t2"], ["3/4", "1/4"], MATCH_RING_STAGES)
    profile = make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]])
    report, code = cmd_ring(ring, profile)
    assert code == 0
    assert report.witnesses["stage_witnesses"][0] == [["1/2", 0], ["1/4", "1/4"]]

    def mutate(doc):
        doc["witnesses"]["stage_witnesses"][0] = [["1/2", 0], [0, "1/2"]]

    with pytest.raises(ValidationError, match="prior"):
        reload_report(tmp_path, report, mutate)


@pytest.mark.parametrize(
    "second", [[[0, "1/2"], [0, "1/2"]], [["1/2", "1/2"], ["-1/2", "1/2"]]]
)
def test_ring_stage_witness_with_a_negative_entry_is_refused(tmp_path, second):
    """Stage witnesses that chain, on the shared marginal (0, 1), but carry a
    negative entry are refused before they are chained: the zero-mass
    upstream action has no conditional to read, and in the second case its
    column has nonzero entries that would be divided by its zero mass."""
    ring = make_ring(["t1", "t2"], ["3/4", "1/4"], MATCH_RING_STAGES)
    report, code = cmd_ring(ring, make_profile(ring, [["1/2", "1/2"], ["1/2", "1/2"]]))
    assert code == 0

    def mutate(doc):
        doc["witnesses"]["stage_witnesses"] = [[["1/4", "-1/4"], ["1/2", "1/2"]], second]

    with pytest.raises(ValidationError, match="stage witness 0 has a negative entry"):
        reload_report(tmp_path, report, mutate)


# -- every leaf of every report kind -------------------------------------

_RATIONAL = re.compile(r"^-?\d+/\d+$")

# Keys whose integers index states, actions, stages or players: a JSON true
# must not pass for 1 there.
INDEX_KEYS = {"state", "action", "pair", "subset", "menu", "failing_stage"}

# Labels with a closed vocabulary are also relabelled to every other value.
VOCABULARY = {
    "command": ("check", "oracle", "implement", "ring", "public", "verify"),
    "verdict": ("consistent", "inconsistent", "implemented", "infeasible", "ok", "disagreement"),
    "kind": (
        UNSUPPORTABLE_ACTION,
        STATE_CONDITION,
        ACTION_PAIR_CONDITION,
        STRASSEN_DIRECTION,
        IMPLEMENTATION_INFEASIBLE,
    ),
}

# check and oracle write identical reports by design.
SAME_REPORT = {frozenset({"check", "oracle"})}


def cli_reports(blind_spot):
    """One report the CLI writes for each command and verdict kind."""
    match34, match_half = matching_game(F(3, 4)), matching_game(F(1, 2))
    unsupportable = make_game(["t1", "t2"], ["a1", "a2"], [[0, 0], [1, 1]], ["1/2", "1/2"])
    pair_failure = make_game(
        ["t1", "t2", "t3"],
        ["a1", "a2"],
        [[-3, "7/3", "-5/4"], [-2, -1, "-7/3"]],
        ["6/13", "5/13", "2/13"],
    )
    ring = make_ring(["t1", "t2"], ["3/4", "1/4"], MATCH_RING_STAGES)
    half, skew = ["1/2", "1/2"], ["1/4", "3/4"]
    two_players = two_matching_players(half)
    runs = {
        "check consistent": (cmd_check, match34, make_marginal(half)),
        "check unsupportable": (cmd_check, unsupportable, make_marginal(half)),
        "check state": (cmd_check, match34, make_marginal(skew)),
        "check pair": (cmd_check, pair_failure, make_marginal(["3/11", "8/11"])),
        "check direction": (cmd_check, *blind_spot),
        "oracle inconsistent": (cmd_check, match34, make_marginal(skew), "oracle"),
        "implement implemented": (
            cmd_implement, match_half, make_marginal(half), make_posteriors(*TIE_TAU)
        ),
        "implement infeasible": (
            cmd_implement,
            match_half,
            make_marginal(skew),
            make_posteriors([[1, 0], [0, 1]], half),
        ),
        "ring consistent": (cmd_ring, ring, make_profile(ring, [half, half])),
        "ring inconsistent": (cmd_ring, ring, make_profile(ring, [["3/4", "1/4"], skew])),
        "public consistent": (cmd_public, two_players, make_marginal([0, "1/2", "1/2", 0])),
        "public inconsistent": (
            cmd_public, two_matching_players(["3/4", "1/4"]), make_marginal([0, "1/2", "1/2", 0])
        ),
        "verify": (cmd_verify, 3, 7, 4, 4),
    }
    return {name: run(*args)[0] for name, (run, *args) in runs.items()}


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def edits(path, value):
    """Single-leaf perturbations, each with the errors that count as refusal:
    int +1, rational +1, label +"x", null -> 0 and an index int -> bool must
    give a ValidationError. Any other 0 or 1 turned into a bool may instead
    meet a rational parser (ParseError), and a vocabulary label relabelled to
    another word may find a field of the other kind missing (ParseError)."""
    key = next((p for p in reversed(path) if isinstance(p, str)), None)
    if value is None:
        yield 0, ValidationError
    elif isinstance(value, int):
        yield value + 1, ValidationError
        if key in INDEX_KEYS:
            yield bool(value), ValidationError
        elif value in (0, 1):
            yield bool(value), (ValidationError, ParseError)
    elif _RATIONAL.match(value):
        yield fraction_to_json(F(value) + 1), ValidationError
    else:
        yield value + "x", ValidationError
        if len(path) == 1 or key == "kind":
            for word in VOCABULARY.get(key, ()):
                if word != value and frozenset({word, value}) not in SAME_REPORT:
                    yield word, (ValidationError, ParseError)


def with_leaf(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def test_every_single_leaf_edit_is_refused(tmp_path, direction_blind_spot):
    """No report the CLI writes survives any one-leaf edit: the edit either
    breaks a claim or leaves a report its inputs and choices do not rebuild."""
    loaded = []
    tried = 0
    for name, report in cli_reports(direction_blind_spot).items():
        doc = json.loads(report_string(report))
        assert load_report(write(tmp_path, doc, "report.json")) == doc, name
        for path, value in list(leaves(doc)):
            for edit, refusal in edits(path, value):
                tried += 1
                target = write(tmp_path, with_leaf(doc, path, edit), "report.json")
                try:
                    load_report(target)
                except refusal:
                    continue
                loaded.append((name, path, edit))
    assert tried > 600
    assert loaded == []


# SHA-256 of the report text of each kind as ``json.dumps`` wrote it, before
# the canonical writer replaced it; spec, not tuning.
PINNED_REPORTS = {
    "check consistent": "44397a1c80ec28a10f635745578b723888d67e7d0c02b4e6d802161a55625e8f",
    "check unsupportable": "3d3cb24725ab814cc84b022b80cfdb98dba070bd2f699c7299d2cf5168c36695",
    "check state": "c9be9b18b1f614f1c3eeca5bff6eb46fa1b58436ba637264f75fe211f2db0953",
    "check pair": "6a68442e7bbbca40c0fd2c77ccbd69c4db39bfae2cf10e61a8dc98ae90fd4202",
    "check direction": "0fc5d2cd3028ebaaf25721807835a84a8c5e5476efba1550675628b3be6757d7",
    "oracle inconsistent": "39098d0f3c2d17b1197080ed7f9ece6fc5f216aaeafe8cef99bfe2ccfc3659a8",
    "implement implemented": "23da2c31224fe9c36fbfa658a3b961ed72f3bb79e59ae2ee3bbd82353a1667ea",
    "implement infeasible": "333e2daf48240c443cb573386fdbe6126877dc351badf80d184cf75ae5e782ac",
    "ring consistent": "5f86e8d9ace2d9d23b272c713748438ec87c460a22f95aaec75da9680cceed73",
    "ring inconsistent": "1d5c436c9e9a8d74f73db572d66a2282149b055c5173558a3bfc4cb78294fdcc",
    "public consistent": "ab39070168cbf360f5c128c6df12b4662b77d31fc56b856af9c7799173a3b8ec",
    "public inconsistent": "30da9975d68669728af37d4a394067398d8610c6383561da436b120074c57af5",
    "verify": "207013eff1454eb667b86f5bec7b5e79f78b8b2dd5b624de0dd13ef12008c760",
}


def test_report_bytes_are_pinned(direction_blind_spot):
    """Every report kind ``cli_reports`` builds keeps its bytes; the reports
    of CLI runs are pinned in ``pins.json``."""
    digests = {
        name: hashlib.sha256(report_string(report).encode("utf-8")).hexdigest()
        for name, report in cli_reports(direction_blind_spot).items()
    }
    assert digests == PINNED_REPORTS


def test_strassen_direction_report_is_pinned(tmp_path):
    """``mbce check`` on the instance ``mbce random --seed 691`` writes: a
    rejection that only the separating-direction LP certifies. Its exit code
    and sha256 are the ``check-seed691`` pin."""
    out = run_pin(PINS["check-seed691"], tmp_path)
    certificate = json.loads(out.read_text())["certificate"]
    assert certificate["kind"] == "strassen-direction"
    assert certificate["direction"] == ["419/1259", -1, 1, 1]


def test_report_text_writes_the_inputs_once_and_the_same_bytes(direction_blind_spot):
    """report_string renders the inputs once, for the digest and in place;
    for every command the text is that of the whole document."""
    for name, report in cli_reports(direction_blind_spot).items():
        assert report_string(report) == canonical_json(report.to_dict()), name


class TestBooleanLiterals:
    """load_report walks a report for booleans only when its text holds a
    true or false literal; a label spelled "true" is no boolean."""

    def test_state_labelled_true_loads(self, tmp_path):
        game = make_game(["true", "false"], ["a1", "a2"], [[1, 0], [0, 1]], ["3/4", "1/4"])
        report, code = cmd_check(game, make_marginal(["1/2", "1/2"]))
        assert code == 0
        text = report_string(report)
        assert '"true"' in text and '"false"' in text
        assert load_report(write(tmp_path, text, "report.json")) == json.loads(text)

    @pytest.mark.parametrize("labels", [["t1", "t2"], ["true", "false"]])
    def test_a_literal_boolean_is_refused(self, tmp_path, labels):
        """true for the schema version 1 equals it in the comparison; the
        boolean itself is what is refused, with or without such labels."""
        game = make_game(labels, ["a1", "a2"], [[1, 0], [0, 1]], ["3/4", "1/4"])
        doc = json.loads(report_string(cmd_check(game, make_marginal(["1/2", "1/2"]))[0]))
        doc["schema_version"] = True
        path = write(tmp_path, json.dumps(doc), "report.json")
        with pytest.raises(ValidationError, match="report holds a JSON boolean, which no builder"):
            load_report(path)


def test_vector_json_mixes_ints_and_strings():
    assert vector_json((4, (8, 2, -3))) == [2, "1/2", "-3/4"]
