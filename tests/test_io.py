"""Instance files in, canonical self-checking reports out.

The reload tests tamper with saved reports on purpose: a report that still
loads after its witness was edited would mean load_report trusts prose
instead of re-deriving the checks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from mbce.applications import make_first_order, make_profile, make_ring
from mbce.cli import cmd_check, cmd_implement, cmd_public, cmd_ring, cmd_verify
from mbce.consistency import (
    ACTION_PAIR_CONDITION,
    STATE_CONDITION,
    STRASSEN_DIRECTION,
    UNSUPPORTABLE_ACTION,
)
from mbce.errors import ParseError, ValidationError
from mbce.game import make_game, make_marginal, matching_game
from mbce.implementation import make_posteriors
from mbce.io import (
    IMPLEMENTATION_INFEASIBLE,
    Report,
    canonical_json,
    inputs_digest,
    load_document,
    load_game,
    load_report,
    menu_rule_json,
    report_string,
    save_report,
    vector_json,
)
from mbce.rationals import fraction_to_json

F = Fraction

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
        path = write(tmp_path, '{"weight": Infinity}')
        with pytest.raises(ValidationError):
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
        entries = menu_rule_json(rule)
        assert [e["menu"] for e in entries] == [[0], [1], [0, 1]]
        assert entries[2]["probs"] == ["1/2", "1/2"]


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


def test_vector_json_mixes_ints_and_strings():
    assert vector_json([F(2), F(1, 2), F(-3, 4)]) == [2, "1/2", "-3/4"]
