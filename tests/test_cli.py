"""End-to-end command runs: files in, exit codes and canonical reports out."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbce.cli
import mbce.consistency
import mbce.implementation
import mbce.io
from mbce.cli import build_parser, cmd_implement, main
from mbce.game import integer_best_responses, make_marginal, matching_game
from mbce.implementation import make_posteriors
from mbce.io import load_report
import references

SRC = str(Path(__file__).resolve().parents[1] / "src")

MATCH34 = {
    "states": ["t1", "t2"],
    "actions": ["a1", "a2"],
    "utility": [[1, 0], [0, 1]],
    "prior": ["3/4", "1/4"],
}

BLIND_SPOT = {
    "states": ["t1", "t2", "t3", "t4"],
    "actions": ["a1", "a2", "a3", "a4"],
    "utility": [
        ["1/2", "-1/2", "-5/2", -2],
        ["7/2", -6, -3, "3/2"],
        ["1/2", -2, 2, -2],
        [6, 7, "7/4", -7],
    ],
    "prior": ["1/3", "1/3", "2/15", "1/5"],
    "marginal": ["3/14", "3/14", "3/14", "5/14"],
}

TWO_MATCHING_PLAYERS = {
    "first_order": {
        "states": ["t1", "t2"],
        "prior": ["1/2", "1/2"],
        "players": [
            {"actions": ["x1", "x2"], "utility": [[1, 0], [0, 1]]},
            {"actions": ["y1", "y2"], "utility": [[1, 0], [0, 1]]},
        ],
    },
    "marginal": [0, "1/2", "1/2", 0],
}

MATCH_RING = {
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


def full_information_ring(n_players, n_actions):
    """Each player guesses the state or the upstream action, and is told it:
    consistent, with every marginal the prior."""
    prior = [f"{t + 1}/{n_actions * (n_actions + 1) // 2}" for t in range(n_actions)]
    identity = [[int(a == s) for s in range(n_actions)] for a in range(n_actions)]
    stages = [
        {"actions": [f"p{i}a{a}" for a in range(n_actions)], "utility": identity}
        for i in range(n_players)
    ]
    ring = {"states": [f"t{t}" for t in range(n_actions)], "prior": prior, "stages": stages}
    return {"ring": ring, "marginals": [prior] * n_players}


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def dev_null_is_a_device():
    return os.path.exists("/dev/null") and stat.S_ISCHR(os.stat("/dev/null").st_mode)


COMMAND_NAMES = ["check", "oracle", "implement", "ring", "public", "verify", "random"]
OPTION_WORDS = [
    "--marginal",
    "--tau",
    "--drop-null-states",
    "--out",
    "--n",
    "--seed",
    "--max-states",
    "--max-actions",
]
# Unique and ambiguous prefixes of the options, and argparse's other
# spellings: ``--opt=value``, ``--``, help, unknown options and a lone dash.
ODD_WORDS = [
    "--ou",
    "--o",
    "--m",
    "--max",
    "--max-s",
    "--mar",
    "--d",
    "--t",
    "--se",
    "--",
    "-h",
    "--help",
    "--out=r.json",
    "--n=3",
    "--marginal=1/2,1/2",
    "--seed=-1",
    "--bogus",
    "-",
]
# Values and positionals: empty, holding a space, starting with ``-``, and
# reading as negative ints, which argparse takes as values.
INT_VALUES = ["3", " 5", "0", "-2"]
PLAIN_VALUES = ["in.json", "", "a b", "1/2,1/2", "3"]
VALUES = PLAIN_VALUES + ["-2", "-x", "-a b"]


@st.composite
def command_lines(draw):
    """A command name, an unknown one or none, then, in any order, its own
    options with values of their kind, its positional and, on half the
    lines, other pairs and single words; any of them repeated, missing or
    extra."""
    name = draw(st.sampled_from(COMMAND_NAMES + ["no-such-command", None]))
    command = mbce.cli.COMMANDS.get(name)
    chunks = []
    if command is not None:
        for option in draw(st.lists(st.sampled_from(list(command.options.values())), max_size=4)):
            if option.kind == mbce.cli.FLAG:
                chunks.append((option.name,))
            else:
                values = INT_VALUES if option.kind == mbce.cli.INT else VALUES
                chunks.append((option.name, draw(st.sampled_from(values))))
        if command.positional is not None:
            # Mostly one positional; sometimes none, or an extra one.
            for _ in range(draw(st.sampled_from([1, 1, 1, 1, 1, 0, 2]))):
                chunks.append((draw(st.sampled_from(PLAIN_VALUES)),))
    if draw(st.booleans()):
        other = st.one_of(
            st.tuples(st.sampled_from(OPTION_WORDS), st.sampled_from(VALUES)),
            st.tuples(st.sampled_from(OPTION_WORDS + ODD_WORDS + VALUES)),
        )
        chunks += draw(st.lists(other, min_size=1, max_size=3))
    words = [word for chunk in draw(st.permutations(chunks)) for word in chunk]
    return words if name is None else [name, *words]


def drawn_outcome(parse, argv):
    """``parse(argv)``'s namespace or exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exit_info:
            result = exit_info.code
    return result, out.getvalue(), err.getvalue()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestCheck:
    def test_consistent_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        code, report, err = run(capsys, ["check", path])
        assert code == 0
        assert report["verdict"] == "consistent"
        assert report["witnesses"]["outcome"] == [["1/2", 0], ["1/4", "1/4"]]
        assert err.startswith("check:")  # timing goes to stderr only

    def test_inconsistent_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/4", "3/4"]))
        code, report, _ = run(capsys, ["check", path])
        assert code == 2
        cert = report["certificate"]
        assert cert["kind"] == "state-condition"
        assert cert["state"] == 1
        assert cert["residual"] == "-1/8"
        assert cert["direction"] == [0, -1]

    def test_marginal_flag_overrides_file(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/4", "3/4"]))
        code, report, _ = run(capsys, ["check", path, "--marginal", "1/2,1/2"])
        assert code == 0
        assert report["inputs"]["marginal"] == ["1/2", "1/2"]

    def test_empty_marginal_flag_is_read_not_ignored(self, tmp_path, capsys):
        """An explicit empty --marginal is parsed and refused, whether or
        not the file has a marginal of its own."""
        for doc in (dict(MATCH34, marginal=["1/2", "1/2"]), MATCH34):
            code, report, err = run(capsys, ["check", write(tmp_path, doc), "--marginal", ""])
            assert code == 3
            assert report is None
            assert err.startswith("error: --marginal")

    def test_missing_marginal_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, MATCH34)
        code, report, err = run(capsys, ["check", path])
        assert code == 3
        assert report is None
        assert err.startswith("error:")

    def test_float_input_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"prior": [0.75, 0.25]}', encoding="utf-8")
        code, _, err = run(capsys, ["check", str(path)])
        assert code == 3
        assert "p/q" in err

    def test_missing_file_exits_three(self, tmp_path, capsys):
        code, _, err = run(capsys, ["check", str(tmp_path / "absent.json")])
        assert code == 3
        assert err.startswith("error:")

    def test_direction_certificate_reaches_the_report(self, tmp_path, capsys):
        path = write(tmp_path, BLIND_SPOT)
        code, report, _ = run(capsys, ["check", path])
        assert code == 2
        cert = report["certificate"]
        assert cert["kind"] == "strassen-direction"
        assert cert["direction"] == [1, 1, "-2/21", -1]
        assert cert["residual"] == "-548521/17124030"

    def test_out_flag_writes_loadable_report(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        out = tmp_path / "report.json"
        code, report, _ = run(capsys, ["check", path, "--out", str(out)])
        assert code == 0
        assert report is None  # nothing on stdout when --out is given
        assert load_report(str(out))["verdict"] == "consistent"

    def test_out_path_that_cannot_be_opened_exits_three(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        for out in (tmp_path / "absent" / "report.json", tmp_path):
            code, report, err = run(capsys, ["check", path, "--out", str(out)])
            assert code == 3
            assert report is None
            assert err.startswith("error: ") and str(out) in err

    @pytest.mark.parametrize("marginal, verdict", [(["1/2", "1/2"], 0), (["1/4", "3/4"], 2)])
    def test_out_overwrites_a_longer_file_in_place(self, tmp_path, capsys, marginal, verdict):
        path = write(tmp_path, dict(MATCH34, marginal=marginal))
        assert main(["check", path]) == verdict
        printed = capsys.readouterr().out
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * 65536)
        inode = out.stat().st_ino
        code, report, err = run(capsys, ["check", path, "--out", str(out)])
        assert (code, report) == (verdict, None)
        assert err.startswith("check:")
        assert out.read_bytes() == printed.encode("utf-8")
        assert out.stat().st_ino == inode  # the same file, not a renamed copy
        load_report(str(out))

    @pytest.mark.skipif(not dev_null_is_a_device(), reason="no /dev/null device")
    @pytest.mark.parametrize("marginal, verdict", [(["1/2", "1/2"], 0), (["1/4", "3/4"], 2)])
    def test_out_dev_null_returns_the_verdict_code(self, tmp_path, capsys, marginal, verdict):
        path = write(tmp_path, dict(MATCH34, marginal=marginal))
        code, report, err = run(capsys, ["check", path, "--out", "/dev/null"])
        assert (code, report) == (verdict, None)
        assert "cannot write" not in err and err.startswith("check:")
        # A writer that renames a file over its target would replace the
        # device itself when run as root.
        assert dev_null_is_a_device()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_out_fifo_delivers_the_whole_report(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/4", "3/4"]))
        assert main(["check", path]) == 2
        printed = capsys.readouterr().out
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            code, report, err = run(capsys, ["check", path, "--out", str(fifo)])
        finally:
            reader.join(timeout=10)
            if reader.is_alive():  # main never opened the FIFO: unblock the reader
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=10)
        assert (code, report) == (2, None)
        assert "cannot write" not in err
        assert received == [printed.encode("utf-8")]

    @pytest.mark.parametrize("umask", [0o002, 0o022, 0o077], ids=oct)
    def test_out_creates_a_file_with_the_mode_open_gives(self, tmp_path, capsys, umask):
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        out, reference = tmp_path / "report.json", tmp_path / "reference.json"
        previous = os.umask(umask)
        try:
            code, _, _ = run(capsys, ["check", path, "--out", str(out)])
            open(reference, "w").close()
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    @pytest.mark.parametrize("kind, label", [("state", "t"), ("action", "a")])
    def test_repeated_label_exits_three(self, tmp_path, capsys, kind, label):
        doc = dict(MATCH34, marginal=["1/2", "1/2"], **{f"{kind}s": [label, label]})
        code, report, err = run(capsys, ["check", write(tmp_path, doc)])
        assert code == 3
        assert report is None
        assert err.startswith("error: ") and f"{kind} label '{label}' is repeated" in err

    def test_drop_null_states_flag(self, tmp_path, capsys):
        doc = {
            "states": ["t1", "tdead", "t2"],
            "actions": ["a1", "a2"],
            "utility": [[1, 9, 0], [0, 9, 1]],
            "prior": ["3/4", 0, "1/4"],
            "marginal": ["1/2", "1/2"],
        }
        path = write(tmp_path, doc)
        code, _, err = run(capsys, ["check", path])
        assert code == 3  # zero-prior state refused without the flag
        code, report, _ = run(capsys, ["check", path, "--drop-null-states"])
        assert code == 0
        assert report["inputs"]["states"] == ["t1", "t2"]


class TestOracle:
    def test_agrees_with_check_and_carries_its_certificate(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/4", "3/4"]))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, ["oracle", path, "--out", str(out)])
        assert code == 2
        report = load_report(str(out))
        assert report["verdict"] == "inconsistent"
        _, checked, _ = run(capsys, ["check", path])
        assert report["certificate"] == checked["certificate"]

    def test_consistent_witness_loads(self, tmp_path, capsys):
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, ["oracle", path, "--out", str(out)])
        assert code == 0
        assert load_report(str(out))["command"] == "oracle"


class TestImplement:
    FULL_INFO = {"support": [[1, 0], [0, 1]], "weights": ["3/4", "1/4"]}

    def test_feasible_run(self, tmp_path, capsys):
        doc = dict(MATCH34, marginal=["3/4", "1/4"], tau=self.FULL_INFO)
        out = tmp_path / "report.json"
        code, report, _ = run(
            capsys, ["implement", write(tmp_path, doc), "--out", str(out)]
        )
        assert code == 0
        report = load_report(str(out))
        assert report["verdict"] == "implemented"
        for key in ("tau", "decision_rule", "menu_rule", "choice_rule", "outcome"):
            assert key in report["witnesses"]

    def test_separate_tau_file(self, tmp_path, capsys):
        game_path = write(tmp_path, dict(MATCH34, marginal=["3/4", "1/4"]))
        tau_path = write(tmp_path, {"tau": self.FULL_INFO}, "tau.json")
        code, report, _ = run(capsys, ["implement", game_path, "--tau", tau_path])
        assert code == 0
        assert report["verdict"] == "implemented"

    def test_empty_tau_flag_is_read_not_ignored(self, tmp_path, capsys):
        """An explicit empty --tau names no file: refused, not replaced by
        the file's own tau."""
        doc = dict(MATCH34, marginal=["3/4", "1/4"], tau=self.FULL_INFO)
        code, report, err = run(capsys, ["implement", write(tmp_path, doc), "--tau", ""])
        assert code == 3
        assert report is None
        assert err.startswith("error:")

    def test_empty_out_flag_is_refused(self, tmp_path, capsys, monkeypatch):
        """An explicit empty --out names no file: refused with exit 3 before
        any work, not taken as a request to print the report."""

        def unreached(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(mbce.cli, "_run", unreached)
        check = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        implement = write(
            tmp_path, dict(MATCH34, marginal=["3/4", "1/4"], tau=self.FULL_INFO), "implement.json"
        )
        for argv in (["check", check], ["implement", implement], ["random", "--seed", "7"]):
            code = main([*argv, "--out", ""])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error: cannot write the output: ")
            assert "No such file or directory" in captured.err

    def test_empty_tau_flag_is_named(self, tmp_path, capsys):
        """The refusal of an empty --tau names the flag, as that of an
        empty --marginal does, not an empty path."""
        doc = dict(MATCH34, marginal=["3/4", "1/4"], tau=self.FULL_INFO)
        code, _, err = run(capsys, ["implement", write(tmp_path, doc), "--tau", ""])
        assert code == 3
        assert err.startswith("error: --tau: ") and "No such file" not in err

    def test_infeasible_exits_two(self, tmp_path, capsys):
        half = dict(MATCH34, prior=["1/2", "1/2"])
        doc = dict(
            half,
            marginal=["1/4", "3/4"],
            tau={"support": [[1, 0], [0, 1]], "weights": ["1/2", "1/2"]},
        )
        code, report, _ = run(capsys, ["implement", write(tmp_path, doc)])
        assert code == 2
        cert = report["certificate"]
        assert cert["kind"] == "implementation-infeasible"
        assert cert["subset"] == [0]

    def test_thirteen_action_infeasible_exits_two(self, tmp_path, capsys):
        """Beyond 12 actions the overfull subset is still named: the core
        scan visits the unions of the two menus, not 2^13 action subsets."""
        doc = {
            "states": ["t1", "t2"],
            "actions": [f"a{a + 1}" for a in range(13)],
            "utility": [[1, 0], [1, 0], [0, 1]] + [[0, 0]] * 10,
            "prior": ["1/2", "1/2"],
            "marginal": ["1/8", "1/8", "1/2"] + [0] * 9 + ["1/4"],
            "tau": {"support": [[1, 0], [0, 1]], "weights": ["1/2", "1/2"]},
        }
        out = tmp_path / "report.json"
        code, report, _ = run(capsys, ["implement", write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        cert = load_report(str(out))["certificate"]
        assert (cert["subset"], cert["deficit"]) == ([0, 1], "-1/4")

    NULL_STATE_GAME = {
        "states": ["t1", "tdead", "t2"],
        "actions": ["a1", "a2"],
        "utility": [[1, 5, 0], [0, 5, 1]],
        "prior": ["3/4", 0, "1/4"],
        "marginal": ["3/4", "1/4"],
    }
    NULL_STATE_TAU = {"support": [[1, 0, 0], [0, 0, 1]], "weights": ["3/4", "1/4"]}

    def test_tau_file_drops_the_null_states_too(self, tmp_path, capsys):
        in_file = write(tmp_path, dict(self.NULL_STATE_GAME, tau=self.NULL_STATE_TAU))
        code, expected, _ = run(capsys, ["implement", in_file, "--drop-null-states"])
        assert code == 0
        game_path = write(tmp_path, self.NULL_STATE_GAME, "game.json")
        tau_path = write(tmp_path, {"tau": self.NULL_STATE_TAU}, "tau.json")
        argv = ["implement", game_path, "--drop-null-states", "--tau", tau_path]
        code, report, _ = run(capsys, argv)
        assert code == 0
        assert report == expected

    def test_ragged_tau_with_null_states_dropped_exits_three(self, tmp_path, capsys):
        ragged = {"support": [[1, 0], [0, 0, 1]], "weights": ["3/4", "1/4"]}
        in_file = write(tmp_path, dict(self.NULL_STATE_GAME, tau=ragged))
        game_path = write(tmp_path, self.NULL_STATE_GAME, "game.json")
        tau_path = write(tmp_path, {"tau": ragged}, "tau.json")
        for argv in (
            ["implement", in_file, "--drop-null-states"],
            ["implement", game_path, "--drop-null-states", "--tau", tau_path],
        ):
            code, _, err = run(capsys, argv)
            assert code == 3
            assert "ragged tau" in err

    def test_missing_tau_exits_three(self, tmp_path, capsys):
        doc = dict(MATCH34, marginal=["3/4", "1/4"])
        code, _, err = run(capsys, ["implement", write(tmp_path, doc)])
        assert code == 3
        assert "tau" in err

    @pytest.mark.parametrize(
        "marginal, verdict", [(["1/2", "1/2"], "implemented"), ([1, 0], "infeasible")]
    )
    def test_each_posterior_menu_is_computed_once(self, monkeypatch, marginal, verdict):
        """The Gale flow and the menu rule (or, on a shortfall, the core scan)
        share one best-response set per posterior, priced on its row of the
        posterior distribution's integer support view."""
        game = matching_game("1/2")
        tau = make_posteriors([[1, 0], ["1/2", "1/2"], [0, 1]], ["1/4", "1/2", "1/4"])
        calls = []

        def counted(game, weights):
            calls.append(weights)
            return integer_best_responses(game, weights)

        monkeypatch.setattr(mbce.implementation, "integer_best_responses", counted)
        report, _ = cmd_implement(game, make_marginal(marginal), tau)
        assert report.verdict == verdict
        assert calls == list(tau.integer_support[1])


class TestRing:
    def test_consistent_ring(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, ["ring", write(tmp_path, MATCH_RING), "--out", str(out)]
        )
        assert code == 0
        report = load_report(str(out))
        assert report["details"]["failing_stage"] is None
        assert len(report["witnesses"]["player_marginals"]) == 2

    def test_inconsistent_ring_names_the_stage(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MATCH_RING))
        doc["marginals"][0] = ["1/4", "3/4"]
        code, report, _ = run(capsys, ["ring", write(tmp_path, doc)])
        assert code == 2
        assert report["details"]["failing_stage"] == 0
        assert report["certificate"]["kind"] == "state-condition"

    @pytest.mark.parametrize("stage", [0, 1])
    def test_repeated_stage_action_label_exits_three(self, tmp_path, capsys, stage):
        doc = json.loads(json.dumps(MATCH_RING))
        doc["ring"]["stages"][stage]["actions"] = ["c", "c"]
        code, report, err = run(capsys, ["ring", write(tmp_path, doc)])
        assert code == 3
        assert report is None
        assert err.startswith("error: ") and "label 'c' is repeated" in err


    def test_joint_at_the_profile_cap(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        doc = full_information_ring(6, 4)  # 4^6 = 4096 profiles
        code, _, _ = run(capsys, ["ring", write(tmp_path, doc), "--out", str(out)])
        assert code == 0
        assert len(load_report(str(out))["witnesses"]["joint"]["probs"]) == 4096

    def test_joint_above_the_profile_cap_exits_three(self, tmp_path, capsys):
        doc = full_information_ring(6, 4)
        doc["ring"]["stages"].append({"actions": ["x", "y"], "utility": [[0] * 4, [0] * 4]})
        doc["marginals"].append(["1/2", "1/2"])
        code, report, err = run(capsys, ["ring", write(tmp_path, doc)])
        assert code == 3
        assert report is None
        assert err == "error: 8192 action profiles exceed the cap of 4096\n"


class TestPublic:
    def test_uniform_prior_mismatch_profiles_consistent(self, tmp_path, capsys):
        # both mismatch profiles are optimal exactly at the centre belief, so
        # an uninformative signal plus a public coin reaches this marginal
        out = tmp_path / "report.json"
        path = write(tmp_path, TWO_MATCHING_PLAYERS)
        code, _, _ = run(capsys, ["public", path, "--out", str(out)])
        assert code == 0
        report = load_report(str(out))
        assert report["details"]["profiles"] == ["x1,y1", "x1,y2", "x2,y1", "x2,y2"]

    def test_skewed_prior_mismatch_profiles_inconsistent(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TWO_MATCHING_PLAYERS))
        doc["first_order"]["prior"] = ["3/4", "1/4"]
        code, report, _ = run(capsys, ["public", write(tmp_path, doc)])
        assert code == 2
        assert report["certificate"]["kind"] == "state-condition"

    def test_colliding_profile_labels_exit_three(self, tmp_path, capsys):
        # "x,y" then "z" and "x" then "y,z" both join to the profile "x,y,z".
        doc = json.loads(json.dumps(TWO_MATCHING_PLAYERS))
        doc["first_order"]["players"][0]["actions"] = ["x,y", "x"]
        doc["first_order"]["players"][1]["actions"] = ["z", "y,z"]
        code, report, err = run(capsys, ["public", write(tmp_path, doc)])
        assert code == 3
        assert report is None
        assert err.startswith("error: ") and "action label 'x,y,z' is repeated" in err

    def test_marginal_flag(self, tmp_path, capsys):
        doc = {"first_order": TWO_MATCHING_PLAYERS["first_order"]}
        path = write(tmp_path, doc)
        code, report, _ = run(capsys, ["public", path, "--marginal", "1/2,0,0,1/2"])
        assert code == 0
        assert report["verdict"] == "consistent"


class TestInternalDisagreement:
    def test_oracle_rejecting_a_consistent_pair_exits_four(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            mbce.consistency, "oracle_feasibility", lambda game, marginal: (False, None)
        )
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        code, report, err = run(capsys, ["check", path])
        assert code == 4
        assert report is None
        assert "internal disagreement" in err

    def test_verify_survives_optimized_mode(self):
        """The exit-4 checks are explicit raises, so ``python -O`` (which
        strips asserts) must give the same exit code and report bytes."""
        argv = ["-m", "mbce.cli", "verify", "--n", "20", "--seed", "7"]
        env = dict(os.environ, PYTHONPATH=SRC)
        plain = subprocess.run([sys.executable, *argv], capture_output=True, env=env)
        optimized = subprocess.run(
            [sys.executable, "-O", *argv], capture_output=True, env=env
        )
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout
        assert json.loads(plain.stdout)["details"]["disagreements"] == []


class TestClosedStderr:
    @pytest.mark.parametrize(
        "marginal, code", [(["1/2", "1/2"], 0), (["1/4", "3/4"], 2), (None, 3)]
    )
    def test_a_closed_stderr_keeps_the_exit_code(self, tmp_path, marginal, code):
        """``main``'s own stderr line (the timing, or the error) goes to a
        pipe whose reader has closed: the line is lost, the exit code and
        the report are not."""
        if marginal is None:
            path = str(tmp_path / "absent.json")
        else:
            path = write(tmp_path, dict(MATCH34, marginal=marginal))
        out = tmp_path / "report.json"
        argv = [sys.executable, "-m", "mbce.cli", "check", path, "--out", str(out)]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, stderr=write_end, env=dict(os.environ, PYTHONPATH=SRC))
        finally:
            os.close(write_end)
        assert done.returncode == code
        if code == 3:
            assert not out.exists()
        else:
            verdict = "consistent" if code == 0 else "inconsistent"
            assert load_report(str(out))["verdict"] == verdict


class TestVerifyAndRandom:
    def test_unusable_out_exits_three_before_any_work(self, tmp_path, capsys, monkeypatch):
        """``--out`` is checked before the command computes anything: a
        missing directory, a directory, a path under a file, and a new or
        an existing file in a read-only directory exit 3 at once and create
        nothing."""

        def unreached(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(mbce.io, "compare_routes", unreached)
        (tmp_path / "file").write_text("")
        readonly = tmp_path / "readonly"
        readonly.mkdir()
        (readonly / "report.json").write_text("")
        # Permission bits do not bind root, so the directory and its file
        # are read-only as os.access reports them.
        access, denied = os.access, {readonly, readonly / "report.json"}

        def reported(path, mode):
            return Path(path) not in denied and access(path, mode)

        monkeypatch.setattr(os, "access", reported)
        outs = [tmp_path / "absent" / "report.json", tmp_path, tmp_path / "file" / "report.json"]
        outs += [readonly / "new.json", readonly / "report.json"]
        before = sorted(tmp_path.rglob("*"))
        for out in outs:
            argv = ["verify", "--n", "200", "--seed", "7", "--out", str(out)]
            code, report, err = run(capsys, argv)
            assert (code, report) == (3, None)
            assert err.startswith("error: cannot write the output: ") and str(out) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_verify_runs_clean_and_deterministic(self, tmp_path, capsys):
        code, first, _ = run(capsys, ["verify", "--n", "25", "--seed", "3"])
        assert code == 0
        assert first["details"]["disagreements"] == []
        code, second, _ = run(capsys, ["verify", "--n", "25", "--seed", "3"])
        assert code == 0
        assert first == second

    def test_random_instance_feeds_check(self, tmp_path, capsys):
        code, doc, _ = run(capsys, ["random", "--seed", "5"])
        assert code == 0
        assert doc["generator"]["seed"] == 5
        path = write(tmp_path, doc)
        code, report, _ = run(capsys, ["check", path])
        assert code in (0, 2)
        assert report["verdict"] in ("consistent", "inconsistent")

    def test_random_is_reproducible(self, capsys):
        _, first, _ = run(capsys, ["random", "--seed", "11"])
        _, second, _ = run(capsys, ["random", "--seed", "11"])
        assert first == second

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        """Runs on one instance, and on a copy of it with CRLF line ends,
        write the same bytes."""
        text = json.dumps(dict(MATCH34, marginal=["1/2", "1/2"]), indent=2)
        path = tmp_path / "instance.json"
        path.write_bytes(text.encode("utf-8"))
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        outs = [tmp_path / f"{name}.json" for name in "abc"]
        for source, out in zip([path, path, crlf], outs):
            assert run(capsys, ["check", str(source), "--out", str(out)])[0] == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


class TestUsageErrors:
    """Exit 2 means a negative verdict, so a malformed command line must not
    exit 2: argparse's usage errors exit 3, with the usage on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [["check"], ["verify", "--n", "abc"], ["no-such-command"], []],
        ids=["missing-file", "non-integer", "unknown-command", "no-command"],
    )
    def test_usage_error_exits_three(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 3
        assert captured.out == ""
        assert captured.err.startswith("usage: mbce")
        assert "error:" in captured.err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--help"])
        assert exit_info.value.code == 0
        assert "usage: mbce verify" in capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "in.json", "--marginal", "1/2,1/2", "--drop-null-states", "--out", "r.json"],
            ["oracle", "in.json", "--marginal=1/2,1/2", "--out=r.json"],
            ["implement", "in.json", "--tau", "t.json", "--marginal", "1/2,1/2", "--out", "r"],
            ["implement", "--drop-null-states", "in.json"],
            ["ring", "in.json", "--out", "r.json"],
            ["public", "in.json", "--marginal", "0,1/2,1/2,0", "--out", "r.json"],
            ["verify"],
            ["verify", "--n", "20", "--seed", "7", "--max-states", "3", "--max-actions=3"],
            ["random", "--seed", "5", "--max-states", "2", "--max-actions", "2", "--out", "r"],
            ["check", "in.json", "--ou", "r.json"],
            ["check", "--out", "r.json", "in.json"],
            ["check", "--", "in.json"],
            ["check", "--out", "r.json", "--", "in.json"],
            ["check", "-h"],
            ["verify", "--help"],
            ["-h"],
            [],
            ["no-such-command", "in.json"],
            ["check"],
            ["random"],
            ["check", "in.json", "--bogus"],
            ["ring", "in.json", "--marginal", "1/2,1/2"],
            ["check", "in.json", "extra"],
            ["verify", "--n", "abc"],
            ["verify", "--max", "3"],
            ["check", "in.json", "--out"],
        ],
        ids=lambda argv: " ".join(argv) or "no words",
    )
    def test_dispatch_parses_as_the_full_parser(self, capsys, argv):
        """A command line gives the namespace the reference parser gives, or
        exits with its code, stdout and stderr."""

        def outcome(parse):
            try:
                result = parse(list(argv))
            except SystemExit as exit_info:
                result = exit_info.code
            captured = capsys.readouterr()
            return result, captured.out, captured.err

        assert outcome(mbce.cli.parse_command_line) == outcome(references.build_parser().parse_args)

    @pytest.mark.parametrize("argv", [["-h"]] + [[name, "-h"] for name in COMMAND_NAMES])
    def test_help_prints_the_reference_bytes(self, capsysbinary, argv):
        """Every help screen is byte for byte the reference parser's, with
        the same exit code, on the running Python."""

        def outcome(parse):
            with pytest.raises(SystemExit) as exit_info:
                parse(list(argv))
            captured = capsysbinary.readouterr()
            return exit_info.value.code, captured.out, captured.err

        shown = outcome(mbce.cli.parse_command_line)
        assert shown == outcome(references.build_parser().parse_args)
        assert shown[0] == 0 and shown[1].startswith(b"usage: mbce")

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_drawn_lines_parse_as_the_reference(self, argv):
        """On any drawn line, the namespace the reference parser gives, or
        its exit code, stdout and stderr."""
        assert drawn_outcome(mbce.cli.parse_command_line, argv) == drawn_outcome(
            references.build_parser().parse_args, argv
        )

    def test_a_plain_line_runs_no_argparse(self, tmp_path, capsys, monkeypatch):
        def unreached(*args, **kwargs):
            raise AssertionError("argparse parsed a plain command line")

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", unreached)
        path = write(tmp_path, dict(MATCH34, marginal=["1/2", "1/2"]))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, ["check", path, "--drop-null-states", "--out", str(out)])
        assert code == 0
        assert build_parser.cache_info().misses == 0
        assert load_report(str(out))["verdict"] == "consistent"


class TestGeneratorInputs:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "--max-states", "1"], "max_states=1"),
            (["verify", "--max-actions", "1"], "max_actions=1"),
            (["verify", "--n", "-2"], "n=-2"),
            (["random", "--seed", "1", "--max-states", "1"], "max_states=1"),
            (["random", "--seed", "1", "--max-actions", "0"], "max_actions=0"),
        ],
    )
    def test_degenerate_sizes_exit_three(self, capsys, argv, named):
        code, report, err = run(capsys, argv)
        assert code == 3
        assert report is None
        assert "must be integers" in err
        assert named in err
