"""The benchmark's checkers accept mbce's real reports and reject corrupted
copies of them, so that no check is vacuous.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from mbce import cli  # noqa: E402
from mbce.io import load_report  # noqa: E402


def run(case: inputs.Case, tmp_path: Path):
    [path] = inputs.write_cases([case], str(tmp_path))
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([case.command, path, "--out", str(out)])
    return load_report(str(out)), code


def first_case(build, seed, expect):
    for case in build(random.Random(seed)):
        if case.expect == expect:
            return case
    raise AssertionError(f"no {expect} case")


@pytest.fixture
def consistent(tmp_path):
    utility, prior, marginal = inputs._consistent_game(random.Random(1), 3, 3, 3, 2)
    case = inputs.Case("check", inputs._game_doc(utility, prior, marginal), "consistent")
    return case, *run(case, tmp_path)


@pytest.fixture
def inconsistent(tmp_path):
    rng = random.Random(2)
    utility, prior, _ = inputs._consistent_game(rng, 3, 3, 3, None)
    bad = inputs._point_mass(3, inputs._off_prior_action(rng, utility, prior))
    case = inputs.Case("check", inputs._game_doc(utility, prior, bad), "inconsistent")
    return case, *run(case, tmp_path)


def rejects(case, report, code, oracle=None):
    with pytest.raises(checks.CheckFailure):
        checks.check_report(case, report, code, oracle)


def move_mass(rows, src, dst, column):
    """Shift one entry's whole mass from row ``src`` to row ``dst``."""
    rows[dst][column] = str(checks.frac(rows[dst][column]) + checks.frac(rows[src][column]))
    rows[src][column] = 0


def test_real_reports_pass(consistent, inconsistent):
    for case, report, code in (consistent, inconsistent):
        checks.check_report(case, report, code)


def test_witness_entry_moved_between_actions(consistent):
    case, report, code = consistent
    rows = report["witnesses"]["outcome"]
    a, t = next((a, t) for a, row in enumerate(rows) for t, q in enumerate(row) if q != 0)
    move_mass(rows, a, (a + 1) % len(rows), t)
    rejects(case, report, code)


def test_disobedient_witness():
    # Matching game, uniform prior: both marginals are right, but each action
    # is recommended in the state where the other one pays.
    utility = checks.table([[1, 0], [0, 1]])
    half = checks.vec(["1/2", "1/2"])
    checks.check_outcome(checks.table([["1/2", 0], [0, "1/2"]]), utility, half, half)
    with pytest.raises(checks.CheckFailure, match="prefers deviating"):
        checks.check_outcome(checks.table([[0, "1/2"], ["1/2", 0]]), utility, half, half)


def test_flipped_verdict_and_exit_code(consistent, inconsistent):
    case, report, code = inconsistent
    rejects(case, report, 0)
    flipped = dict(report, verdict="consistent")
    rejects(case, flipped, 0)
    case, report, code = consistent
    rejects(case, report, 2)


def test_certificate_residual_must_be_negative(inconsistent):
    case, report, code = inconsistent
    cert = report["certificate"]
    if cert["kind"] == "unsupportable-action":
        cert["action"] = next(a for a, q in enumerate(case.doc["marginal"]) if q == 0)
    else:
        cert["residual"] = 1
    rejects(case, report, code)


def test_oracle_disagreement(consistent):
    case, report, code = consistent
    case = inputs.Case(case.command, case.doc, "oracle")
    checks.check_report(case, report, code, oracle=lambda doc: True)
    rejects(case, report, code, oracle=lambda doc: False)


def test_report_about_another_instance(consistent):
    case, report, code = consistent
    report["inputs"]["utility"][0][0] = str(checks.frac(report["inputs"]["utility"][0][0]) + 1)
    rejects(case, report, code)


def test_implement_routes_to_non_optimal_action(tmp_path):
    case = first_case(inputs.implement_cases, 3, "implemented")
    report, code = run(case, tmp_path)
    checks.check_report(case, report, code)
    rule = report["witnesses"]["decision_rule"]
    row = rule[0]
    a = next(a for a, q in enumerate(row) if q != 0)
    # The last action is strictly dominated: optimal at no posterior.
    row[-1], row[a] = row[a], 0
    rejects(case, report, code)


def test_implement_subset_not_overfull(tmp_path):
    case = first_case(inputs.implement_cases, 3, "infeasible")
    report, code = run(case, tmp_path)
    checks.check_report(case, report, code)
    n_actions = len(case.doc["actions"])
    report["certificate"]["subset"] = list(range(n_actions))
    rejects(case, report, code)


def test_implement_deficit_altered(tmp_path):
    case = first_case(inputs.implement_cases, 3, "infeasible")
    report, code = run(case, tmp_path)
    report["certificate"]["deficit"] = "-1/1000"
    rejects(case, report, code)


def test_ring_wrong_failing_stage(tmp_path):
    case = inputs.ring_case(random.Random(4), 3, corrupt=True)
    report, code = run(case, tmp_path)
    checks.check_report(case, report, code)
    report["details"]["failing_stage"] = (case.stage + 1) % 3
    rejects(case, report, code)


def test_ring_joint_entry_moved(tmp_path):
    case = inputs.ring_case(random.Random(5), 2, corrupt=False)
    report, code = run(case, tmp_path)
    checks.check_report(case, report, code)
    rows = report["witnesses"]["joint"]["probs"]
    a, t = next((a, t) for a, row in enumerate(rows) for t, q in enumerate(row) if q != 0)
    move_mass(rows, a, (a + 1) % len(rows), t)
    rejects(case, report, code)


def test_public_witness_entry_moved(tmp_path):
    case = inputs.public_case(random.Random(6), (2, 2))
    report, code = run(case, tmp_path)
    checks.check_report(case, report, code)
    corrupted = copy.deepcopy(report)
    rows = corrupted["witnesses"]["outcome"]
    a, t = next((a, t) for a, row in enumerate(rows) for t, q in enumerate(row) if q != 0)
    move_mass(rows, a, (a + 1) % len(rows), t)
    rejects(case, corrupted, code)
    report["details"]["profiles"] = list(reversed(report["details"]["profiles"]))
    rejects(case, report, code)


def test_subsets_scanned_follows_size_then_lexicographic_order():
    import tracer
    from types import SimpleNamespace

    order = [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}]
    for rank, subset in enumerate(order, start=1):
        failed = SimpleNamespace(ok=False, subset=frozenset(subset))
        assert tracer.subsets_scanned(3, failed) == rank
    assert tracer.subsets_scanned(3, SimpleNamespace(ok=True, subset=None)) == 7


def test_tracer_rebinds_every_importer_and_restores_them(tmp_path):
    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        bound = [
            getattr(module, fname)
            for name, module in sys.modules.items()
            if name == "mbce" or name.startswith("mbce.")
            for _, fname in tracer.TRACED
            if callable(getattr(module, fname, None))
        ]
        assert bound and all(hasattr(fn, "__wrapped__") for fn in bound)
        run(inputs.ring_case(random.Random(7), 2, corrupt=False), tmp_path)
    finally:
        spans.uninstall()
    metrics = spans.layer_metrics()
    assert metrics["applications.check_ring.calls"] == (1, "count")
    # lp_solve is reached through polytope, lp_feasible through consistency.
    assert metrics["linprog.lp_solve.calls"][0] == metrics["polytope.maximize_direction.calls"][0] > 0
    assert metrics["linprog.lp_feasible.calls"][0] > 0
    assert not any(
        hasattr(getattr(module, fname, None), "__wrapped__")
        for name, module in sys.modules.items()
        if name.startswith("mbce")
        for _, fname in tracer.TRACED
    )
