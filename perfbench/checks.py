"""Checks on mbce reports, made apart from the program.

Every check re-reads the report's numbers as ``Fraction`` and recomputes what
it claims with this module's own arithmetic: marginals, obedience, routing,
overfull subsets and ring marginals. The one exception is the verdict of a
random ``sweep`` marginal, which nothing cheaper than an LP can settle; it is
compared with ``mbce.consistency.oracle_feasibility``, passed in by the
caller. Each check raises ``CheckFailure`` with a reason; returning means the
report passed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from inputs import Case, best_responses, profile_labels

ZERO = Fraction(0)

CERTIFICATE_KINDS = (
    "unsupportable-action",
    "state-condition",
    "action-pair-condition",
    "strassen-direction",
)


class CheckFailure(Exception):
    """A report claims something its own numbers do not bear out."""


def frac(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CheckFailure(f"{value!r} is not an exact rational")
    return Fraction(value)


def vec(values) -> list[Fraction]:
    return [frac(v) for v in values]


def table(rows) -> list[list[Fraction]]:
    return [vec(row) for row in rows]


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


def check_outcome(rows, utility, prior, marginal) -> None:
    """A joint outcome ``rows[a][t]`` must be nonnegative, have the prior as
    its state marginal and the target as its action marginal, and be
    obedient: no recommended action loses to a deviation."""
    require(
        len(rows) == len(utility) and all(len(row) == len(prior) for row in rows),
        "outcome has the wrong shape",
    )
    require(all(q >= 0 for row in rows for q in row), "outcome has a negative entry")
    for t, p in enumerate(prior):
        require(sum((row[t] for row in rows), ZERO) == p, f"state {t} mass is not the prior")
    for a, q in enumerate(marginal):
        require(sum(rows[a], ZERO) == q, f"action {a} mass is not the target")
    for a, row in enumerate(rows):
        for alt in range(len(utility)):
            gain = sum(
                (row[t] * (utility[a][t] - utility[alt][t]) for t in range(len(prior))),
                ZERO,
            )
            require(gain >= 0, f"recommendation {a} prefers deviating to {alt}")


def check_certificate(cert, utility, prior, marginal) -> None:
    """Every rejection names a known kind; an unsupportable action carries
    positive mass and is no best response at the prior (an action optimal
    nowhere is not optimal there); every other kind has a negative residual."""
    require(isinstance(cert, dict), "inconsistent verdict without a certificate")
    kind = cert.get("kind")
    require(kind in CERTIFICATE_KINDS, f"unknown certificate kind {kind!r}")
    if kind == "unsupportable-action":
        action = cert.get("action")
        require(
            isinstance(action, int) and 0 <= action < len(marginal),
            "unsupportable-action certificate names no action",
        )
        require(marginal[action] > 0, "unsupportable action carries no mass")
        require(
            action not in best_responses(utility, prior),
            "unsupportable action is a best response at the prior",
        )
    else:
        residual = cert.get("residual")
        require(residual is not None and frac(residual) < 0, f"{kind} residual is not negative")


def check_verdict(report, utility, prior, marginal, expected: str) -> None:
    verdict = report.get("verdict")
    require(verdict == expected, f"verdict {verdict!r}, expected {expected!r}")
    if verdict == "consistent":
        witness = (report.get("witnesses") or {}).get("outcome")
        require(witness is not None, "consistent verdict without a witness")
        check_outcome(table(witness), utility, prior, marginal)
    else:
        check_certificate(report.get("certificate"), utility, prior, marginal)


def _check_game(case: Case, report, oracle) -> None:
    doc = case.doc
    utility, prior, marginal = table(doc["utility"]), vec(doc["prior"]), vec(doc["marginal"])
    expected = case.expect
    if expected == "oracle":
        expected = "consistent" if oracle(doc) else "inconsistent"
    check_verdict(report, utility, prior, marginal, expected)


def _check_public(case: Case, report, oracle) -> None:
    fo = case.doc["first_order"]
    prior = vec(fo["prior"])
    players = [table(p["utility"]) for p in fo["players"]]
    widths = [len(u) for u in players]
    require(
        (report.get("details") or {}).get("profiles") == profile_labels(widths),
        "profiles are not listed in product order",
    )
    # The auxiliary agent picks a whole profile and earns the sum of payoffs.
    utility = [
        [sum((players[i][a][t] for i, a in enumerate(profile)), ZERO) for t in range(len(prior))]
        for profile in product(*(range(w) for w in widths))
    ]
    check_verdict(report, utility, prior, vec(case.doc["marginal"]), case.expect)


def _subset_mass(menus, weights, subset) -> Fraction:
    return sum((w for menu, w in zip(menus, weights) if set(menu) <= subset), ZERO)


def _check_implement(case: Case, report, oracle) -> None:
    doc = case.doc
    utility, prior, marginal = table(doc["utility"]), vec(doc["prior"]), vec(doc["marginal"])
    beliefs, weights = table(doc["tau"]["support"]), vec(doc["tau"]["weights"])
    menus = [best_responses(utility, mu) for mu in beliefs]
    verdict = report.get("verdict")
    require(verdict == case.expect, f"verdict {verdict!r}, expected {case.expect!r}")
    if verdict == "infeasible":
        cert = report.get("certificate") or {}
        subset = cert.get("subset")
        require(
            isinstance(subset, list) and all(isinstance(a, int) for a in subset),
            "infeasible verdict names no subset",
        )
        nu = sum((marginal[a] for a in subset), ZERO)
        inside = _subset_mass(menus, weights, set(subset))
        require(inside > nu, f"subset {subset} is not overfull")
        require(frac(cert.get("deficit")) == nu - inside, "deficit does not re-derive")
        return
    witnesses = report.get("witnesses") or {}
    rule = table(witnesses.get("decision_rule") or [])
    require(len(rule) == len(beliefs), "decision rule has a row per posterior")
    for k, row in enumerate(rule):
        require(len(row) == len(utility) and all(q >= 0 for q in row), f"rule row {k} malformed")
        require(sum(row, ZERO) == 1, f"rule row {k} is not a distribution")
        for a, q in enumerate(row):
            require(q == 0 or a in menus[k], f"posterior {k} routes mass to non-optimal action {a}")
    outcome = [
        [sum((w * mu[t] * row[a] for w, mu, row in zip(weights, beliefs, rule)), ZERO)
         for t in range(len(prior))]
        for a in range(len(utility))
    ]
    require(table(witnesses.get("outcome") or []) == outcome, "outcome is not tau routed by the rule")
    check_outcome(outcome, utility, prior, marginal)


def _ring_pairs(shape, probs, i):
    """Player i's pair marginal: (own action x state) for i = 0, else
    (own action x upstream action)."""
    profiles = list(product(*(range(n) for n in shape)))
    width = len(probs[0]) if i == 0 else shape[i - 1]
    rows = [[ZERO] * width for _ in range(shape[i])]
    for profile, row in zip(profiles, probs):
        if i == 0:
            for t, q in enumerate(row):
                rows[profile[0]][t] += q
        else:
            rows[profile[i]][profile[i - 1]] += sum(row, ZERO)
    return rows


def _check_ring(case: Case, report, oracle) -> None:
    ring = case.doc["ring"]
    prior = vec(ring["prior"])
    stages = [table(stage["utility"]) for stage in ring["stages"]]
    targets = [vec(m) for m in case.doc["marginals"]]
    verdict = report.get("verdict")
    require(verdict == case.expect, f"verdict {verdict!r}, expected {case.expect!r}")
    failing = (report.get("details") or {}).get("failing_stage")
    if verdict == "inconsistent":
        require(failing == case.stage, f"failing_stage {failing!r}, corrupted stage {case.stage}")
        cert = report.get("certificate")
        require(isinstance(cert, dict) and cert.get("kind") in CERTIFICATE_KINDS,
                "inconsistent ring without a certificate")
        if cert["kind"] != "unsupportable-action":
            require(frac(cert.get("residual")) < 0, "ring certificate residual is not negative")
        return
    require(failing is None, "consistent ring names a failing stage")
    joint = (report.get("witnesses") or {}).get("joint") or {}
    shape = [len(u) for u in stages]
    require(joint.get("shape") == shape, "joint outcome has the wrong shape")
    probs = table(joint.get("probs") or [])
    require(
        len(probs) == len(list(product(*(range(n) for n in shape))))
        and all(len(row) == len(prior) and all(q >= 0 for q in row) for row in probs),
        "joint outcome is malformed or negative",
    )
    for t, p in enumerate(prior):
        require(sum((row[t] for row in probs), ZERO) == p, f"joint state {t} mass is not the prior")
    for i, utility in enumerate(stages):
        pairs = _ring_pairs(shape, probs, i)
        require([sum(row, ZERO) for row in pairs] == targets[i],
                f"player {i + 1} marginal is not reproduced")
        for a, row in enumerate(pairs):
            for alt in range(len(utility)):
                gain = sum((row[s] * (utility[a][s] - utility[alt][s]) for s in range(len(row))), ZERO)
                require(gain >= 0, f"player {i + 1} recommended {a} prefers {alt}")


CHECKERS = {
    "check": _check_game,
    "public": _check_public,
    "implement": _check_implement,
    "ring": _check_ring,
}


POSITIVE_VERDICTS = ("consistent", "implemented")


def check_report(case: Case, report: dict, exit_code: int, oracle=None) -> None:
    """Raise CheckFailure unless ``report`` is a correct answer to ``case``.

    ``oracle(doc) -> bool`` decides a ``sweep`` instance whose verdict is not
    known by construction. The report's inputs must be the case's own, and
    the exit code must match the verdict (0 positive, 2 negative)."""
    expected_code = 0 if report.get("verdict") in POSITIVE_VERDICTS else 2
    require(exit_code == expected_code, f"exit code {exit_code} for verdict {report.get('verdict')!r}")
    inputs = report.get("inputs") or {}
    for key, value in case.doc.items():
        require(inputs.get(key) == value, f"report inputs differ from the instance at {key!r}")
    CHECKERS[case.command](case, report, oracle)
