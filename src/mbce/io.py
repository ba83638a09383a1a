"""JSON instance files and self-checking result reports.

Rationals travel as integers or "p/q" strings; float literals are rejected
outright so no verdict ever depends on rounding.  Reports embed their inputs,
a digest of them, and every witness table, and load_report re-derives the
checks a witness claims to pass, so a report that loads cleanly is evidence,
not just prose.  Identical inputs produce byte-identical report files: keys
are sorted, and the timing field is pinned to null (wall-clock timings go to
stderr, never into the document).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .applications import (
    FirstOrderGame,
    MarginalProfile,
    RingGame,
    auxiliary_single_agent,
    check_ring_obedience,
    construct_ring_outcome,
    make_first_order,
    make_profile,
    make_ring,
    ring_player_marginal,
    ring_stage_game,
)
from .consistency import (
    ACTION_PAIR_CONDITION,
    STATE_CONDITION,
    STRASSEN_DIRECTION,
    UNSUPPORTABLE_ACTION,
    ViolationCertificate,
    action_pair_residual,
    state_condition_residual,
    strassen_residual,
)
from .errors import MbceError, ParseError, ValidationError
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    action_marginal_of,
    check_obedience,
    state_marginal_of,
    validate_game,
    validate_marginal,
    validate_outcome,
)
from .generators import compare_routes
from .implementation import (
    DecisionRule,
    PosteriorDistribution,
    core_slack,
    make_posteriors,
    menu_measure,
    outcome_from_tau,
)
from .polytope import is_empty, opt_belief_polytope
from .rationals import exact_fraction, fraction_to_json

SCHEMA_VERSION = 1

# Parameters of ``compare_routes``, in order, as a verify report embeds them.
VERIFY_INPUTS = ("n", "seed", "max_states", "max_actions")


@dataclass(frozen=True)
class LoadedDocument:
    """Parsed instance file; sections that were absent stay None."""

    path: str
    raw: dict
    game: BaseGame | None = None
    marginal: ActionMarginal | None = None
    tau: PosteriorDistribution | None = None
    ring: RingGame | None = None
    profile: MarginalProfile | None = None
    first_order: FirstOrderGame | None = None


@dataclass(frozen=True)
class Report:
    """Result of one command, ready for canonical serialization."""

    command: str
    inputs: dict
    verdict: str
    certificate: dict | None = None
    witnesses: dict | None = None
    details: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "inputs_sha256": inputs_digest(self.inputs),
            "verdict": self.verdict,
            "certificate": self.certificate,
            "witnesses": self.witnesses,
            "details": self.details,
            "timing_ms": None,
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def inputs_digest(inputs: dict) -> str:
    return hashlib.sha256(canonical_json(inputs).encode("utf-8")).hexdigest()


def report_string(report: Report) -> str:
    return canonical_json(report.to_dict())


def save_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_string(report))


# -- parsing ------------------------------------------------------------


def load_document(path: str) -> dict:
    def no_floats(text: str):
        raise ValidationError(
            path, f'float literal {text} is not allowed; write rationals as "p/q" strings'
        )

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=no_floats, parse_constant=no_floats)
    except OSError as err:
        raise ParseError(path, str(err))
    except json.JSONDecodeError as err:
        raise ParseError(path, f"invalid JSON: {err}")
    if not isinstance(doc, dict):
        raise ParseError(path, "top level must be a JSON object")
    return doc


def _require(node: dict, key: str, path: str, crumb: str = "") -> object:
    if key not in node:
        where = f"{crumb}.{key}" if crumb else key
        raise ParseError(path, f"missing required field {where!r}")
    return node[key]


def _fraction_at(value, path: str, crumb: str) -> Fraction:
    try:
        return exact_fraction(value)
    except (TypeError, ValueError) as err:
        raise ParseError(path, f"{crumb}: {err}")


def _fraction_list(node, path: str, crumb: str) -> tuple[Fraction, ...]:
    if not isinstance(node, list):
        raise ParseError(path, f"{crumb}: expected an array of rationals")
    return tuple(_fraction_at(v, path, f"{crumb}[{i}]") for i, v in enumerate(node))


def _fraction_rows(node, path: str, crumb: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(node, list):
        raise ParseError(path, f"{crumb}: expected an array of arrays")
    return tuple(
        _fraction_list(row, path, f"{crumb}[{i}]") for i, row in enumerate(node)
    )


def _string_list(node, path: str, crumb: str) -> tuple[str, ...]:
    if not isinstance(node, list) or not all(isinstance(s, str) for s in node):
        raise ParseError(path, f"{crumb}: expected an array of strings")
    return tuple(node)


def _domain(path: str, build, *args, **kwargs):
    """Run a domain constructor, relabeling its errors as located ones."""
    try:
        return build(*args, **kwargs)
    except MbceError as err:
        raise ValidationError(path, str(err))


def parse_game(
    doc: dict, path: str, keep: list[int] | None = None, crumb: str = ""
) -> BaseGame:
    states = _string_list(_require(doc, "states", path, crumb), path, "states")
    actions = _string_list(_require(doc, "actions", path, crumb), path, "actions")
    utility = _fraction_rows(_require(doc, "utility", path, crumb), path, "utility")
    prior = _fraction_list(_require(doc, "prior", path, crumb), path, "prior")
    if keep is not None:
        if len(states) != len(prior) or any(len(r) != len(prior) for r in utility):
            raise ValidationError(path, "cannot drop null states from a ragged game")
        states = tuple(states[t] for t in keep)
        utility = tuple(tuple(row[t] for t in keep) for row in utility)
        prior = tuple(prior[t] for t in keep)
    game = BaseGame(states, actions, utility, prior)
    _domain(path, validate_game, game)
    return game


def parse_tau(
    node, path: str, keep: list[int] | None = None
) -> PosteriorDistribution:
    if not isinstance(node, dict):
        raise ParseError(path, "tau: expected an object with support and weights")
    support = _fraction_rows(_require(node, "support", path, "tau"), path, "tau.support")
    weights = _fraction_list(_require(node, "weights", path, "tau"), path, "tau.weights")
    if keep is not None:
        support = tuple(tuple(row[t] for t in keep) for row in support)
    return _domain(path, make_posteriors, support, weights)


def parse_ring(node, path: str) -> RingGame:
    if not isinstance(node, dict):
        raise ParseError(path, "ring: expected an object")
    states = _string_list(_require(node, "states", path, "ring"), path, "ring.states")
    prior = _fraction_list(_require(node, "prior", path, "ring"), path, "ring.prior")
    stages_node = _require(node, "stages", path, "ring")
    if not isinstance(stages_node, list):
        raise ParseError(path, "ring.stages: expected an array")
    stages = []
    for i, stage in enumerate(stages_node):
        if not isinstance(stage, dict):
            raise ParseError(path, f"ring.stages[{i}]: expected an object")
        labels = _string_list(
            _require(stage, "actions", path, f"ring.stages[{i}]"),
            path,
            f"ring.stages[{i}].actions",
        )
        rows = _fraction_rows(
            _require(stage, "utility", path, f"ring.stages[{i}]"),
            path,
            f"ring.stages[{i}].utility",
        )
        stages.append((labels, rows))
    return _domain(path, make_ring, states, prior, stages)


def parse_first_order(node, path: str) -> FirstOrderGame:
    if not isinstance(node, dict):
        raise ParseError(path, "first_order: expected an object")
    states = _string_list(
        _require(node, "states", path, "first_order"), path, "first_order.states"
    )
    prior = _fraction_list(
        _require(node, "prior", path, "first_order"), path, "first_order.prior"
    )
    players_node = _require(node, "players", path, "first_order")
    if not isinstance(players_node, list):
        raise ParseError(path, "first_order.players: expected an array")
    players = []
    for i, player in enumerate(players_node):
        if not isinstance(player, dict):
            raise ParseError(path, f"first_order.players[{i}]: expected an object")
        labels = _string_list(
            _require(player, "actions", path, f"first_order.players[{i}]"),
            path,
            f"first_order.players[{i}].actions",
        )
        rows = _fraction_rows(
            _require(player, "utility", path, f"first_order.players[{i}]"),
            path,
            f"first_order.players[{i}].utility",
        )
        players.append((labels, rows))
    return _domain(path, make_first_order, states, prior, players)


def load_game(path: str, drop_null_states: bool = False) -> LoadedDocument:
    """Parse an instance file into whichever domain objects it declares."""
    doc = load_document(path)
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(path, f"unsupported schema_version {version!r}")

    keep = None
    if drop_null_states and "prior" in doc:
        prior = _fraction_list(doc["prior"], path, "prior")
        keep = [t for t, q in enumerate(prior) if q != 0]

    game = None
    if any(k in doc for k in ("states", "actions", "utility")) or "prior" in doc:
        game = parse_game(doc, path, keep=keep)

    marginal = None
    if "marginal" in doc:
        marginal = ActionMarginal(_fraction_list(doc["marginal"], path, "marginal"))

    tau = parse_tau(doc["tau"], path, keep=keep) if "tau" in doc else None

    ring = parse_ring(doc["ring"], path) if "ring" in doc else None
    profile = None
    if "marginals" in doc:
        if ring is None:
            raise ValidationError(path, "marginals requires a ring section")
        vectors = doc["marginals"]
        if not isinstance(vectors, list):
            raise ParseError(path, "marginals: expected an array of arrays")
        parsed = [
            _fraction_list(vec, path, f"marginals[{i}]") for i, vec in enumerate(vectors)
        ]
        profile = _domain(path, make_profile, ring, parsed)

    first_order = (
        parse_first_order(doc["first_order"], path) if "first_order" in doc else None
    )

    return LoadedDocument(
        path=path,
        raw=doc,
        game=game,
        marginal=marginal,
        tau=tau,
        ring=ring,
        profile=profile,
        first_order=first_order,
    )


# -- serialization ------------------------------------------------------


def vector_json(values) -> list:
    return [fraction_to_json(exact_fraction(v)) for v in values]


def rows_json(rows) -> list:
    return [vector_json(row) for row in rows]


def game_json(game: BaseGame) -> dict:
    return {
        "states": list(game.states),
        "actions": list(game.actions),
        "utility": rows_json(game.utility),
        "prior": vector_json(game.prior),
    }


def tau_json(tau: PosteriorDistribution) -> dict:
    return {"support": rows_json(tau.support), "weights": vector_json(tau.weights)}


def ring_json(ring: RingGame) -> dict:
    return {
        "states": list(ring.states),
        "prior": vector_json(ring.prior),
        "stages": [
            {"actions": list(labels), "utility": rows_json(rows)}
            for labels, rows in zip(ring.actions, ring.utilities)
        ],
    }


def first_order_json(fo: FirstOrderGame) -> dict:
    return {
        "states": list(fo.states),
        "prior": vector_json(fo.prior),
        "players": [
            {"actions": list(p.actions), "utility": rows_json(p.utility)}
            for p in fo.players
        ],
    }


def certificate_json(cert: ViolationCertificate) -> dict:
    return {
        "kind": cert.kind,
        "state": cert.state,
        "pair": list(cert.pair) if cert.pair is not None else None,
        "action": cert.action,
        "residual": fraction_to_json(cert.residual) if cert.residual is not None else None,
        "direction": vector_json(cert.direction) if cert.direction is not None else None,
    }


def menu_rule_json(rule) -> list:
    return [
        {"menu": sorted(m), "probs": vector_json(rule[m])}
        for m in sorted(rule, key=lambda m: (len(m), sorted(m)))
    ]


# -- report re-validation ------------------------------------------------


def _revalidate_consistency(doc: dict, path: str, game: BaseGame, marginal) -> None:
    verdict = doc.get("verdict")
    if verdict == "consistent":
        witnesses = doc.get("witnesses") or {}
        rows = _fraction_rows(
            _require(witnesses, "outcome", path, "witnesses"), path, "witnesses.outcome"
        )
        outcome = Outcome(rows)
        _domain(path, validate_outcome, outcome, game)
        if state_marginal_of(outcome) != game.prior:
            raise ValidationError(path, "witness state marginal differs from the prior")
        if marginal is not None and action_marginal_of(outcome) != marginal.probs:
            raise ValidationError(path, "witness action marginal differs from the target")
        if not check_obedience(outcome, game).obedient:
            raise ValidationError(path, "witness outcome is not obedient")
    elif verdict == "inconsistent":
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ValidationError(path, "inconsistent verdict carries no certificate")
        _recheck_certificate(cert, path, game, marginal)
    else:
        raise ValidationError(path, f"unknown verdict {verdict!r}")


def _recheck_certificate(cert: dict, path: str, game: BaseGame, marginal) -> None:
    kind = cert.get("kind")
    if marginal is None:
        raise ValidationError(path, "certificate without a target marginal")
    if kind == STATE_CONDITION:
        state = cert.get("state")
        if not isinstance(state, int) or not 0 <= state < game.n_states:
            raise ValidationError(path, "state-condition certificate names no valid state")
        residual = state_condition_residual(game, marginal, state)
        if residual >= 0 or fraction_to_json(residual) != cert.get("residual"):
            raise ValidationError(path, "state-condition residual does not re-derive")
    elif kind == ACTION_PAIR_CONDITION:
        pair = cert.get("pair")
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(a, int) and 0 <= a < game.n_actions for a in pair)
        ):
            raise ValidationError(path, "action-pair certificate names no valid pair")
        residual = action_pair_residual(game, marginal, pair[0], pair[1])
        if residual >= 0 or fraction_to_json(residual) != cert.get("residual"):
            raise ValidationError(path, "action-pair residual does not re-derive")
    elif kind == UNSUPPORTABLE_ACTION:
        action = cert.get("action")
        if (
            not isinstance(action, int)
            or not 0 <= action < game.n_actions
            or marginal.probs[action] == 0
        ):
            raise ValidationError(path, "unsupportable-action certificate names a zero-mass action")
        if not is_empty(opt_belief_polytope(game, action)):
            raise ValidationError(path, "named action is supportable after all")
    elif kind == STRASSEN_DIRECTION:
        direction = cert.get("direction")
        if not isinstance(direction, list) or len(direction) != game.n_states:
            raise ValidationError(path, "direction certificate has no direction of state length")
        c = _fraction_list(direction, path, "certificate.direction")
        residual = _domain(path, strassen_residual, game, marginal, c)
        if residual >= 0 or fraction_to_json(residual) != cert.get("residual"):
            raise ValidationError(path, "direction residual does not re-derive")
    else:
        raise ValidationError(path, f"unknown certificate kind {kind!r}")


def _revalidate_implement(doc: dict, path: str) -> None:
    inputs = doc["inputs"]
    game = parse_game(inputs, path)
    marginal = ActionMarginal(
        _fraction_list(_require(inputs, "marginal", path, "inputs"), path, "marginal")
    )
    _domain(path, validate_marginal, marginal, game.n_actions)
    tau = parse_tau(_require(inputs, "tau", path, "inputs"), path)
    verdict = doc.get("verdict")
    if verdict == "infeasible":
        _recheck_overfull_subset(doc.get("certificate"), path, game, marginal, tau)
        return
    if verdict != "implemented":
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    witnesses = doc.get("witnesses") or {}
    rule = DecisionRule(
        _fraction_rows(
            _require(witnesses, "decision_rule", path, "witnesses"),
            path,
            "witnesses.decision_rule",
        )
    )
    outcome_rows = _fraction_rows(
        _require(witnesses, "outcome", path, "witnesses"), path, "witnesses.outcome"
    )
    rebuilt = _domain(path, outcome_from_tau, tau, rule, game.prior)
    if rebuilt.probs != outcome_rows:
        raise ValidationError(path, "outcome does not re-derive from tau and the decision rule")
    outcome = Outcome(outcome_rows)
    if action_marginal_of(outcome) != marginal.probs:
        raise ValidationError(path, "implemented outcome misses the target marginal")
    if state_marginal_of(outcome) != game.prior:
        raise ValidationError(path, "implemented outcome misses the prior")
    if not check_obedience(outcome, game).obedient:
        raise ValidationError(path, "implemented outcome is not obedient")
    menus = menu_measure(tau, game)
    for entry in witnesses.get("menu_rule", []):
        if not isinstance(entry, dict) or "menu" not in entry or "probs" not in entry:
            raise ValidationError(path, "menu rule entries need menu and probs fields")
        m = frozenset(entry["menu"])
        probs = _fraction_list(entry["probs"], path, "witnesses.menu_rule.probs")
        if m not in menus:
            raise ValidationError(path, "menu rule names a menu tau never produces")
        if (
            len(probs) != game.n_actions
            or sum(probs) != 1
            or any(probs[a] > 0 and a not in m for a in range(len(probs)))
        ):
            raise ValidationError(path, "menu rule row is not a tie-break over its menu")


def _recheck_overfull_subset(
    cert, path: str, game: BaseGame, marginal: ActionMarginal, tau: PosteriorDistribution
) -> None:
    if not isinstance(cert, dict) or cert.get("kind") != "implementation-infeasible":
        raise ValidationError(path, "infeasible verdict carries no overfull-subset certificate")
    subset = cert.get("subset")
    if (
        not isinstance(subset, list)
        or not subset
        or not all(isinstance(a, int) and 0 <= a < game.n_actions for a in subset)
    ):
        raise ValidationError(path, "overfull-subset certificate names no valid action subset")
    slack = core_slack(marginal, menu_measure(tau, game), frozenset(subset))
    if slack >= 0 or fraction_to_json(slack) != cert.get("deficit"):
        raise ValidationError(path, "overfull-subset deficit does not re-derive")


def _revalidate_ring(doc: dict, path: str) -> None:
    inputs = doc["inputs"]
    ring = parse_ring(_require(inputs, "ring", path, "inputs"), path)
    vectors = [
        _fraction_list(vec, path, f"marginals[{i}]")
        for i, vec in enumerate(_require(inputs, "marginals", path, "inputs"))
    ]
    profile = _domain(path, make_profile, ring, vectors)
    verdict = doc.get("verdict")
    if verdict == "inconsistent":
        stage = (doc.get("details") or {}).get("failing_stage")
        if not isinstance(stage, int) or not 0 <= stage < ring.n_players:
            raise ValidationError(path, "inconsistent ring report names no valid failing stage")
        cert = doc.get("certificate")
        if not isinstance(cert, dict):
            raise ValidationError(path, "inconsistent verdict carries no certificate")
        stage_game = ring_stage_game(ring, profile, stage)
        _recheck_certificate(cert, path, stage_game, profile.marginals[stage])
        return
    if verdict != "consistent":
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    witnesses = doc.get("witnesses") or {}
    stage_rows = [
        Outcome(_fraction_rows(rows, path, f"witnesses.stage_witnesses[{i}]"))
        for i, rows in enumerate(
            _require(witnesses, "stage_witnesses", path, "witnesses")
        )
    ]
    joint_node = _require(witnesses, "joint", path, "witnesses")
    joint = _domain(path, construct_ring_outcome, stage_rows)
    if rows_json(joint.probs) != joint_node.get("probs"):
        raise ValidationError(path, "joint outcome does not re-derive from the stage witnesses")
    if list(joint.shape) != joint_node.get("shape"):
        raise ValidationError(path, "joint outcome shape mismatch")
    if not check_ring_obedience(joint, ring):
        raise ValidationError(path, "joint outcome is not obedient for every player")
    for i, marginal in enumerate(profile.marginals):
        if ring_player_marginal(joint, i) != marginal.probs:
            raise ValidationError(path, f"player {i + 1} marginal is not reproduced")


def _revalidate_verify(doc: dict, path: str) -> None:
    """Re-run the seeded comparison from the embedded inputs; the report's
    verdict and details must be exactly what it gives."""
    inputs = doc["inputs"]
    args = [_require(inputs, key, path, "inputs") for key in VERIFY_INPUTS]
    verdict, details = _domain(path, compare_routes, *args)
    if doc.get("details") != details:
        raise ValidationError(path, "details do not re-derive from the seeded comparison")
    if doc["verdict"] != verdict:
        raise ValidationError(path, "verdict does not match the seeded comparison")


def load_report(path: str) -> dict:
    """Load a report and re-derive every check its witnesses claim to pass."""
    doc = load_document(path)
    for key in ("command", "inputs", "verdict"):
        _require(doc, key, path)
    inputs = doc["inputs"]
    if not isinstance(inputs, dict):
        raise ValidationError(path, "inputs must be an object")
    if doc.get("inputs_sha256") != inputs_digest(inputs):
        raise ValidationError(path, "inputs digest mismatch")
    command = doc["command"]
    if command in ("check", "oracle"):
        game = parse_game(inputs, path)
        marginal = ActionMarginal(
            _fraction_list(_require(inputs, "marginal", path, "inputs"), path, "marginal")
        )
        _domain(path, validate_marginal, marginal, game.n_actions)
        _revalidate_consistency(doc, path, game, marginal)
    elif command == "public":
        fo = parse_first_order(_require(inputs, "first_order", path, "inputs"), path)
        marginal = ActionMarginal(
            _fraction_list(_require(inputs, "marginal", path, "inputs"), path, "marginal")
        )
        aux = auxiliary_single_agent(fo)
        _domain(path, validate_marginal, marginal, aux.n_actions)
        _revalidate_consistency(doc, path, aux, marginal)
    elif command == "implement":
        _revalidate_implement(doc, path)
    elif command == "ring":
        _revalidate_ring(doc, path)
    elif command == "verify":
        _revalidate_verify(doc, path)
    else:
        raise ValidationError(path, f"unknown report command {command!r}")
    return doc
