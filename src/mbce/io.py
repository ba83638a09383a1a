"""JSON instance files and self-checking result reports.

Rationals travel as integers or "p/q" strings; float literals are rejected
outright so no verdict ever depends on rounding.  Reports embed their inputs,
a digest of them, and every witness table.  One builder per report kind
writes a report from what the solvers found, and load_report rebuilds the
report with the same builder from its inputs plus the choices it made (the
witness outcome, the decision and menu rules, the stage witnesses, the
certificate's named condition), checking independently what those choices
claim.  It refuses a document that does not equal that report, or that holds
a JSON boolean (none is ever written, and true == 1 in a comparison), so a
report that loads cleanly is evidence, not just prose.  Identical inputs
produce byte-identical report files: keys are sorted, and the timing field is
pinned to null (wall-clock timings go to stderr, never into the document).

One operation writes and reads the same rationals several times (the inputs'
digest, the report, the reload, its digest), so this is a hot path:
canonical_json writes the text itself rather than through json.dumps, and
rational lists parse in one pass, naming the entry at fault only when one
fails.  load_document refuses with a ParseError, never a traceback, a file
that is not UTF-8, that json cannot read (too deep, or an integer literal
past the int-string digit limit), or that holds a lone surrogate, which no
UTF-8 report could carry.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring

from .applications import (
    FirstOrderGame,
    MarginalProfile,
    RingGame,
    RingVerdict,
    auxiliary_single_agent,
    check_ring_obedience,
    construct_ring_outcome,
    make_first_order,
    make_profile,
    make_ring,
    ring_pair_marginal,
    ring_player_marginal,
    ring_stage_game,
)
from .consistency import (
    ACTION_PAIR_CONDITION,
    STATE_CONDITION,
    STRASSEN_DIRECTION,
    UNSUPPORTABLE_ACTION,
    ConsistencyVerdict,
    ViolationCertificate,
    violation_certificate,
)
from .errors import (
    ImplementationInfeasible,
    MbceError,
    NumberTooLong,
    ParseError,
    ValidationError,
)
from .game import (
    ActionMarginal,
    BaseGame,
    Outcome,
    action_marginal_of,
    check_obedience,
    choice_rule_from_outcome,
    state_marginal_of,
    validate_game,
    validate_marginal,
    validate_outcome,
)
from .generators import compare_routes
from .implementation import (
    DecisionRule,
    MenuRule,
    PosteriorDistribution,
    core_slack,
    is_bayes_plausible,
    make_posteriors,
    menu_measure,
    outcome_from_tau,
)
from .polytope import is_empty, opt_belief_polytope
from .rationals import exact_fraction, exact_sum, fraction_to_json, vector_json

SCHEMA_VERSION = 1
IMPLEMENTATION_INFEASIBLE = "implementation-infeasible"

# Parameters of ``compare_routes``, in order, as a verify report embeds them.
VERIFY_INPUTS = ("n", "seed", "max_states", "max_actions")


@dataclass(frozen=True)
class LoadedDocument:
    """Parsed instance file; sections that were absent stay None. ``keep``
    flags each state of the file's prior that was kept, when null states
    were dropped; a tau read from another file drops the same coordinates."""

    path: str
    raw: dict
    keep: tuple[bool, ...] | None = None
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
        return self._document(inputs_digest(self.inputs))

    def _document(self, inputs_sha256: str) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "inputs_sha256": inputs_sha256,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "witnesses": self.witnesses,
            "details": self.details,
            "timing_ms": None,
        }


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _null_text(value: None) -> str:
    return "null"


# JSON text of each scalar type a report holds; bool is not int here.
_SCALAR_TEXT = {str: encode_basestring, int: int.__repr__, bool: _bool_text, type(None): _null_text}


def _text(value, indent: str):
    """The text of ``value`` at nesting ``indent``, or ``(value, indent)``
    for a container that holds containers, which the caller expands."""
    kind = type(value)
    if kind is list:
        if not value:
            return "[]"
        try:
            texts = [
                encode_basestring(v) if type(v) is str else _SCALAR_TEXT[type(v)](v)
                for v in value
            ]
        except KeyError:
            return value, indent
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"
    if kind is dict:
        return (value, indent) if value else "{}"
    if kind not in _SCALAR_TEXT:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _SCALAR_TEXT[kind](value)


def canonical_json(obj) -> str:
    """The canonical text of ``obj``: the bytes of ``json.dumps(obj,
    sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``, written
    directly (``json`` indents only in its pure-Python encoder). Only the
    types reports hold are written, dicts with str keys, lists, str, int,
    bool and None; any other raises TypeError. Containers wait on a stack
    instead of the call stack, so no nesting that ``json.load`` reads can
    raise RecursionError."""
    parts = []
    try:
        pending = [_text(obj, "")]
        while pending:
            item = pending.pop()
            if type(item) is str:
                parts.append(item)
                continue
            # The container's pieces go on the stack in reverse: the closing
            # bracket, then each value and the separator (and key) before it;
            # the opening bracket replaces the first separator.
            node, indent = item
            inner = indent + "  "
            sep = ",\n" + inner
            if type(node) is list:
                todo = ["\n" + indent + "]"]
                for value in reversed(node):
                    todo += (_text(value, inner), sep)
                todo[-1] = "[\n" + inner
            else:
                todo = ["\n" + indent + "}"]
                for key in sorted(node, reverse=True):
                    if type(key) is not str:
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    todo += (_text(node[key], inner), sep + encode_basestring(key) + ": ")
                todo[-1] = "{\n" + todo[-1][2:]
            pending += todo
    except ValueError:  # int.__repr__ past sys.get_int_max_str_digits()
        raise NumberTooLong() from None
    parts.append("\n")
    return "".join(parts)


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
            text = fh.read()
        doc = json.loads(text, parse_float=no_floats, parse_constant=no_floats)
    except OSError as err:
        raise ParseError(path, str(err))
    except UnicodeDecodeError as err:
        raise ParseError(path, f"not UTF-8 text: {err}")
    except json.JSONDecodeError as err:
        raise ParseError(path, f"invalid JSON: {err}")
    except ValueError as err:  # an integer literal past sys.get_int_max_str_digits()
        raise ParseError(path, f"unreadable number: {err}")
    except RecursionError:
        raise ParseError(path, _TOO_DEEP)
    if not isinstance(doc, dict):
        raise ParseError(path, "top level must be a JSON object")
    # A document nests no deeper than it has opening brackets.
    if text.count("[") + text.count("{") > MAX_NESTING and _nested_too_deeply(doc):
        raise ParseError(path, _TOO_DEEP)
    if _SURROGATE_ESCAPE.search(text) and _holds_lone_surrogate(doc):
        raise ParseError(path, "a string holds a lone surrogate, which UTF-8 cannot encode")
    return doc


# The deepest nesting a document may have. A report nests a few levels, and
# ``json`` reads far deeper while stack is left, which depends on the caller:
# one fixed limit, well under the interpreter's recursion limit, gives every
# caller the same verdict.
MAX_NESTING = 100
_TOO_DEEP = f"arrays or objects nested too deeply (more than {MAX_NESTING} levels)"


def _nested_too_deeply(doc: dict) -> bool:
    """Whether ``doc`` nests arrays or objects more than ``MAX_NESTING``
    levels deep, the top-level object counted as one. Walks one level at a
    time, never on the call stack."""
    level = [doc]
    for _ in range(MAX_NESTING):
        level = [
            child
            for node in level
            for child in (node.values() if type(node) is dict else node)
            if type(child) is dict or type(child) is list
        ]
        if not level:
            return False
    return True


# A \uXXXX escape of a UTF-16 surrogate. Strict UTF-8 decoding refuses
# encoded surrogates, so only such an escape can put one in a parsed string.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _holds_lone_surrogate(doc) -> bool:
    """Whether a key or string anywhere in ``doc`` holds a surrogate that no
    escape pair joined into one character."""
    stack = [doc]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is dict:
            stack.extend(node)
            stack.extend(node.values())
        elif kind is list:
            stack.extend(node)
        elif kind is str:
            try:
                node.encode("utf-8")
            except UnicodeEncodeError:
                return True
    return False


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
    try:
        return tuple(map(exact_fraction, node))
    except (TypeError, ValueError):
        for i, v in enumerate(node):  # the first entry that fails raises, located
            _fraction_at(v, path, f"{crumb}[{i}]")
        raise


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


def _kept_states(rows, keep: tuple[bool, ...], path: str, what: str) -> tuple:
    """Each row cut down to the states ``keep`` flags; every row must have
    one entry per flag."""
    if any(len(row) != len(keep) for row in rows):
        raise ValidationError(path, f"cannot drop null states from a ragged {what}")
    return tuple(tuple(x for x, kept in zip(row, keep) if kept) for row in rows)


def parse_game(
    doc: dict, path: str, keep: tuple[bool, ...] | None = None, crumb: str = ""
) -> BaseGame:
    states = _string_list(_require(doc, "states", path, crumb), path, "states")
    actions = _string_list(_require(doc, "actions", path, crumb), path, "actions")
    utility = _fraction_rows(_require(doc, "utility", path, crumb), path, "utility")
    prior = _fraction_list(_require(doc, "prior", path, crumb), path, "prior")
    if keep is not None:
        states, prior = _kept_states((states, prior), keep, path, "game")
        utility = _kept_states(utility, keep, path, "game")
    game = BaseGame(states, actions, utility, prior)
    _domain(path, validate_game, game)
    return game


def parse_tau(
    node, path: str, keep: tuple[bool, ...] | None = None
) -> PosteriorDistribution:
    if not isinstance(node, dict):
        raise ParseError(path, "tau: expected an object with support and weights")
    support = _fraction_rows(_require(node, "support", path, "tau"), path, "tau.support")
    weights = _fraction_list(_require(node, "weights", path, "tau"), path, "tau.weights")
    if keep is not None:
        support = _kept_states(support, keep, path, "tau")
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


def parse_profile(node, path: str, ring: RingGame) -> MarginalProfile:
    if not isinstance(node, list):
        raise ParseError(path, "marginals: expected an array of arrays")
    vectors = [_fraction_list(vec, path, f"marginals[{i}]") for i, vec in enumerate(node)]
    return _domain(path, make_profile, ring, vectors)


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
        keep = tuple(q != 0 for q in _fraction_list(doc["prior"], path, "prior"))

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
        profile = parse_profile(doc["marginals"], path, ring)

    first_order = (
        parse_first_order(doc["first_order"], path) if "first_order" in doc else None
    )

    return LoadedDocument(
        path=path,
        raw=doc,
        keep=keep,
        game=game,
        marginal=marginal,
        tau=tau,
        ring=ring,
        profile=profile,
        first_order=first_order,
    )


# -- serialization ------------------------------------------------------


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


# -- report builders ----------------------------------------------------


def consistency_report(command, game, marginal, verdict, first_order=None) -> Report:
    """Report of ``check``, ``oracle`` or ``public``; for ``public``, ``game``
    is the auxiliary game of ``first_order``, whose profiles go in details."""
    if first_order is None:
        inputs, details = game_json(game), None
    else:
        inputs = {"first_order": first_order_json(first_order)}
        details = {"profiles": list(game.actions)}
    inputs["marginal"] = vector_json(marginal.probs)
    if verdict.consistent:
        witnesses = {"outcome": rows_json(verdict.witness.probs)}
        return Report(command, inputs, "consistent", witnesses=witnesses, details=details)
    certificate = certificate_json(verdict.violation)
    return Report(command, inputs, "inconsistent", certificate=certificate, details=details)


def implement_report(
    game, marginal, tau, *, infeasible=None, rule=None, menu_rule=None, outcome=None
) -> Report:
    """Report of ``implement``: the overfull subset of an ImplementationInfeasible,
    or the decision rule, the menu rule and the outcome the rule induces."""
    inputs = game_json(game)
    inputs["marginal"] = vector_json(marginal.probs)
    inputs["tau"] = tau_json(tau)
    if infeasible is not None:
        subset, deficit = sorted(infeasible.subset), fraction_to_json(infeasible.deficit)
        certificate = {"kind": IMPLEMENTATION_INFEASIBLE, "subset": subset, "deficit": deficit}
        return Report("implement", inputs, "infeasible", certificate=certificate)
    witnesses = {
        "tau": inputs["tau"],
        "decision_rule": rows_json(rule.rows),
        "menu_rule": menu_rule_json(menu_rule),
        "choice_rule": rows_json(choice_rule_from_outcome(outcome, game.prior).rows),
        "outcome": rows_json(outcome.probs),
    }
    return Report("implement", inputs, "implemented", witnesses=witnesses)


def ring_report(ring, profile, verdict, joint=None) -> Report:
    """Report of ``ring``: the first failing stage and its certificate, or the
    stage witnesses and ``joint``, the outcome chained from them."""
    marginals = [vector_json(m.probs) for m in profile.marginals]
    inputs = {"ring": ring_json(ring), "marginals": marginals}
    details = {"failing_stage": verdict.failing_stage}
    if not verdict.consistent:
        certificate = certificate_json(verdict.violation)
        return Report("ring", inputs, "inconsistent", certificate=certificate, details=details)
    witnesses = {
        "stage_witnesses": [rows_json(w.probs) for w in verdict.stage_witnesses],
        "joint": {"shape": list(joint.shape), "probs": rows_json(joint.probs)},
        "player_marginals": [
            vector_json(ring_player_marginal(joint, i)) for i in range(ring.n_players)
        ],
    }
    return Report("ring", inputs, "consistent", witnesses=witnesses, details=details)


def verify_report(n, seed, max_states, max_actions) -> Report:
    """Report of ``verify``: the seeded comparison of the two routes."""
    verdict, details = compare_routes(n, seed, max_states, max_actions)
    inputs = dict(zip(VERIFY_INPUTS, (n, seed, max_states, max_actions)))
    return Report("verify", inputs, verdict, details=details)


# -- report loading: each _rebuild_* parses a report's inputs and choices,
# checks what the choices claim, and hands them to the report's builder.


def _is_index(value, size: int) -> bool:
    return type(value) is int and 0 <= value < size  # a JSON true is no index


def _section(doc: dict, key: str, path: str) -> dict:
    node = doc.get(key)
    if not isinstance(node, dict):
        raise ValidationError(path, f"{doc['verdict']} verdict carries no {key} object")
    return node


def _parse_marginal(inputs: dict, path: str, n_actions: int) -> ActionMarginal:
    node = _require(inputs, "marginal", path, "inputs")
    marginal = ActionMarginal(_fraction_list(node, path, "marginal"))
    _domain(path, validate_marginal, marginal, n_actions)
    return marginal


def _check_outcome(path: str, what: str, outcome: Outcome, game: BaseGame, marginal) -> None:
    if state_marginal_of(outcome) != game.prior:
        raise ValidationError(path, f"{what} misses the prior")
    if action_marginal_of(outcome) != marginal.probs:
        raise ValidationError(path, f"{what} misses the target marginal")
    if not check_obedience(outcome, game).obedient:
        raise ValidationError(path, f"{what} is not obedient")


def _rederive_certificate(doc, path, game, marginal) -> ViolationCertificate:
    """The certificate at the report's named choice, which must violate."""
    cert = _section(doc, "certificate", path)
    kind = cert.get("kind")
    if kind == UNSUPPORTABLE_ACTION:
        choice = cert.get("action")
        if not _is_index(choice, game.n_actions) or marginal.probs[choice] == 0:
            raise ValidationError(path, "unsupportable-action certificate names a zero-mass action")
        if not is_empty(opt_belief_polytope(game, choice)):
            raise ValidationError(path, "named action is supportable after all")
    elif kind == STATE_CONDITION:
        choice = cert.get("state")
        if not _is_index(choice, game.n_states):
            raise ValidationError(path, "state-condition certificate names no valid state")
    elif kind == ACTION_PAIR_CONDITION:
        choice = cert.get("pair")
        is_pair = isinstance(choice, list) and len(choice) == 2
        if not is_pair or not all(_is_index(a, game.n_actions) for a in choice):
            raise ValidationError(path, "action-pair certificate names no valid pair")
    elif kind == STRASSEN_DIRECTION:
        choice = cert.get("direction")
        if not isinstance(choice, list) or len(choice) != game.n_states:
            raise ValidationError(path, "direction certificate has no direction of state length")
        choice = _fraction_list(choice, path, "certificate.direction")
    else:
        raise ValidationError(path, f"unknown certificate kind {kind!r}")
    violation = _domain(path, violation_certificate, game, marginal, kind, choice)
    if violation.residual is not None and violation.residual >= 0:
        raise ValidationError(path, f"{kind} certificate does not re-derive a negative residual")
    return violation


def _rebuild_consistency(doc: dict, path: str) -> Report:
    inputs, command, verdict = doc["inputs"], doc["command"], doc["verdict"]
    first_order = None
    if command == "public":
        first_order = parse_first_order(_require(inputs, "first_order", path, "inputs"), path)
        game = _domain(path, auxiliary_single_agent, first_order)
    else:
        game = parse_game(inputs, path)
    marginal = _parse_marginal(inputs, path, game.n_actions)
    if verdict == "consistent":
        rows = _require(_section(doc, "witnesses", path), "outcome", path, "witnesses")
        witness = Outcome(_fraction_rows(rows, path, "witnesses.outcome"))
        _domain(path, validate_outcome, witness, game)
        _check_outcome(path, "witness outcome", witness, game, marginal)
        found = ConsistencyVerdict(consistent=True, witness=witness)
    elif verdict == "inconsistent":
        violation = _rederive_certificate(doc, path, game, marginal)
        found = ConsistencyVerdict(consistent=False, violation=violation)
    else:
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    return consistency_report(command, game, marginal, found, first_order)


def _rederive_overfull_subset(doc, path, game, marginal, menus) -> ImplementationInfeasible:
    cert = _section(doc, "certificate", path)
    if cert.get("kind") != IMPLEMENTATION_INFEASIBLE:
        raise ValidationError(path, "infeasible verdict carries no overfull-subset certificate")
    subset, n = cert.get("subset"), game.n_actions
    if not (isinstance(subset, list) and subset and all(_is_index(a, n) for a in subset)):
        raise ValidationError(path, "overfull-subset certificate names no valid action subset")
    slack = core_slack(marginal, menus, frozenset(subset))
    if slack >= 0 or fraction_to_json(slack) != cert.get("deficit"):
        raise ValidationError(path, "overfull-subset deficit does not re-derive")
    return ImplementationInfeasible(frozenset(subset), slack)


def _rederive_menu_rule(witnesses, path, marginal, menus) -> MenuRule:
    """One tie-break row for each menu of tau, with no negative entry and no
    mass outside its menu; weighted by the menu masses, the rows add up to
    the target marginal (the core split the menu rule claims)."""
    entries = _require(witnesses, "menu_rule", path, "witnesses")
    if not isinstance(entries, list):
        raise ParseError(path, "witnesses.menu_rule: expected an array")
    n_actions = len(marginal.probs)
    rule: MenuRule = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "menu" not in entry or "probs" not in entry:
            raise ValidationError(path, "menu rule entries need menu and probs fields")
        items = entry["menu"]
        if not isinstance(items, list) or not all(_is_index(a, n_actions) for a in items):
            raise ValidationError(path, "menu rule names a menu of no valid actions")
        menu = frozenset(items)
        if menu not in menus:
            raise ValidationError(path, "menu rule names a menu tau never produces")
        if menu in rule:
            raise ValidationError(path, "menu rule names a menu twice")
        row = _fraction_list(entry["probs"], path, f"witnesses.menu_rule[{i}].probs")
        if len(row) != n_actions or exact_sum(row) != 1 or any(
            q.numerator < 0 or (q.numerator > 0 and a not in menu) for a, q in enumerate(row)
        ):
            raise ValidationError(path, "menu rule row is not a tie-break over its menu")
        rule[menu] = row
    if len(rule) != len(menus):
        raise ValidationError(path, "menu rule leaves out a menu tau produces")
    for a, target in enumerate(marginal.probs):
        if exact_sum(menus[m] * row[a] for m, row in rule.items() if row[a]) != target:
            raise ValidationError(path, "menu rule rows do not split the menus into the marginal")
    return rule


def _rebuild_implement(doc: dict, path: str) -> Report:
    inputs, verdict = doc["inputs"], doc["verdict"]
    game = parse_game(inputs, path)
    marginal = _parse_marginal(inputs, path, game.n_actions)
    tau = parse_tau(_require(inputs, "tau", path, "inputs"), path)
    # The dimension check inside is what the outcome check below cannot see:
    # best responses and the outcome read only the prior's states of a belief.
    if not _domain(path, is_bayes_plausible, tau, game.prior):
        raise ValidationError(path, "tau does not average to the prior")
    menus = menu_measure(tau, game)
    if verdict == "infeasible":
        infeasible = _rederive_overfull_subset(doc, path, game, marginal, menus)
        return implement_report(game, marginal, tau, infeasible=infeasible)
    if verdict != "implemented":
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    witnesses = _section(doc, "witnesses", path)
    rows = _require(witnesses, "decision_rule", path, "witnesses")
    rule = DecisionRule(_fraction_rows(rows, path, "witnesses.decision_rule"))
    if len(rule.rows) != tau.size or any(
        len(row) != game.n_actions or exact_sum(row) != 1 or any(q.numerator < 0 for q in row)
        for row in rule.rows
    ):
        raise ValidationError(path, "decision rule needs one distribution per posterior")
    # With tau and every rule row a distribution, the induced outcome is one
    # too; what remains to check is its marginals and obedience.
    outcome = outcome_from_tau(tau, rule, game.prior)
    _check_outcome(path, "implemented outcome", outcome, game, marginal)
    menu_rule = _rederive_menu_rule(witnesses, path, marginal, menus)
    return implement_report(game, marginal, tau, rule=rule, menu_rule=menu_rule, outcome=outcome)


def _rebuild_ring(doc: dict, path: str) -> Report:
    inputs, verdict = doc["inputs"], doc["verdict"]
    ring = parse_ring(_require(inputs, "ring", path, "inputs"), path)
    profile = parse_profile(_require(inputs, "marginals", path, "inputs"), path, ring)
    if verdict == "inconsistent":
        stage = _section(doc, "details", path).get("failing_stage")
        if not _is_index(stage, ring.n_players):
            raise ValidationError(path, "inconsistent ring report names no valid failing stage")
        stage_game = ring_stage_game(ring, profile, stage)
        violation = _rederive_certificate(doc, path, stage_game, profile.marginals[stage])
        found = RingVerdict(consistent=False, failing_stage=stage, violation=violation)
        return ring_report(ring, profile, found)
    if verdict != "consistent":
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    nodes = _require(_section(doc, "witnesses", path), "stage_witnesses", path, "witnesses")
    if not isinstance(nodes, list) or len(nodes) != ring.n_players:
        raise ValidationError(path, "ring report needs one stage witness per player")
    stages = tuple(
        Outcome(_fraction_rows(node, path, f"witnesses.stage_witnesses[{i}]"))
        for i, node in enumerate(nodes)
    )
    widths = [len(ring.states), *map(len, ring.actions)]
    for i, stage in enumerate(stages):
        if stage.n_actions != widths[i + 1] or any(len(r) != widths[i] for r in stage.probs):
            raise ValidationError(path, f"stage witness {i} does not fit the ring")
    joint = _domain(path, construct_ring_outcome, stages)
    # The joint's integer numerators share its positive scale, so they carry
    # its signs; its state marginal is that of player 1's pair marginal.
    negative = any(x < 0 for row in joint.integer_probs[1] for x in row)
    if negative or state_marginal_of(ring_pair_marginal(joint, 0)) != ring.prior:
        raise ValidationError(path, "joint outcome is no distribution with the ring's prior")
    if not check_ring_obedience(joint, ring):
        raise ValidationError(path, "joint outcome is not obedient for every player")
    for i, marginal in enumerate(profile.marginals):
        if ring_player_marginal(joint, i) != marginal.probs:
            raise ValidationError(path, f"player {i + 1} marginal is not reproduced")
    found = RingVerdict(consistent=True, stage_witnesses=stages)
    return ring_report(ring, profile, found, joint)


def _rebuild_verify(doc: dict, path: str) -> Report:
    """Re-run the seeded comparison from the embedded inputs."""
    inputs = doc["inputs"]
    args = [_require(inputs, key, path, "inputs") for key in VERIFY_INPUTS]
    report = _domain(path, verify_report, *args)
    if doc.get("details") != report.details:
        raise ValidationError(path, "details do not re-derive from the seeded comparison")
    if doc["verdict"] != report.verdict:
        raise ValidationError(path, "verdict does not match the seeded comparison")
    return report


_MISSING = object()


def _first_difference(found, expected, where: str) -> str:
    """Path of the first leaf where ``found`` departs from ``expected``."""
    if isinstance(found, dict) and isinstance(expected, dict):
        steps = [
            (f"{where}.{key}", found.get(key, _MISSING), expected.get(key, _MISSING))
            for key in {**expected, **found}
        ]
    elif isinstance(found, list) and isinstance(expected, list) and len(found) == len(expected):
        steps = [(f"{where}[{i}]", f, e) for i, (f, e) in enumerate(zip(found, expected))]
    else:
        return where
    return next(_first_difference(f, e, here) for here, f, e in steps if f != e)


def _holds_boolean(doc) -> bool:
    """Whether a JSON true or false sits anywhere in ``doc``. No builder
    writes one, and dict equality lets true pass for 1 and false for 0."""
    stack = [doc]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is dict:
            stack.extend(node.values())
        elif kind is list:
            stack.extend(node)
        elif kind is bool:
            return True
    return False


def load_report(path: str) -> dict:
    """Load a report and refuse it unless it equals the report that its
    inputs and its own choices rebuild, with what the choices claim checked,
    and holds no JSON boolean."""
    doc = load_document(path)
    for key in ("command", "inputs", "verdict"):
        _require(doc, key, path)
    inputs = doc["inputs"]
    if not isinstance(inputs, dict):
        raise ValidationError(path, "inputs must be an object")
    digest = inputs_digest(inputs)
    if doc.get("inputs_sha256") != digest:
        raise ValidationError(path, "inputs digest mismatch")
    command = doc["command"]
    if command in ("check", "oracle", "public"):
        report = _rebuild_consistency(doc, path)
    elif command == "implement":
        report = _rebuild_implement(doc, path)
    elif command == "ring":
        report = _rebuild_ring(doc, path)
    elif command == "verify":
        report = _rebuild_verify(doc, path)
    else:
        raise ValidationError(path, f"unknown report command {command!r}")
    # Equal documents have equal inputs, so the digest is the one just checked.
    expected = report._document(digest)
    if doc != expected:
        where = _first_difference(doc, expected, "report")
        raise ValidationError(path, f"{where} does not re-derive from the inputs and choices")
    if _holds_boolean(doc):
        raise ValidationError(path, "report holds a JSON boolean, which no builder writes")
    return doc
