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
report_string writes the inputs once, their canonical text giving both the
digest and the report's inputs section (a CanonicalText node, indented in
place).  Rational lists parse in one pass straight into their integer form
(``rationals.parse_row``), naming the entry at fault only when one fails;
the rebuilt witnesses are checked on those integers, and every table is
printed from them (``vector_json``).  load_report looks for a boolean only
in a text that spells true or false.  Writing the report is
in that loop too: write_text, the one writer
behind save_report and the CLI's --out, overwrites the file in place rather
than truncating it first.  Reading is in that loop as well: _read_document
reads a file as bytes, decodes them as strict UTF-8 and parses the text with
one module-level json.JSONDecoder (json.loads would build a new one on each
call, for the float hooks), refusing a leading byte-order mark as json.loads
does.  load_document refuses with a ParseError, never a traceback, a file
that is not UTF-8, that json cannot read (too deep, or an integer literal
past the int-string digit limit), or that holds a lone surrogate, which no
UTF-8 report could carry.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring
from operator import mul

from .applications import (
    FirstOrderGame,
    MarginalProfile,
    RingGame,
    RingVerdict,
    auxiliary_single_agent,
    check_ring_obedience,
    construct_ring_outcome,
    first_order_from_tables,
    make_profile,
    ring_from_tables,
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
    check_action_marginal,
    check_obedience,
    check_state_marginal,
    choice_rule_from_outcome,
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
    menu_measure,
    outcome_from_tau,
    validate_posteriors,
)
from .polytope import is_empty, opt_belief_polytope
from .rationals import (
    IntegerRow,
    IntegerTable,
    common_scale,
    fraction_to_json,
    parse_row,
    parse_table,
    reduced_row,
    vector_json,
)

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


@dataclass(frozen=True)
class CanonicalText:
    """The text ``canonical_json`` wrote for a value, without its final
    newline. As a node of a larger tree it is written as that value would
    be, each of its lines indented to where it sits, so a subtree rendered
    once (a report's inputs, say) is not rendered again."""

    text: str


def _text(value, indent: str):
    """The text of ``value`` at nesting ``indent``, or ``(value, indent)``
    for a container that holds containers, which the caller expands."""
    kind = type(value)
    if kind is CanonicalText:
        # A canonical text holds no raw newline inside a string: json
        # escapes it, so every newline starts a line to indent.
        return value.text.replace("\n", "\n" + indent)
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
    bool and None, and a ``CanonicalText`` stands for the value it was
    written from; any other type raises TypeError. Containers wait on a stack
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
    return _digest(canonical_json(inputs))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_string(report: Report) -> str:
    """``canonical_json(report.to_dict())``, with the inputs written once:
    their canonical text gives the digest and is the report's inputs
    section."""
    inputs = canonical_json(report.inputs)
    document = report._document(_digest(inputs))
    document["inputs"] = CanonicalText(inputs[:-1])
    return canonical_json(document)


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting the file in place.

    The file is opened without ``O_TRUNC`` (a new one gets mode 0o666 less
    the umask, as from the builtin ``open``) and cut to the new length
    after the write: truncating first and then rewriting costs far more on
    some filesystems (ext4's replace-via-truncate heuristic). Only a regular
    file is cut, so ``/dev/null``, pipes and FIFOs take the text unchanged.
    A write that fails leaves the file's content unspecified.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def save_report(report: Report, path: str) -> None:
    write_text(path, report_string(report))


# -- parsing ------------------------------------------------------------


def load_document(path: str) -> dict:
    return _read_document(path)[0]


class _FloatLiteral(Exception):
    """A float literal or NaN/Infinity constant met while decoding; raised
    by the shared decoder, which knows no path, and turned into a
    ValidationError by ``_read_document``. Not a ValueError, which would
    read as an unreadable number."""


def _refuse_float(text: str):
    raise _FloatLiteral(text)


# One decoder for every document: json.loads builds a new one on each call
# that passes a hook.
_DECODER = json.JSONDecoder(parse_float=_refuse_float, parse_constant=_refuse_float)


def _read_document(path: str) -> tuple[dict, str]:
    """The parsed document at ``path`` and its text.

    The file is read as bytes, decoded as strict UTF-8 (line ends are left
    as they are, so an error's offset counts the file's own characters) and
    parsed by the module's one decoder. A leading byte-order mark is refused
    with json.loads's own message."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except OSError as err:
        raise ParseError(path, str(err))
    except UnicodeDecodeError as err:
        raise ParseError(path, f"not UTF-8 text: {err}")
    except _FloatLiteral as err:
        raise ValidationError(
            path, f'float literal {err} is not allowed; write rationals as "p/q" strings'
        )
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
    return doc, text


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


def _integer_row(node, path: str, crumb: str) -> IntegerRow:
    """An array of rationals in its integer form (``parse_row``)."""
    if not isinstance(node, list):
        raise ParseError(path, f"{crumb}: expected an array of rationals")
    try:
        return parse_row(node)
    except (TypeError, ValueError):
        for i, v in enumerate(node):  # the first entry that fails raises, located
            try:
                parse_row((v,))
            except (TypeError, ValueError) as err:
                raise ParseError(path, f"{crumb}[{i}]: {err}")
        raise


def _integer_table(node, path: str, crumb: str) -> IntegerTable:
    """An array of arrays of rationals as one table over a common scale
    (``parse_table``); only when it fails is each row read on its own, so
    that the first row at fault is named."""
    if not isinstance(node, list):
        raise ParseError(path, f"{crumb}: expected an array of arrays")
    try:
        if not all(isinstance(row, list) for row in node):
            raise TypeError("a row is not an array")
        return parse_table(node)
    except (TypeError, ValueError):
        for i, row in enumerate(node):  # the first row at fault raises, located
            _integer_row(row, path, f"{crumb}[{i}]")
        raise


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


def parse_game(doc: dict, path: str, keep: tuple[bool, ...] | None = None) -> BaseGame:
    states = _string_list(_require(doc, "states", path), path, "states")
    actions = _string_list(_require(doc, "actions", path), path, "actions")
    scale, utility = _integer_table(_require(doc, "utility", path), path, "utility")
    prior_scale, prior = _integer_row(_require(doc, "prior", path), path, "prior")
    if keep is not None:
        states, prior = _kept_states((states, prior), keep, path, "game")
        utility = _kept_states(utility, keep, path, "game")
    game = BaseGame(states, actions, (scale, utility), (prior_scale, prior))
    _domain(path, validate_game, game)
    return game


def parse_tau(
    node, path: str, keep: tuple[bool, ...] | None = None
) -> PosteriorDistribution:
    if not isinstance(node, dict):
        raise ParseError(path, "tau: expected an object with support and weights")
    scale, support = _integer_table(_require(node, "support", path, "tau"), path, "tau.support")
    weights = _integer_row(_require(node, "weights", path, "tau"), path, "tau.weights")
    if keep is not None:
        support = _kept_states(support, keep, path, "tau")
    tau = PosteriorDistribution((scale, support), weights)
    _domain(path, validate_posteriors, tau)
    return tau


def _labelled_tables(node, path: str, name: str, key: str) -> tuple:
    """``(states, prior, tables)`` of a ``name`` section whose ``key`` array
    holds one labelled utility table (``actions``, ``utility``) per entry;
    each error names its crumb, as in ``ring.stages[0].utility``."""
    if not isinstance(node, dict):
        raise ParseError(path, f"{name}: expected an object")
    states = _string_list(_require(node, "states", path, name), path, f"{name}.states")
    prior = _integer_row(_require(node, "prior", path, name), path, f"{name}.prior")
    entries = _require(node, key, path, name)
    if not isinstance(entries, list):
        raise ParseError(path, f"{name}.{key}: expected an array")
    tables = []
    for i, entry in enumerate(entries):
        crumb = f"{name}.{key}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(path, f"{crumb}: expected an object")
        labels = _string_list(_require(entry, "actions", path, crumb), path, f"{crumb}.actions")
        table = _integer_table(_require(entry, "utility", path, crumb), path, f"{crumb}.utility")
        tables.append((labels, table))
    return states, prior, tables


def parse_ring(node, path: str) -> RingGame:
    tables = _labelled_tables(node, path, "ring", "stages")
    return _domain(path, ring_from_tables, *tables)


def parse_profile(node, path: str, ring: RingGame) -> MarginalProfile:
    if not isinstance(node, list):
        raise ParseError(path, "marginals: expected an array of arrays")
    vectors = [
        ActionMarginal(_integer_row(vec, path, f"marginals[{i}]")) for i, vec in enumerate(node)
    ]
    return _domain(path, make_profile, ring, vectors)


def parse_first_order(node, path: str) -> FirstOrderGame:
    tables = _labelled_tables(node, path, "first_order", "players")
    return _domain(path, first_order_from_tables, *tables)


def load_game(path: str, drop_null_states: bool = False) -> LoadedDocument:
    """Parse an instance file into whichever domain objects it declares."""
    doc = load_document(path)
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(path, f"unsupported schema_version {version!r}")

    keep = None
    if drop_null_states and "prior" in doc:
        keep = tuple(x != 0 for x in _integer_row(doc["prior"], path, "prior")[1])

    game = None
    if any(k in doc for k in ("states", "actions", "utility")) or "prior" in doc:
        game = parse_game(doc, path, keep=keep)

    marginal = None
    if "marginal" in doc:
        marginal = ActionMarginal(_integer_row(doc["marginal"], path, "marginal"))

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
        keep=keep,
        game=game,
        marginal=marginal,
        tau=tau,
        ring=ring,
        profile=profile,
        first_order=first_order,
    )


# -- serialization ------------------------------------------------------


def rows_json(table: IntegerTable) -> list:
    """Each row of an integer table, printed by ``vector_json``."""
    scale, rows = table
    return [vector_json((scale, row)) for row in rows]


def game_json(game: BaseGame) -> dict:
    return {
        "states": list(game.states),
        "actions": list(game.actions),
        "utility": rows_json(game.integer_utility),
        "prior": vector_json(game.integer_prior),
    }


def tau_json(tau: PosteriorDistribution) -> dict:
    return {"support": rows_json(tau.integer_support), "weights": vector_json(tau.integer_weights)}


def _labelled_tables_json(games, key: str) -> dict:
    """The states and prior of the first game, and each game's labelled
    utility table under ``key``: the inverse of ``_labelled_tables``."""
    return {
        "states": list(games[0].states),
        "prior": vector_json(games[0].integer_prior),
        key: [
            {"actions": list(game.actions), "utility": rows_json(game.integer_utility)}
            for game in games
        ],
    }


def ring_json(ring: RingGame) -> dict:
    return _labelled_tables_json(ring.stages, "stages")


def first_order_json(fo: FirstOrderGame) -> dict:
    return _labelled_tables_json(fo.players, "players")


def certificate_json(cert: ViolationCertificate) -> dict:
    return {
        "kind": cert.kind,
        "state": cert.state,
        "pair": list(cert.pair) if cert.pair is not None else None,
        "action": cert.action,
        "residual": fraction_to_json(cert.residual) if cert.residual is not None else None,
        "direction": vector_json(cert.direction) if cert.direction is not None else None,
    }


def menu_rule_json(rule: MenuRule) -> list:
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
    inputs["marginal"] = vector_json(marginal.integer_probs)
    if verdict.consistent:
        witnesses = {"outcome": rows_json(verdict.witness.integer_probs)}
        return Report(command, inputs, "consistent", witnesses=witnesses, details=details)
    certificate = certificate_json(verdict.violation)
    return Report(command, inputs, "inconsistent", certificate=certificate, details=details)


def implement_report(
    game, marginal, tau, *, infeasible=None, rule=None, menu_rule=None, outcome=None
) -> Report:
    """Report of ``implement``: the overfull subset of an ImplementationInfeasible,
    or the decision rule, the menu rule and the outcome the rule induces."""
    inputs = game_json(game)
    inputs["marginal"] = vector_json(marginal.integer_probs)
    inputs["tau"] = tau_json(tau)
    if infeasible is not None:
        subset, deficit = sorted(infeasible.subset), fraction_to_json(infeasible.deficit)
        certificate = {"kind": IMPLEMENTATION_INFEASIBLE, "subset": subset, "deficit": deficit}
        return Report("implement", inputs, "infeasible", certificate=certificate)
    witnesses = {
        "tau": inputs["tau"],
        "decision_rule": rows_json(rule.integer_rows),
        "menu_rule": menu_rule_json(menu_rule),
        "choice_rule": rows_json(
            choice_rule_from_outcome(outcome, game.integer_prior).integer_rows
        ),
        "outcome": rows_json(outcome.integer_probs),
    }
    return Report("implement", inputs, "implemented", witnesses=witnesses)


def ring_report(ring, profile, verdict, joint=None) -> Report:
    """Report of ``ring``: the first failing stage and its certificate, or the
    stage witnesses and ``joint``, the outcome chained from them."""
    marginals = [vector_json(m.integer_probs) for m in profile.marginals]
    inputs = {"ring": ring_json(ring), "marginals": marginals}
    details = {"failing_stage": verdict.failing_stage}
    if not verdict.consistent:
        certificate = certificate_json(verdict.violation)
        return Report("ring", inputs, "inconsistent", certificate=certificate, details=details)
    witnesses = {
        "stage_witnesses": [rows_json(w.integer_probs) for w in verdict.stage_witnesses],
        "joint": {"shape": list(joint.shape), "probs": rows_json(joint.integer_probs)},
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
    marginal = ActionMarginal(_integer_row(node, path, "marginal"))
    _domain(path, validate_marginal, marginal, n_actions)
    return marginal


def _check_outcome(path: str, what: str, outcome: Outcome, game: BaseGame, marginal) -> None:
    """Both marginals and obedience, on the outcome's integer view; the
    outcome has the game's shape and the marginal one entry per action."""
    if not check_state_marginal(outcome, game.integer_prior):
        raise ValidationError(path, f"{what} misses the prior")
    if not check_action_marginal(outcome, marginal):
        raise ValidationError(path, f"{what} misses the target marginal")
    if not check_obedience(outcome, game).obedient:
        raise ValidationError(path, f"{what} is not obedient")


def _rederive_certificate(doc, path, game, marginal) -> ViolationCertificate:
    """The certificate at the report's named choice, which must violate."""
    cert = _section(doc, "certificate", path)
    kind = cert.get("kind")
    if kind == UNSUPPORTABLE_ACTION:
        choice = cert.get("action")
    elif kind == STATE_CONDITION:
        choice = cert.get("state")
    elif kind == ACTION_PAIR_CONDITION:
        choice = cert.get("pair")
        if not isinstance(choice, list):
            raise ValidationError(path, "action-pair certificate names no valid pair")
    elif kind == STRASSEN_DIRECTION:
        choice = cert.get("direction")
        if not isinstance(choice, list) or len(choice) != game.n_states:
            raise ValidationError(path, "direction certificate has no direction of state length")
        choice = _integer_row(choice, path, "certificate.direction")
    else:
        raise ValidationError(path, f"unknown certificate kind {kind!r}")
    # violation_certificate refuses an index or a pair that is none of the game's.
    violation = _domain(path, violation_certificate, game, marginal, kind, choice)
    if kind == UNSUPPORTABLE_ACTION:
        if marginal.integer_probs[1][choice] == 0:
            raise ValidationError(path, "unsupportable-action certificate names a zero-mass action")
        if not is_empty(opt_belief_polytope(game, choice)):
            raise ValidationError(path, "named action is supportable after all")
    elif violation.residual >= 0:
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
        witness = Outcome(_integer_table(rows, path, "witnesses.outcome"))
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


_NOT_A_TIE_BREAK = "menu rule row is not a tie-break over its menu"


def _rederive_menu_rule(witnesses, path, marginal, menus) -> MenuRule:
    """One tie-break row for each menu of tau, with no negative entry and no
    mass outside its menu; weighted by the menu masses, the rows add up to
    the target marginal (the core split the menu rule claims). The rows are
    checked as integers over one common denominator, in entry order, and
    returned as read, the rows of a ``MenuRule``."""
    entries = _require(witnesses, "menu_rule", path, "witnesses")
    if not isinstance(entries, list):
        raise ParseError(path, "witnesses.menu_rule: expected an array")
    target_scale, targets = marginal.integer_probs
    w_scale, masses = menus
    n_actions = len(targets)
    rule: MenuRule = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "menu" not in entry or "probs" not in entry:
            raise ValidationError(path, "menu rule entries need menu and probs fields")
        items = entry["menu"]
        if not isinstance(items, list) or not all(_is_index(a, n_actions) for a in items):
            raise ValidationError(path, "menu rule names a menu of no valid actions")
        menu = frozenset(items)
        if menu not in masses:
            raise ValidationError(path, "menu rule names a menu tau never produces")
        if menu in rule:
            raise ValidationError(path, "menu rule names a menu twice")
        row = _integer_row(entry["probs"], path, f"witnesses.menu_rule[{i}].probs")
        if len(row[1]) != n_actions:
            raise ValidationError(path, _NOT_A_TIE_BREAK)
        rule[menu] = row
    scale, rows = common_scale(list(rule.values()))
    for menu, row in zip(rule, rows):
        if sum(row) != scale or any(x < 0 or (x and a not in menu) for a, x in enumerate(row)):
            raise ValidationError(path, _NOT_A_TIE_BREAK)
    if len(rule) != len(masses):
        raise ValidationError(path, "menu rule leaves out a menu tau produces")
    # Each action's mass is sum_m (w_m / w_scale) * (row_m[a] / scale), and
    # its target is target / target_scale.
    w_ints = [masses[m] for m in rule]
    denominator = w_scale * scale
    for target, column in zip(targets, zip(*rows)):
        mass = sum(map(mul, w_ints, column))
        if mass * target_scale != target * denominator:
            raise ValidationError(path, "menu rule rows do not split the menus into the marginal")
    return rule


def _rebuild_implement(doc: dict, path: str) -> Report:
    inputs, verdict = doc["inputs"], doc["verdict"]
    game = parse_game(inputs, path)
    marginal = _parse_marginal(inputs, path, game.n_actions)
    tau = parse_tau(_require(inputs, "tau", path, "inputs"), path)
    # The dimension check inside is what the outcome check below cannot see:
    # best responses read only the prior's states of a belief.
    if not _domain(path, is_bayes_plausible, tau, game.integer_prior):
        raise ValidationError(path, "tau does not average to the prior")
    menus = menu_measure(tau, game)
    if verdict == "infeasible":
        infeasible = _rederive_overfull_subset(doc, path, game, marginal, menus)
        return implement_report(game, marginal, tau, infeasible=infeasible)
    if verdict != "implemented":
        raise ValidationError(path, f"unknown verdict {verdict!r}")
    witnesses = _section(doc, "witnesses", path)
    rows = _require(witnesses, "decision_rule", path, "witnesses")
    rule = DecisionRule(_integer_table(rows, path, "witnesses.decision_rule"))
    scale, table = rule.integer_rows
    if len(table) != tau.size or any(
        len(row) != game.n_actions or sum(row) != scale or any(x < 0 for x in row)
        for row in table
    ):
        raise ValidationError(path, "decision rule needs one distribution per posterior")
    # With tau and every rule row a distribution, the induced outcome is one
    # too; what remains to check is its marginals and obedience. The
    # outcome reads the rule's integers checked here.
    outcome = outcome_from_tau(tau, rule)
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
        Outcome(_integer_table(node, path, f"witnesses.stage_witnesses[{i}]"))
        for i, node in enumerate(nodes)
    )
    for i, (stage, game) in enumerate(zip(stages, ring.stages)):
        table = stage.integer_probs[1]
        if len(table) != game.n_actions or any(len(r) != game.n_states for r in table):
            raise ValidationError(path, f"stage witness {i} does not fit the ring")
    # A stage witness with a negative entry is refused before chaining, so
    # the joint has none; its state marginal is player 1's pair marginal's.
    joint = _domain(path, construct_ring_outcome, stages)
    prior = ring.stages[0].integer_prior
    if not check_state_marginal(ring_pair_marginal(joint, 0), prior):
        raise ValidationError(path, "joint outcome is no distribution with the ring's prior")
    if not check_ring_obedience(joint, ring):
        raise ValidationError(path, "joint outcome is not obedient for every player")
    for i, marginal in enumerate(profile.marginals):
        if reduced_row(ring_player_marginal(joint, i)) != marginal.integer_probs:
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
    doc, text = _read_document(path)
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
    # JSON writes a boolean only as the bare literal true or false, so a
    # text without either holds none.
    if ("true" in text or "false" in text) and _holds_boolean(doc):
        raise ValidationError(path, "report holds a JSON boolean, which no builder writes")
    return doc
