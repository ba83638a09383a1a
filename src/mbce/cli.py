"""Command-line front end.

Exit codes: 0 the check passed (consistent / implemented / verify agreed),
2 a well-posed instance got a negative verdict, 3 the input was unusable
(command-line usage errors included), 4 an internal disagreement: two routes
that agree on paper did not, or a solver invariant broke (a bug, by
construction).
Reports are byte-identical for identical inputs and seeds; timings go to
stderr so they never perturb the report document.

The grammar is written once, in ``COMMANDS``. A plain command line is read
straight off that table: a command name, then only that command's options
spelled in full, each value option followed by a value that does not start
with ``-``, and its positional, which does not start with ``-`` either.
argparse's parser, built from the same table, parses every other line: help
(``-h``), an abbreviated option (``--ou``), ``--opt=value``, ``--``, a value
or positional that starts with ``-`` (``--n -2``), and every usage error; it
prints and exits as it always has.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time
from typing import NamedTuple

from .applications import (
    auxiliary_single_agent,
    check_ring,
    construct_ring_outcome,
    profile_count,
)
from .consistency import check_bce_consistent
from .errors import ImplementationInfeasible, InternalDisagreement, MbceError, ValidationError
from .game import ActionMarginal, make_marginal, validate_marginal
from .generators import XorShift64, check_generator_inputs, random_game, random_marginal
from .implementation import (
    implementing_rule,
    measure_of,
    menu_rule_from_core,
    outcome_from_tau,
    posterior_menus,
)
from .io import (
    SCHEMA_VERSION,
    Report,
    canonical_json,
    consistency_report,
    game_json,
    implement_report,
    load_document,
    load_game,
    parse_tau,
    report_string,
    ring_report,
    vector_json,
    verify_report,
    write_text,
)


def cmd_check(game, marginal, command="check", first_order=None) -> tuple[Report, int]:
    """The ``check``, ``oracle`` and ``public`` commands: one decision, one
    report shape, labelled with the command that asked for it. For
    ``public``, ``game`` is the auxiliary game of ``first_order``."""
    verdict = check_bce_consistent(game, marginal)
    report = consistency_report(command, game, marginal, verdict, first_order)
    return report, 0 if verdict.consistent else 2


def cmd_implement(game, marginal, tau) -> tuple[Report, int]:
    """Steer tau into the marginal; the posteriors' menus are computed once
    and feed both the Gale flow and the menu rule."""
    menus = posterior_menus(tau, game)
    try:
        rule = implementing_rule(game, marginal, tau, menus)
    except ImplementationInfeasible as err:
        return implement_report(game, marginal, tau, infeasible=err), 2
    menu_rule = menu_rule_from_core(measure_of(tau, menus), marginal)
    outcome = outcome_from_tau(tau, rule)
    return implement_report(game, marginal, tau, rule=rule, menu_rule=menu_rule, outcome=outcome), 0


def cmd_ring(ring, profile) -> tuple[Report, int]:
    """Stage by stage; a consistent ring's report carries the joint chained
    from the stage witnesses. Each pair marginal of that joint is an
    embedded stage witness, so it is obedient by construction; loading the
    report checks it again."""
    verdict = check_ring(ring, profile)
    if not verdict.consistent:
        return ring_report(ring, profile, verdict), 2
    joint = construct_ring_outcome(verdict.stage_witnesses)
    return ring_report(ring, profile, verdict, joint), 0


def cmd_public(fo, marginal) -> tuple[Report, int]:
    """``check`` on the auxiliary game of a first-order game."""
    return cmd_check(auxiliary_single_agent(fo), marginal, "public", fo)


def cmd_verify(n, seed, max_states, max_actions) -> tuple[Report, int]:
    """Seeded head-to-head of the belief-space decomposition against the
    oracle LP, the two independent routes to the same decision."""
    report = verify_report(n, seed, max_states, max_actions)
    return report, 4 if report.details["disagreements"] else 0


def cmd_random(seed, max_states, max_actions) -> dict:
    """Reproducible instance file: a game plus a target marginal."""
    check_generator_inputs(seed=seed, max_states=max_states, max_actions=max_actions)
    rng = XorShift64(seed)
    game = random_game(rng, max_states=max_states, max_actions=max_actions)
    nu = random_marginal(rng, game.n_actions)
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(game_json(game))
    doc["marginal"] = vector_json(nu.integer_probs)
    doc["generator"] = {
        "seed": seed,
        "max_states": max_states,
        "max_actions": max_actions,
    }
    return doc


def _parse_marginal_flag(text: str) -> ActionMarginal:
    try:
        return make_marginal([part.strip() for part in text.split(",")])
    except (TypeError, ValueError) as err:
        raise ValidationError("--marginal", str(err))


def _resolve_marginal(args, doc, n_actions) -> ActionMarginal:
    if getattr(args, "marginal", None) is not None:
        marginal = _parse_marginal_flag(args.marginal)
    elif doc.marginal is not None:
        marginal = doc.marginal
    else:
        raise ValidationError(
            doc.path, 'no target marginal: add a "marginal" field or pass --marginal'
        )
    validate_marginal(marginal, n_actions)
    return marginal


def _resolve_tau(args, doc):
    if getattr(args, "tau", None) is not None:
        if not args.tau:
            raise ValidationError("--tau", "names no file: the value is empty")
        tau_doc = load_document(args.tau)
        node = tau_doc.get("tau", tau_doc)
        return parse_tau(node, args.tau, keep=doc.keep)
    if doc.tau is not None:
        return doc.tau
    raise ValidationError(
        doc.path, 'no posterior distribution: add a "tau" section or pass --tau FILE'
    )


def _unwritable(out: str) -> OSError | None:
    """Why ``out`` cannot take the report, checked before any work starts
    and creating nothing: it is a directory or not writable, or it does not
    exist and its directory is missing or not writable, or it is empty. The
    write itself can still fail, as a race or a full disk makes it."""
    if not out:
        code = errno.ENOENT
    elif os.path.isdir(out):
        code = errno.EISDIR
    elif os.path.exists(out):
        code = 0 if os.access(out, os.W_OK) else errno.EACCES
    else:
        parent = os.path.dirname(out) or os.curdir
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    return OSError(code, os.strerror(code), out) if code else None


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _require_section(doc, attr, description):
    value = getattr(doc, attr)
    if value is None:
        raise ValidationError(doc.path, f"file has no {description}")
    return value


def _run(args) -> tuple[str, int]:
    if args.command in ("check", "oracle"):
        doc = load_game(args.file, drop_null_states=args.drop_null_states)
        game = _require_section(doc, "game", "game section")
        marginal = _resolve_marginal(args, doc, game.n_actions)
        report, code = cmd_check(game, marginal, args.command)
    elif args.command == "public":
        doc = load_game(args.file)
        first_order = _require_section(doc, "first_order", "first_order section")
        # The auxiliary game, which cmd_public builds, has one action per
        # profile: the marginal is checked against their count.
        n_profiles = profile_count([player.n_actions for player in first_order.players])
        marginal = _resolve_marginal(args, doc, n_profiles)
        report, code = cmd_public(first_order, marginal)
    elif args.command == "implement":
        doc = load_game(args.file, drop_null_states=args.drop_null_states)
        game = _require_section(doc, "game", "game section")
        marginal = _resolve_marginal(args, doc, game.n_actions)
        tau = _resolve_tau(args, doc)
        report, code = cmd_implement(game, marginal, tau)
    elif args.command == "ring":
        doc = load_game(args.file)
        ring = _require_section(doc, "ring", "ring section")
        profile = _require_section(doc, "profile", '"marginals" list')
        report, code = cmd_ring(ring, profile)
    elif args.command == "verify":
        report, code = cmd_verify(args.n, args.seed, args.max_states, args.max_actions)
    elif args.command == "random":
        return canonical_json(cmd_random(args.seed, args.max_states, args.max_actions)), 0
    else:  # pragma: no cover - parse_command_line admits only COMMANDS
        raise ValueError(args.command)
    return report_string(report), code


VALUE, INT, FLAG = "value", "int", "flag"


class Option(NamedTuple):
    """A long option of a command: ``kind`` is ``VALUE`` (a string), ``INT``
    (a string read by ``int()``, as argparse's ``type=int`` reads it) or
    ``FLAG`` (no value; present is True, as argparse's ``store_true``)."""

    name: str
    kind: str = VALUE
    default: object = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Command(NamedTuple):
    """A command's words: its positional (a name and its help, or None) and
    its long options, by name in the order its help lists them."""

    help: str
    positional: tuple[str, str] | None
    options: dict[str, Option]


def _command(help_text, positional, *options) -> Command:
    return Command(help_text, positional, {option.name: option for option in options})


_INSTANCE = ("file", "instance JSON file")
_MARGINAL = Option("--marginal", help='target marginal, e.g. "1/2,1/2"')
_TAU = Option("--tau", help="JSON file holding the posterior distribution")
_DROP_NULL_STATES = Option(
    "--drop-null-states",
    FLAG,
    False,
    help="remove zero-prior states (and matching utility columns and tau coordinates) on load",
)
_OUT = Option("--out", help="write the report here instead of stdout")
_MAX_STATES = Option("--max-states", INT, 4)
_MAX_ACTIONS = Option("--max-actions", INT, 4)

# The command line's grammar, written once: ``build_parser`` builds argparse's
# parser from it, and ``parse_command_line`` reads a plain line off it.
COMMANDS: dict[str, Command] = {
    "check": _command(
        "decide consistency by the oracle LP; certify a rejection",
        _INSTANCE,
        _MARGINAL,
        _DROP_NULL_STATES,
        _OUT,
    ),
    "oracle": _command(
        "the same decision and report as check, named oracle",
        _INSTANCE,
        _MARGINAL,
        _DROP_NULL_STATES,
        _OUT,
    ),
    "implement": _command(
        "build an outcome from posteriors", _INSTANCE, _MARGINAL, _TAU, _DROP_NULL_STATES, _OUT
    ),
    "ring": _command(
        "stage-by-stage ring-network check",
        ("file", "instance JSON file with ring and marginals"),
        _OUT,
    ),
    "public": _command(
        "public-signal check for first-order games",
        ("file", "instance JSON file with a first_order section"),
        Option("--marginal", help="profile marginal, indexed like the report's profiles list"),
        _OUT,
    ),
    "verify": _command(
        "random cross-check of the belief-space route against the oracle LP",
        None,
        Option("--n", INT, 500),
        Option("--seed", INT, 7),
        _MAX_STATES,
        _MAX_ACTIONS,
        _OUT,
    ),
    "random": _command(
        "emit a reproducible instance file",
        None,
        Option("--seed", INT, required=True),
        _MAX_STATES,
        _MAX_ACTIONS,
        Option("--out", help="write the instance here instead of stdout"),
    ),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 3, the code for unusable input: argparse's own 2 is
    this CLI's negative verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser for ``COMMANDS``, built once per process and shared
    by every caller, which must not modify it: building it costs some thirty
    times as much as parsing one command line."""
    parser = _ArgumentParser(
        prog="mbce",
        description="Exact checks for which action distributions information design can reach.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        if command.positional is not None:
            positional, help_text = command.positional
            command_parser.add_argument(positional, help=help_text)
        for option in command.options.values():
            if option.kind == FLAG:
                command_parser.add_argument(option.name, action="store_true", help=option.help)
                continue
            command_parser.add_argument(
                option.name,
                type=int if option.kind == INT else None,
                default=option.default,
                required=option.required,
                help=option.help,
            )
    return parser


def _read_plain_line(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a plain command line, read off ``COMMANDS``, or None
    if the line is not plain. A plain line names a command, then holds only
    that command's options spelled in full, each value option followed by a
    value that does not start with ``-``, and its positional, which does not
    start with ``-`` either; it gives every positional and required option,
    and each int value reads as an int. A repeated option keeps its last
    value, as in argparse."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {"command": argv[0]}
    for option in command.options.values():
        values[option.dest] = option.default
    positional = command.positional[0] if command.positional is not None else None
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if positional is None or positional in values:
                return None
            values[positional] = word
            continue
        option = command.options.get(word)
        if option is None:
            return None
        if option.kind == FLAG:
            values[option.dest] = True
            continue
        value = next(words, "-")  # a missing value is not plain either
        if value.startswith("-"):
            return None
        if option.kind == INT:
            try:
                value = int(value)
            except ValueError:
                return None
        values[option.dest] = value
    if positional is not None and positional not in values:
        return None
    for option in command.options.values():
        if option.required and values[option.dest] is None:
            return None
    return argparse.Namespace(**values)


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. A plain line (see
    ``_read_plain_line``) is read off ``COMMANDS`` without argparse; argparse
    parses every other line, and so prints every help text and usage error
    and exits as it always has."""
    args = _read_plain_line(argv)
    return args if args is not None else build_parser().parse_args(argv)


def _note(line: str) -> None:
    """Print one of ``main``'s own lines to stderr. A stderr that cannot take
    it, such as a pipe whose reader has gone, loses the line and leaves the
    exit code the command earned."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def main(argv=None) -> int:
    args = parse_command_line(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    problem = args.out is not None and _unwritable(args.out)
    if problem:
        _note(f"error: cannot write the output: {problem}")
        return 3
    try:
        text, code = _run(args)
    except MbceError as err:
        _note(f"error: {err}")
        return 3
    except InternalDisagreement as err:
        _note(f"internal disagreement: {err}")
        return 4
    try:
        _emit(text, args.out)
    except OSError as err:
        _note(f"error: cannot write the output: {err}")
        return 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _note(f"{args.command}: {elapsed_ms:.1f} ms")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
