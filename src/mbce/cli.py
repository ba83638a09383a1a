"""Command-line front end.

Exit codes: 0 the check passed (consistent / implemented / verify agreed),
2 a well-posed instance got a negative verdict, 3 the input was unusable
(command-line usage errors included), 4 an internal disagreement: two routes
that agree on paper did not, or a solver invariant broke (a bug, by
construction).
Reports are byte-identical for identical inputs and seeds; timings go to
stderr so they never perturb the report document.

A command line whose first word names a command is parsed once, by that
command's parser; the full parser parses only a line that ends in help,
usage or an error, and prints the messages it always has.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time

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
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(args.command)
    return report_string(report), code


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 3, the code for unusable input: argparse's own 2 is
    this CLI's negative verdict. ``commands`` maps each command name to its
    parser, on the top-level parser only."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller,
    which must not modify it: building it costs some thirty times as much
    as parsing one command line."""
    parser = _ArgumentParser(
        prog="mbce",
        description="Exact checks for which action distributions information design can reach.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def instance_parser(name, help_text, with_tau=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="instance JSON file")
        p.add_argument("--marginal", help='target marginal, e.g. "1/2,1/2"')
        if with_tau:
            p.add_argument("--tau", help="JSON file holding the posterior distribution")
        p.add_argument(
            "--drop-null-states",
            action="store_true",
            help="remove zero-prior states (and matching utility columns and tau coordinates)"
            " on load",
        )
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    instance_parser("check", "decide consistency by the oracle LP; certify a rejection")
    instance_parser("oracle", "the same decision and report as check, named oracle")
    instance_parser("implement", "build an outcome from posteriors", with_tau=True)

    ring_p = sub.add_parser("ring", help="stage-by-stage ring-network check")
    ring_p.add_argument("file", help="instance JSON file with ring and marginals")
    ring_p.add_argument("--out", help="write the report here instead of stdout")

    public_p = sub.add_parser("public", help="public-signal check for first-order games")
    public_p.add_argument("file", help="instance JSON file with a first_order section")
    public_p.add_argument("--marginal", help="profile marginal, indexed like the report's profiles list")
    public_p.add_argument("--out", help="write the report here instead of stdout")

    verify_p = sub.add_parser(
        "verify", help="random cross-check of the belief-space route against the oracle LP"
    )
    verify_p.add_argument("--n", type=int, default=500)
    verify_p.add_argument("--seed", type=int, default=7)
    verify_p.add_argument("--max-states", type=int, default=4)
    verify_p.add_argument("--max-actions", type=int, default=4)
    verify_p.add_argument("--out", help="write the report here instead of stdout")

    random_p = sub.add_parser("random", help="emit a reproducible instance file")
    random_p.add_argument("--seed", type=int, required=True)
    random_p.add_argument("--max-states", type=int, default=4)
    random_p.add_argument("--max-actions", type=int, default=4)
    random_p.add_argument("--out", help="write the instance here instead of stdout")

    return parser


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsing a line that starts with
    a command name once, by that command's parser. The full parser parses
    the lines that name no command or leave words over, and so prints every
    usage error and help text as it always has: a command's parser reached
    through it meets the same words and prints the same messages."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_command_line(sys.argv[1:] if argv is None else list(argv))
    started = time.perf_counter()
    problem = args.out is not None and _unwritable(args.out)
    if problem:
        print(f"error: cannot write the output: {problem}", file=sys.stderr)
        return 3
    try:
        text, code = _run(args)
    except MbceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except InternalDisagreement as err:
        print(f"internal disagreement: {err}", file=sys.stderr)
        return 4
    try:
        _emit(text, args.out)
    except OSError as err:
        print(f"error: cannot write the output: {err}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"{args.command}: {elapsed_ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
