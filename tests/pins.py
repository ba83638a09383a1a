"""The pinned report bytes: run each row of ``pins.json`` through the CLI.

A row names a pin, gives the command's ``argv`` and, for a command that
reads an instance file, the ``instance``: either the instance document
itself or the argv of an ``mbce random`` command that writes it. The
report the command writes with ``--out`` must have the row's ``exit`` code
and ``sha256``, and it must load through ``load_report``. A pin is spec,
not tuning: it changes only on purpose.

``test_pins.py`` runs every row as a test of its own, and CI runs tier-1
under ``python -O``. This module holds no ``assert`` (``test_optimized_mode.py``
checks that), so ``-O`` changes nothing in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from mbce.cli import main
from mbce.io import load_report

PINS_FILE = Path(__file__).with_name("pins.json")


class PinMismatch(Exception):
    """A command exited with another code or wrote other bytes than its pin."""


def load_pins() -> dict[str, dict]:
    """The rows of ``pins.json`` by name, in file order."""
    rows = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    pins = {row["name"]: row for row in rows}
    if len(pins) != len(rows):
        raise ValueError(f"{PINS_FILE.name}: a pin name is used twice")
    return pins


PINS = load_pins()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``mbce.cli.main(argv)`` in this process, with what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_pin(row: dict, workdir: Path) -> Path:
    """Run one row in ``workdir`` and return the path of the checked report."""
    name = row["name"]
    argv = list(row["argv"])
    instance = row.get("instance")
    if instance is not None:
        path = workdir / f"{name}-instance.json"
        if isinstance(instance, list):
            code, err = _run_cli([*instance, "--out", str(path)])
            if code != 0:
                raise PinMismatch(f"{' '.join(instance)} exited {code}: {err.strip()}")
        else:
            path.write_text(json.dumps(instance), encoding="utf-8")
        argv.append(str(path))
    report = workdir / f"{name}.json"
    code, err = _run_cli([*argv, "--out", str(report)])
    if code != row["exit"]:
        raise PinMismatch(f"exit {code}, pinned {row['exit']}: {err.strip()}")
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    if digest != row["sha256"]:
        raise PinMismatch(f"sha256 {digest}, pinned {row['sha256']}")
    load_report(str(report))
    return report
