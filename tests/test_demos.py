"""Every script in ``demos/`` runs to completion and prints the same bytes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The sha256 of each demo's stdout, the same with and without ``python -O``.
STDOUT_SHA256 = {
    "check_and_certify": "210a271b73227ffbc97d9ae93f0764471705bd93ff296d229ebbaedf1b19c6e9",
    "implement_experiment": "293007426ff89adf8e57182f6181e535b962c06d66cfa68fecf67b0f9b853156",
    "multi_agent": "a0f34293e45fd1756648fc2bd02642baf91600c236405b4ba195bdf611c85131",
}


def test_demos_exist():
    assert DEMOS
    assert [d.stem for d in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, str(demo)], capture_output=True, env=env, timeout=120
        )
        assert done.returncode == 0, (flags, done.stderr.decode(errors="replace"))
        assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem], flags
