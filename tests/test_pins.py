"""Every row of ``pins.json`` keeps its exit code and report bytes, and its
report loads; ``python -O tests/pins.py`` runs the same rows."""

from __future__ import annotations

import pytest

from pins import PINS, run_pin


@pytest.mark.parametrize("row", PINS.values(), ids=list(PINS))
def test_pin(row, tmp_path):
    run_pin(row, tmp_path)
