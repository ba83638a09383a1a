"""Every row of ``pins.json`` keeps its exit code and report bytes, and its
report loads. CI runs these tests under ``python -O`` as well, which strips
no check of the program: ``test_optimized_mode.py`` keeps ``assert`` out."""

from __future__ import annotations

import pytest

from pins import PINS, run_pin


@pytest.mark.parametrize("row", PINS.values(), ids=list(PINS))
def test_pin(row, tmp_path):
    run_pin(row, tmp_path)
