"""``python -O`` changes nothing in what the program does.

``-O`` drops every ``assert`` statement and makes ``__debug__`` false.
pytest rewrites the asserts of ``test_*.py`` and ``conftest.py`` into plain
raises, which ``-O`` keeps, but it rewrites nothing else. So no module of
the package, no demo and no helper module of the tests may hold an
``assert`` or read ``__debug__``. With these files free of both, a tier-1
run under ``python -O``, which is how CI runs it, is also the plain run.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The helpers are the test directory's modules that pytest does not rewrite.
HELPERS = sorted(
    path
    for path in (ROOT / "tests").glob("*.py")
    if not path.name.startswith("test_") and path.name != "conftest.py"
)
SCANNED = [
    *sorted((ROOT / "src" / "mbce").rglob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
    *HELPERS,
]


def optimized_away(path: Path) -> list[str]:
    """``file:line: what`` for each ``assert`` and ``__debug__`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
    name = path.relative_to(ROOT).as_posix()
    return [f"{name}:{line}: {what}" for line, what in sorted(found)]


def test_the_scan_covers_the_package_the_demos_and_the_helpers():
    names = {path.relative_to(ROOT).as_posix() for path in SCANNED}
    assert {"src/mbce/cli.py", "src/mbce/linprog.py", "src/mbce/io.py"} <= names
    assert {"tests/pins.py", "tests/references.py", "tests/instances.py"} <= names
    assert any(name.startswith("demos/") for name in names)


def test_no_assert_or_debug_outside_the_rewritten_tests():
    found = [line for path in SCANNED for line in optimized_away(path)]
    assert not found, "python -O would strip these checks:\n" + "\n".join(found)
