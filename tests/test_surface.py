"""Guard against public surface that nothing uses.

Every public function, class and method defined in ``src/distdlog/*.py``
must be named somewhere in ``src/`` or ``bench/`` besides its own ``def``
or ``class`` line; a name that only the tests reach belongs in the tests.

The guard is lenient: a use is any whole-word occurrence of the name, so a
mention in a docstring or comment counts, and so does another definition
or attribute that shares the name. It finds names that appear nowhere
else, not every name that no code calls.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "distdlog"


def _public_definitions(path: Path):
    """(name, line number) of each public top-level def or class and of
    each public method of a top-level class."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        found = [node]
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, kinds)]
        for item in found:
            if not item.name.startswith("_"):
                yield item.name, item.lineno


def _unused_names() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    words = Counter(
        word for path in sources for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for name, lineno in _public_definitions(path):
            own = re.findall(r"\w+", lines[lineno - 1]).count(name)
            if words[name] == own:
                unused.append(f"{path.name}:{lineno} {name}")
    return unused


def test_every_public_name_is_used_outside_the_tests():
    assert _unused_names() == []
