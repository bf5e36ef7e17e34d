"""Every name a src/ module imports is used in it.

An import kept for another reader (perfbench wraps some functions under
the importing module's name) says so with "# noqa: F401" on a line of its
statement, as flake8 reads it, so `grep -rn "noqa: F401" src` finds every
one of them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latentprior"


def unused_imports(source: str) -> list[str]:
    """The names the source imports and never reads, unless marked noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or "noqa: F401" in "".join(lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_marked(path):
    assert unused_imports(path.read_text()) == []


def test_the_reader_sees_each_form_of_import():
    source = ("from __future__ import annotations\nimport math\n"
              "import numpy.linalg\nfrom . import errors\n"
              "from .formats import (read,  # noqa: F401\n    write)\n"
              "from .gaussian import (fit,\n    sample)\n"
              "import json as j\nj.dumps(numpy, fit)\n")
    assert unused_imports(source) == ["math (line 2)", "errors (line 4)",
                                      "sample (line 8)"]
