"""Lint: every name a module of the package imports is used in it.

A name bound by ``import`` or ``from ... import`` at any level of a module
under ``src/shortloc`` (``__init__.py`` aside, whose imports are the
package's API) must be read somewhere in that module, as a name or as the
base of an attribute, so an import that a change leaves behind does not
linger.  ``from __future__`` imports bind no name and are skipped.
"""

import ast
import os

import shortloc

SRC = os.path.dirname(shortloc.__file__)


def unused_imports(source: str) -> list[str]:
    """Each imported name that ``source`` never reads, as "name (line n)"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_every_imported_name_is_used():
    problems, scanned = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                problems += [f"{name}: {ref}" for ref in unused_imports(fh.read())]
            scanned += 1
    assert not problems
    assert scanned >= 10


def test_the_lint_sees_every_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import compress, count\n"
              "from operator import attrgetter as getter\n"
              "from .linalg import kernel_basis\n"
              "def f(rows):\n"
              "    from math import gcd\n"
              "    return os.path.join(*rows), count(1)\n")
    assert unused_imports(source) == ["compress (line 3)", "getter (line 4)",
                                      "kernel_basis (line 5)", "gcd (line 7)"]
    assert not unused_imports("import re\nfrom math import lcm\nx = re.compile(lcm)\n")
