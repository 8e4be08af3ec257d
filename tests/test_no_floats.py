"""Lint: no floating point in the package source.

Every scalar is exact, so the source holds no float literal, no ``float(``
call, and no true division ``/`` outside the two functions that divide
exact values: ``Field.of`` (a fraction read into F_p) and
``Fp.__truediv__``.  Over Q the pivot scaling
in ``typed_values`` goes through ``Rational``, since int / int is a float.
"""

import ast
import os

import shortloc

SRC = os.path.dirname(shortloc.__file__)

DIVIDING_FUNCTIONS = {"linalg.Field.of", "linalg.Fp.__truediv__"}


class _FloatFinder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.scope = [module]
        self.functions: set[str] = set()
        self.problems: list[str] = []

    def _where(self, node) -> str:
        return f"{'.'.join(self.scope)} (line {node.lineno})"

    def _scoped(self, node):
        self.scope.append(node.name)
        self.functions.add(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Constant(self, node):
        if isinstance(node.value, float):
            self.problems.append(f"float literal {node.value!r} in {self._where(node)}")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.problems.append(f"float() call in {self._where(node)}")
        self.generic_visit(node)

    def _division(self, node):
        if isinstance(node.op, ast.Div) and ".".join(self.scope) not in DIVIDING_FUNCTIONS:
            self.problems.append(f"true division in {self._where(node)}")
        self.generic_visit(node)

    visit_BinOp = visit_AugAssign = _division


def scan(source: str, module: str) -> _FloatFinder:
    finder = _FloatFinder(module)
    finder.visit(ast.parse(source))
    return finder


def test_package_source_has_no_floats():
    problems, functions = [], set()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                finder = scan(fh.read(), name[:-3])
            problems += finder.problems
            functions |= finder.functions
    assert not problems
    assert DIVIDING_FUNCTIONS <= functions, "an allowed dividing function is gone"


def test_the_lint_sees_float_sources():
    pivot = "def _rref_rows(rows, lead):\n    rows[0] = [x / lead for x in rows[0]]\n"
    assert scan(pivot, "linalg").problems == ["true division in linalg._rref_rows (line 2)"]
    assert len(scan("x = 0.5\ny = float(2)\nx /= y\n", "m").problems) == 3
    assert not scan("class Fp:\n    def __truediv__(a, b):\n        return a / b\n",
                    "linalg").problems
