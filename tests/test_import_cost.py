"""``import shortloc`` loads the engine and generates no code.

Every frozen record, the claim suite's included, is built by
``_record.record``, not by ``dataclasses``, which generates and compiles
methods for every class on every import.  The claim suite (``verify``)
loads on the first read of ``CLAIMS``, ``run_suite`` or
``shortloc.verify``, and the CLI loads it only for ``verify-paper``.  Each
check runs in a fresh interpreter, where ``sys.modules`` holds only what
the import itself loaded.
"""

import ast
import os
import subprocess
import sys

import shortloc

SRC = os.path.dirname(shortloc.__file__)

#: The modules ``bench/tracer.py`` reads from ``sys.modules`` to wrap their functions.
TRACED = ("linalg", "algebra", "modules", "homology", "kronecker", "numerics", "explorer",
          "presets")


def fresh(code: str) -> str:
    """The stdout of ``code``, run in a new interpreter that finds this shortloc first."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return done.stdout


def loaded(code: str, names) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    listed = f"print(' '.join(m for m in {list(names)!r} if m in sys.modules))"
    out = fresh(f"import sys\n{code}\n{listed}")
    return out.splitlines()[-1].split()


def test_import_loads_the_engine_without_verify_or_dataclasses():
    traced = [f"shortloc.{name}" for name in TRACED]
    assert loaded("import shortloc", ["shortloc.verify", "dataclasses", *traced]) == traced


def test_verify_names_resolve_on_first_use():
    out = fresh("import sys, shortloc\n"
                "claims, run = shortloc.CLAIMS, shortloc.run_suite\n"
                "star = {}\n"
                "exec('from shortloc import *', star)\n"
                "print(len(claims), star['CLAIMS'] is claims, star['run_suite'] is run,\n"
                "      shortloc.verify.run_suite is run, 'shortloc.verify' in sys.modules,\n"
                "      hasattr(shortloc, 'no_such_name'))")
    assert out.split() == ["14", "True", "True", "True", "True", "False"]


def test_star_import_keeps_every_public_name():
    names = fresh("import shortloc\nprint(' '.join(shortloc.__all__))").split()
    assert {"CLAIMS", "run_suite", "verify", "betti", "Field", "preset"} <= set(names)
    assert names == sorted(names) and not [n for n in names if n.startswith("_")]


def test_the_cli_loads_verify_only_for_verify_paper():
    run = "from shortloc import cli\ncli.main({})"
    assert loaded(run.format(["bseq", "--e", "2", "--a", "1", "--n", "5"]),
                  ["shortloc.verify", "dataclasses"]) == []
    assert loaded(run.format(["verify-paper", "--suite", "fast"]),
                  ["shortloc.verify", "dataclasses"]) == ["shortloc.verify"]


# -- lint: no module imports dataclasses ---------------------------------------

def dataclass_imports(source: str) -> list[int]:
    """The lines of ``source`` that import ``dataclasses`` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names
                      if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "dataclasses":
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_imports_dataclasses():
    problems, scanned = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                problems += [f"{name} (line {line})" for line in dataclass_imports(fh.read())]
            scanned += 1
    assert not problems
    assert scanned >= 12


def test_the_lint_sees_every_kind_of_import():
    source = ("import dataclasses\n"
              "import os, dataclasses as dc\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n"
              "    from dataclasses import replace\n")
    assert dataclass_imports(source) == [1, 2, 3, 5]
    assert not dataclass_imports("from ._record import record\nfrom .dataclasses import x\n"
                                 "import functools\n")
