"""Lint: a subspace is only an elimination's output, a Hom space only its flat rows,
and an engine-built module only its columns.

``Subspace`` has two origins, both of ``_echelon``: ``Subspace._span``, a
span's pivot rows, and ``Subspace.from_pivot_rows``, a kernel's pivot
form.  Nothing else in the package calls ``Subspace(...)``, so no subspace
is held by a dense basis.  Only ``kernel_subspace`` and ``_split``, which
re-indexes a pivot form it was given, call ``Subspace.from_pivot_rows``, so
there is one kernel routine, and only ``pivot_relations`` and
``shadow_rows`` call ``lead_multiples``, so a pivot row's scaling has one
reader besides the ladder's fused loop.  ``HomSpace`` is the record (source, target,
flat); its maps are laid out only by ``modules._flat_map``.  Only
``hom_dim`` and ``hom_decomposition_check`` solve M's presentation
(``presentation_equations``), and only ``dual_data``, ``hom_basis`` and
``find_isomorphism`` call ``hom_space``.  Only ``hom_space`` and
``presentation_equations`` build ``relation_equations``, so no Hom-complex
is built, and ``stable_hom_dim`` calls no ``hom_space``, ``dual_data`` or
``vector_images``: it composes no map.  Only ``verify_sigma_omega``
calls ``tilde``, so C11 (``hom_decomposition_check``) reads its modules'
integer Kronecker data and builds no typed representation.
``module_from_columns`` names no ``Matrix``.  A module has two forms, its matrices and its integer
columns: ``AModule`` defines no typed ``action_columns`` or
``_action_columns``.  ``Subspace.residue`` is the typed view of
``int_residue`` and reads no typed row (``sparse_rows``).  Only the
resolution walks, ``syzygy``, ``resolution`` and ``betti``, call
``projective_cover``, so no third walk appears.  Only ``_repeats``
compares pivot forms, so a repeated rung has one definition, and
``_kronecker_data`` reads no ``int_action_rows``: ann_N(J^2) is read off
the top lifts' images, never off every basis vector's.
"""

import ast
import os

import shortloc

SRC = os.path.dirname(shortloc.__file__)

#: The only functions that may call ``Subspace(...)``.
ORIGINS = {"Subspace._span", "Subspace.from_pivot_rows"}

#: The only functions that may call ``Subspace.from_pivot_rows``: the kernel
#: routine, and the split that re-indexes a cover kernel's pivot form.
PIVOT_FORM_ORIGINS = {"kernel_subspace", "_split"}

#: The only functions that may call ``lead_multiples``: the pivot form's
#: reader and the ladder's fused loop.
LEAD_READERS = {"pivot_relations", "shadow_rows"}

#: The only functions that may call ``projective_cover``: the resolution walks.
WALKS = {"syzygy", "resolution", "betti"}

#: The only functions that may call ``presentation_equations``: the Hom
#: dimension of a Loewy-3 source and C11's left side.
PRESENTATION_READERS = {"hom_dim", "hom_decomposition_check"}

#: The only functions that may call ``hom_space``: the dual side, the Hom
#: basis and the isomorphism search of a pair that J^2 does not kill.
HOM_SPACE_READERS = {"dual_data", "hom_basis", "find_isomorphism"}

#: The only functions that may call ``relation_equations``: the two Hom
#: systems, so no Hom-complex map d_j^* comes back.
RELATION_READERS = {"hom_space", "presentation_equations"}

#: What the stable Hom must not call: it is three Hom dimensions, not a span
#: of composites of Hom(M, A)'s basis with the cover.
COMPOSITE_ROUTE = ("hom_space", "dual_data", "vector_images")

#: The only function that may call ``tilde``: the reflection check, which
#: reflects a typed representation.
TILDE_READERS = {"verify_sigma_omega"}

#: The only function that may compare pivot forms: the repeated-rung test.
PIVOT_FORM_COMPARERS = {"_repeats"}

SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def calls_outside(source: str, callee: str, allowed: set[str]) -> list[str]:
    """Each call of ``callee(...)`` in ``source`` outside the scopes ``allowed``, as
    "scope (line n)"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and scope not in allowed:
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.append(f"{scope or '<module>'} (line {child.lineno})")
            visit(child, scope)
    visit(ast.parse(source), "")
    return found


def package_calls(callee: str, allowed: set[str]) -> list[str]:
    """Each call of ``callee(...)`` in the package outside ``allowed``: "file: scope (line n)"."""
    problems, scanned = [], 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found = calls_outside(fh.read(), callee, allowed)
            problems += [f"{name}: {call}" for call in found]
            scanned += 1
    assert scanned >= 12
    return problems


def test_only_the_two_origins_construct_a_subspace():
    assert not package_calls("Subspace", ORIGINS)


def test_the_origins_exist_and_call_the_constructor():
    with open(os.path.join(SRC, "linalg.py")) as fh:
        source = fh.read()
    tree = ast.parse(source)
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "Subspace")
    callers = {f"Subspace.{node.name}" for node in cls.body if isinstance(node, ast.FunctionDef)
               and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "Subspace"
                       for c in ast.walk(node))}
    assert callers == ORIGINS


def test_the_lint_sees_every_kind_of_call():
    source = ("from . import linalg\n"
              "class Subspace:\n"
              "    def _span(f):\n"
              "        return Subspace(f)\n"
              "    @staticmethod\n"
              "    def full(f):\n"
              "        return Subspace(f, [1])\n"
              "def g(f):\n"
              "    return linalg.Subspace(f)\n"
              "zero = Subspace(None)\n")
    assert calls_outside(source, "Subspace", ORIGINS) == [
        "Subspace.full (line 7)", "g (line 9)", "<module> (line 10)"]
    assert not calls_outside("x = Subspace.from_vectors(f, 2, [])\nSubspace._span(f, 2, {})\n",
                             "Subspace", ORIGINS)


def test_one_kernel_routine_and_one_reader_of_the_leads():
    for callee, callers in (("from_pivot_rows", PIVOT_FORM_ORIGINS),
                            ("lead_multiples", LEAD_READERS)):
        assert not package_calls(callee, callers)
        # Each caller calls it: no name on the list is left over.
        assert {call.split(": ")[1].split(" (")[0]
                for call in package_calls(callee, set())} == callers


def test_the_pivot_form_lints_see_an_extra_caller():
    source = ("from . import linalg\n"
              "def kernel_subspace(m):\n"
              "    return Subspace.from_pivot_rows(m.field, 2, {}, [0, 1], range(2), None)\n"
              "def _transpose_syzygy(F1, piv, free, at):\n"
              "    return Syzygy(F1.algebra, linalg.Subspace.from_pivot_rows(F1.field, 4, piv,\n"
              "                                                              free, at, None))\n"
              "def pivot_relations(form):\n"
              "    return lead_multiples(form[0])\n"
              "def _kronecker_equations(form):\n"
              "    mult = linalg.lead_multiples(form[0])\n"
              "class Kernel:\n"
              "    def rows(self):\n"
              "        return lead_multiples(self.piv)\n")
    assert calls_outside(source, "from_pivot_rows", PIVOT_FORM_ORIGINS) == [
        "_transpose_syzygy (line 5)"]
    assert calls_outside(source, "lead_multiples", LEAD_READERS) == [
        "_kronecker_equations (line 10)", "Kernel.rows (line 13)"]


def test_only_the_resolution_walks_call_projective_cover():
    assert not package_calls("projective_cover", WALKS)
    with open(os.path.join(SRC, "homology.py")) as fh:
        tree = ast.parse(fh.read())
    callers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
               and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "projective_cover"
                       for c in ast.walk(node))}
    assert callers == WALKS


def test_the_cover_lint_sees_a_third_walk():
    source = ("from . import homology\n"
              "def syzygy(M):\n"
              "    return projective_cover(M).kernel\n"
              "def walk(M):\n"
              "    while True:\n"
              "        yield homology.projective_cover(M)\n"
              "class Ladder:\n"
              "    def step(self, M):\n"
              "        return projective_cover(M, cap=9)\n"
              "first = projective_cover(None)\n")
    assert calls_outside(source, "projective_cover", WALKS) == [
        "walk (line 6)", "Ladder.step (line 9)", "<module> (line 10)"]
    assert not calls_outside("def betti(M):\n    return projective_cover(M)\n",
                             "projective_cover", WALKS)


def test_only_their_readers_call_the_hom_systems():
    for callee, readers in (("presentation_equations", PRESENTATION_READERS),
                            ("hom_space", HOM_SPACE_READERS),
                            ("relation_equations", RELATION_READERS)):
        assert not package_calls(callee, readers)
        # Each reader calls it: no name on the list is left over.
        assert {call.split(": ")[1].split(" (")[0]
                for call in package_calls(callee, set())} == readers
    with open(os.path.join(SRC, "homology.py")) as fh:
        source = fh.read()
    assert not [callee for callee in COMPOSITE_ROUTE if calls_in(source, "stable_hom_dim", callee)]
    assert calls_in(source, "stable_hom_dim", "hom_dim")


def test_the_hom_system_lint_sees_a_third_reader():
    source = ("from . import modules\n"
              "def hom_dim(M, N):\n"
              "    return presentation_equations(M, N)\n"
              "def find_isomorphism(M, N):\n"
              "    return modules.presentation_equations(M, N), hom_space(M, N)\n"
              "class Search:\n"
              "    def step(self, M, N):\n"
              "        return hom_space(M, N)\n"
              "flat = modules.hom_space(None, None).flat\n")
    assert calls_outside(source, "presentation_equations", PRESENTATION_READERS) == [
        "find_isomorphism (line 5)"]
    assert calls_outside(source, "hom_space", HOM_SPACE_READERS) == [
        "Search.step (line 8)", "<module> (line 9)"]


def test_the_relation_lint_sees_a_third_reader():
    source = ("from . import modules\n"
              "def hom_space(M, N):\n"
              "    return relation_equations(N, [], 1)\n"
              "def _hom_complex_matrix(syz, N):\n"
              "    return modules.relation_equations(N, syz.space.int_rows(), 2)\n"
              "def stable_hom_dim(M, N):\n"
              "    return vector_images(dual_data(M).homs, modules.hom_space(M, N))\n")
    assert calls_outside(source, "relation_equations", RELATION_READERS) == [
        "_hom_complex_matrix (line 5)"]
    assert [callee for callee in COMPOSITE_ROUTE
            if calls_in(source, "stable_hom_dim", callee)] == list(COMPOSITE_ROUTE)


def test_only_the_reflection_check_builds_a_typed_representation():
    assert not package_calls("tilde", TILDE_READERS)
    assert {call.split(": ")[1].split(" (")[0]
            for call in package_calls("tilde", set())} == TILDE_READERS


def test_the_tilde_lint_sees_a_second_reader():
    source = ("from . import kronecker\n"
              "def verify_sigma_omega(alg, M):\n"
              "    return tilde(M)\n"
              "def hom_decomposition_check(M, N):\n"
              "    return kronecker_hom_dim(tilde(M), kronecker.tilde(N))\n"
              "class Reps:\n"
              "    def of(self, M):\n"
              "        return tilde(M)\n")
    assert calls_outside(source, "tilde", TILDE_READERS) == [
        "hom_decomposition_check (line 5)", "hom_decomposition_check (line 5)",
        "Reps.of (line 8)"]


def test_a_hom_space_is_its_flat_rows():
    with open(os.path.join(SRC, "modules.py")) as fh:
        tree = ast.parse(fh.read())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "HomSpace")
    fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["source", "target", "flat"]


def matrix_names(source: str, function: str) -> list[int]:
    """The lines at which the top-level ``function`` of ``source`` names ``Matrix``."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Name)
            and node.id == "Matrix"]


def test_module_from_columns_builds_no_matrix():
    # An engine-built module is held by its columns; its matrices are built
    # only when AModule.actions is read.
    with open(os.path.join(SRC, "modules.py")) as fh:
        assert not matrix_names(fh.read(), "module_from_columns")
    assert matrix_names("def f(alg, cols):\n    return Matrix.from_sparse_columns(alg, cols)\n",
                        "f") == [2]


def class_body(source: str, name: str) -> list:
    """The statements of the top-level class ``name`` in ``source``."""
    return next(node for node in ast.parse(source).body
                if isinstance(node, ast.ClassDef) and node.name == name).body


def defined_names(body: list) -> set[str]:
    """The names a class body defines: its methods and its assigned attributes."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def attributes_read(body: list, method: str) -> set[str]:
    """The attribute and plain names that ``method`` of a class body reads."""
    fn = next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == method)
    return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)} | \
        {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


def test_a_module_has_no_typed_columns():
    with open(os.path.join(SRC, "modules.py")) as fh:
        names = defined_names(class_body(fh.read(), "AModule"))
    assert {"actions", "int_columns", "_int_columns"} <= names
    assert not names & {"action_columns", "_action_columns"}
    assert defined_names(class_body("class AModule:\n    _action_columns = None\n"
                                    "    def action_columns(self):\n        pass\n",
                                    "AModule")) == {"_action_columns", "action_columns"}


def test_the_residue_reads_no_typed_row():
    with open(os.path.join(SRC, "linalg.py")) as fh:
        read = attributes_read(class_body(fh.read(), "Subspace"), "residue")
    assert "int_residue" in read and "sparse_rows" not in read
    body = class_body("class Subspace:\n    def residue(self, v):\n"
                      "        rows = self.sparse_rows()\n", "Subspace")
    assert "sparse_rows" in attributes_read(body, "residue")


def pivot_form_comparisons(source: str, allowed: set[str]) -> list[str]:
    """Each ``==`` or ``!=`` with a ``pivot_form()`` call in either side, outside the
    top-level functions ``allowed``, as "scope (line n)"."""
    found = []
    for node in ast.parse(source).body:
        scope = getattr(node, "name", "<module>")
        if scope in allowed:
            continue
        for cmp in ast.walk(node):
            if isinstance(cmp, ast.Compare) and \
                    any(isinstance(op, (ast.Eq, ast.NotEq)) for op in cmp.ops) and \
                    any(isinstance(call, ast.Call) and getattr(call.func, "attr", None) ==
                        "pivot_form" for side in (cmp.left, *cmp.comparators)
                        for call in ast.walk(side)):
                found.append(f"{scope} (line {cmp.lineno})")
    return found


def test_only_the_repeated_rung_test_compares_pivot_forms():
    compared = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                source = fh.read()
            assert not pivot_form_comparisons(source, PIVOT_FORM_COMPARERS), name
            compared += [f"{name}: {c}" for c in pivot_form_comparisons(source, set())]
    assert [c.split(" (")[0] for c in compared] == ["homology.py: _repeats"]


def test_the_pivot_form_lint_sees_a_second_comparison():
    source = ("def _repeats(X, k):\n"
              "    return k.pivot_form() == X.space.pivot_form()\n"
              "def same(a, b):\n"
              "    return a.pivot_form()[1:3] == b.pivot_form()[1:3]\n"
              "class Walk:\n"
              "    def step(self, a, b):\n"
              "        return b != a.space.pivot_form()\n"
              "near = len(x.pivot_form()[0]) < 2\n")
    assert pivot_form_comparisons(source, PIVOT_FORM_COMPARERS) == [
        "same (line 4)", "Walk (line 7)"]


def calls_in(source: str, function: str, callee: str) -> list[int]:
    """The lines at which the top-level ``function`` of ``source`` calls ``callee``."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee]


def test_ann_j2_reads_no_action_rows():
    with open(os.path.join(SRC, "modules.py")) as fh:
        source = fh.read()
    assert not calls_in(source, "_kronecker_data", "int_action_rows")
    assert calls_in(source, "_kronecker_data", "int_images")
    assert calls_in("def _kronecker_data(N):\n    rows = N.int_action_rows()[3:]\n",
                    "_kronecker_data", "int_action_rows") == [2]
