"""Per-layer spans and counters, recorded from outside the program.

:class:`Tracer` wraps public functions and methods of ``shortloc``'s
modules while it is installed.  Modules copy linear-algebra names with
``from .linalg import rref, ...``, so every module attribute that is the
original function is rebound, not only the defining one.  Nothing is
patched while the tracer is not installed, so untraced runs pay nothing.

A span's self time is its duration minus the time of the wrapped calls
made inside it, including the wrappers' own bookkeeping.  A call made
while a span of the same metric is open is not a span of its own: its
work and time count once, at the outermost span.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

#: Wrapped names per layer metric.  ``Class.name`` is a method.
LAYERS = {
    "linalg.apply": ["linalg:Matrix.apply"],
    "linalg.mul": ["linalg:Matrix.__mul__"],
    "linalg.elim": ["linalg:rref", "linalg:rank", "linalg:kernel_basis",
                    "linalg:kernel_subspace", "linalg:solve", "linalg:solve_matrix",
                    "linalg:Subspace.from_vectors"],
    "linalg.reduce": ["linalg:Subspace.reduce", "linalg:Subspace.contains",
                      "linalg:Subspace.coords"],
    "algebra.left_mult_matrix": ["algebra:ShortAlgebra.left_mult_matrix"],
    "modules.hom_space": ["modules:hom_space"],
    "modules.module_from_subspace": ["modules:module_from_subspace"],
    "modules.quotient": ["modules:quotient"],
    "modules.find_isomorphism": ["modules:find_isomorphism"],
    "homology.projective_cover": ["homology:projective_cover"],
    "homology.ext": ["homology:ext_dims", "homology:is_semi_gp"],
    "homology.dual": ["homology:dual_data", "homology:eval_map", "homology:transpose"],
    "kronecker": ["kronecker:*"],
    "numerics": ["numerics:*"],
    "explorer": ["explorer:*"],
    "presets.preset": ["presets:preset"],
}

#: Extra counters per layer, beyond calls and self time, with their units.
EXTRA = {
    "linalg.apply": [("cells", "count"), ("nnz_ratio", "ratio")],
    "linalg.mul": [("cells", "count")],
    "linalg.elim": [("cells", "count")],
    "algebra.left_mult_matrix": [("repeat_ratio", "ratio")],
    "modules.hom_space": [("unknowns", "count"), ("equations", "count")],
    "modules.module_from_subspace": [("dim", "count")],
    "homology.projective_cover": [("cover_dim", "count"), ("max_cover_dim", "count")],
}

FIELD_METRICS = ["field.q.busy_s", "field.fp.busy_s"]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        out += [(f"{layer}.{name}", unit) for name, unit in EXTRA.get(layer, [])]
    return out + [(name, "s") for name in FIELD_METRICS]


def _nnz(m) -> int:
    return sum(1 for row in m.data for x in row if x)


def _algebra_key(alg) -> tuple:
    return (alg.field, alg.e, alg.a, frozenset(alg.structure.items()))


class Tracer:
    """Installs wrappers into ``shortloc`` and accumulates layer statistics."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._open: set[str] = set()
        self._stack: list[list[float]] = []
        self._seen_mults: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- measuring -------------------------------------------------------

    def _measure(self, layer: str, args: tuple, result) -> None:
        st = self.stats[layer]
        if layer == "linalg.apply":
            m = args[0]
            st["cells"] += m.rows * m.cols
            st["nnz"] += _nnz(m)
        elif layer == "linalg.mul":
            a, b = args[0], args[1]
            st["cells"] += a.rows * a.cols + b.rows * b.cols
        elif layer == "linalg.elim":
            st["cells"] += _elim_cells(args)
        elif layer == "algebra.left_mult_matrix":
            key = (_algebra_key(args[0]), tuple(args[1]))
            if key in self._seen_mults:
                st["repeats"] += 1
            self._seen_mults.add(key)
        elif layer == "modules.hom_space":
            M, N = args[0], args[1]
            st["unknowns"] += M.dim * N.dim
            st["equations"] += M.algebra.e * M.dim * N.dim
        elif layer == "modules.module_from_subspace":
            st["dim"] += args[0].dim
        elif layer == "homology.projective_cover":
            dim = result.cover_map.source.dim
            st["cover_dim"] += dim
            st["max_cover_dim"] = max(st["max_cover_dim"], dim)

    def _wrap(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            if layer in self._open:
                return fn(*args, **kwargs)
            enter = _clock()
            frame = [0.0]
            self._open.add(layer)
            self._stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                self._stack.pop()
                self._open.discard(layer)
            st = self.stats[layer]
            st["calls"] += 1
            st["self_s"] += duration - frame[0]
            self._measure(layer, args, result)
            if self._stack:
                self._stack[-1][0] += _clock() - enter
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Rebind every copy of each traced function to its wrapper."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "shortloc" or name.startswith("shortloc.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, _, attr = target.partition(":")
                module = sys.modules[f"shortloc.{modname}"]
                if attr == "*":
                    for name, fn in inspect.getmembers(module, inspect.isfunction):
                        if fn.__module__ == module.__name__ and not name.startswith("_"):
                            self._rebind(mods, fn, self._wrap(layer, fn))
                elif "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(layer, raw.__func__))
                    else:
                        new = self._wrap(layer, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, new)
                else:
                    fn = getattr(module, attr)
                    self._rebind(mods, fn, self._wrap(layer, fn))

    def _rebind(self, mods, original, wrapper) -> None:
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------

    def metrics(self, field_busy: dict[str, float]) -> dict[str, dict]:
        """Every per-layer metric of :func:`metric_names`, as value and unit."""
        values = {}
        for layer in LAYERS:
            st = self.stats[layer]
            values[f"{layer}.calls"] = int(st["calls"])
            values[f"{layer}.self_s"] = st["self_s"]
            for name, _ in EXTRA.get(layer, []):
                values[f"{layer}.{name}"] = int(st.get(name, 0))
        apply_ = self.stats["linalg.apply"]
        values["linalg.apply.nnz_ratio"] = (apply_["nnz"] / apply_["cells"]
                                            if apply_["cells"] else 0.0)
        mult = self.stats["algebra.left_mult_matrix"]
        values["algebra.left_mult_matrix.repeat_ratio"] = (mult["repeats"] / mult["calls"]
                                                           if mult["calls"] else 0.0)
        values.update(field_busy)
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}

    def counts(self) -> dict[str, int]:
        """The exact counters (calls and work counts, not times)."""
        return {f"{layer}.{k}": int(v) for layer, st in sorted(self.stats.items())
                for k, v in sorted(st.items()) if k != "self_s"}


def _elim_cells(args: tuple) -> int:
    """Entries of the matrix an elimination routine starts from."""
    first = args[0]
    if hasattr(first, "rows") and hasattr(first, "data"):
        extra = 0
        if len(args) > 1:
            rhs = args[1]
            extra = rhs.cols if hasattr(rhs, "cols") else 1
        return first.rows * (first.cols + extra)
    # Subspace.from_vectors(field, ambient, vectors)
    _, ambient, vectors = args[:3]
    return len(vectors) * ambient if hasattr(vectors, "__len__") else 0
