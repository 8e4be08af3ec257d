"""Building a job's inputs, running it, and checking its answer.

``setup`` turns job specs into algebras and modules through the public
``shortloc`` API; ``execute`` runs one job and returns its answer as plain
data; ``check`` compares an answer with its oracle.  The oracles use only
Python integers and ``fractions.Fraction``, never the program's own linear
algebra, and they run after the timed loop.

Every call into the program goes through attributes of the ``sl`` package
object at call time, so that the tracer's rebinding of those names is
seen here too.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from jobs import reference_key


class Inputs:
    """The built inputs of one job: its module, and the job's other modules."""

    __slots__ = ("module", "target", "partner", "rebased")

    def __init__(self, module, target=None, partner=None, rebased=None):
        self.module = module
        self.target = target
        self.partner = partner
        self.rebased = rebased


def _triangular_inverse(rows: list[list[int]], lower: bool) -> list[list[int]]:
    """Inverse of a unit triangular integer matrix, by substitution."""
    n = len(rows)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        for i in order:
            span = range(i) if lower else range(i + 1, n)
            inv[i][col] -= sum(rows[i][k] * inv[k][col] for k in span)
    return inv


def _int_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class Builder:
    """Builds and shares algebras and modules for a list of jobs."""

    def __init__(self, sl):
        self.sl = sl
        self.algebras: dict[str, object] = {}
        self.modules: dict[str, object] = {}

    def algebra(self, job: dict):
        key = json.dumps([job["field"], job["alg"]], sort_keys=True)
        if key not in self.algebras:
            name, params = job["alg"]
            field = self.sl.Field(job["field"])
            alg = self.sl.preset(name, field, **params)
            # Fill the algebra's own caches here, not in the first job.
            alg.validate()
            alg.sections()
            alg.product_kernel()
            self.algebras[key] = alg
        return self.algebras[key]

    def module(self, job: dict, spec: dict):
        alg = self.algebra(job)
        key = json.dumps([job["field"], job["alg"], spec], sort_keys=True)
        if key not in self.modules:
            self.modules[key] = self._build(alg, spec)
        return self.modules[key]

    def _build(self, alg, spec: dict):
        sl = self.sl
        kind = spec["type"]
        if kind == "simple":
            return sl.simple_module(alg)
        if kind == "regular":
            return sl.left_regular_module(alg)
        if kind == "radical":
            return sl.radical_module(alg)
        if kind == "m_alpha":
            return sl.m_alpha(alg, spec["alpha"])
        if kind == "random":
            return sl.random_module(alg, spec["gens"], spec["rels"], spec["seed"])
        if kind == "random_mod_j2":
            return sl.mod_j_squared(sl.random_module(alg, spec["gens"], spec["rels"],
                                                     spec["seed"]))
        if kind == "cyclic":
            return sl.cyclic_submodule(alg, spec["coords"])
        if kind == "cyclic_x":
            coords = [0] * alg.dim
            coords[1] = 1
            return sl.cyclic_submodule(alg, coords)
        if kind == "syzygy_power":
            return sl.syzygy_power(self._build(alg, spec["of"]), spec["n"])
        raise ValueError(f"unknown module type {kind!r}")

    def rebased(self, M, rebase: dict):
        """M with its basis changed by g = P·L·U, on the leading d x d blocks."""
        sl = self.sl
        d = M.dim
        order = sorted(range(d), key=lambda i: rebase["order"][i])
        perm = [[int(order[i] == j) for j in range(d)] for i in range(d)]
        lower = [row[:d] for row in rebase["L"][:d]]
        upper = [row[:d] for row in rebase["U"][:d]]
        g = _int_product(perm, _int_product(lower, upper))
        g_inv = _int_product(_int_product(_triangular_inverse(upper, False),
                                          _triangular_inverse(lower, True)),
                             [list(col) for col in zip(*perm)])
        G = sl.Matrix.from_rows(M.field, g)
        G_inv = sl.Matrix.from_rows(M.field, g_inv)
        acts = [G * X * G_inv for X in M.actions]
        return sl.AModule(M.algebra, d, acts, check=False)

    def inputs(self, job: dict) -> Inputs:
        M = self.module(job, job["module"])
        target = self.module(job, job["target"]) if "target" in job else None
        partner = self.module(job, job["partner"]) if "partner" in job else None
        rebased = self.rebased(M, job["rebase"]) if "rebase" in job else None
        return Inputs(M, target, partner, rebased)


def setup(sl, jobs: list[dict]) -> dict[str, Inputs]:
    """Build every job's inputs; the result maps job id to :class:`Inputs`."""
    builder = Builder(sl)
    return {job["id"]: builder.inputs(job) for job in jobs}


def _fresh(sl, M):
    """A copy of M with empty caches, so no job reuses another's work on M."""
    if M is None:
        return None
    copy = sl.AModule(M.algebra, M.dim, M.actions, check=False)
    copy.free_rank = M.free_rank
    return copy


def _verdict(v) -> dict:
    return {"holds": v.holds, "bound": v.bound, "failed_at": v.failed_at}


def execute(sl, job: dict, inp: Inputs) -> dict:
    """Run one job and return its answer as plain data."""
    kind = job["kind"]
    M = _fresh(sl, inp.module)
    N = _fresh(sl, inp.target)
    if kind == "betti":
        return {"betti": list(sl.betti(M, job["n"]).values)}
    if kind == "sweep":
        return _sweep_job(sl, job, M, inp)
    if kind == "ext_dim":
        return {"ext": sl.ext_dim(M, N, job["i"])}
    if kind == "ext_dims":
        return {"ext": list(sl.ext_dims(M, N, job["imax"]))}
    if kind in ("is_gp", "is_semi_gp", "is_inf_torsionfree"):
        return _verdict(getattr(sl, kind)(M, job["bound"]))
    if kind in ("is_torsionless", "is_reflexive"):
        return {"value": bool(getattr(sl, kind)(M))}
    if kind == "transpose":
        tr = sl.transpose(M)
        return {"dim": tr.dim, "top": tr.top_dim()}
    if kind == "stable_hom_dim":
        return {"value": sl.stable_hom_dim(M, N)}
    if kind == "classify_complex":
        return sl.classify_complex(M, job["back"], job["fwd"]).as_dict()
    raise ValueError(f"unknown job kind {kind!r}")


def _sweep_job(sl, job: dict, M, inp: Inputs) -> dict:
    wit = sl.main_lemma_witness(M)
    o1 = wit.omega_module
    o2 = sl.syzygy(o1)
    recursion = None
    if sl.is_bipartite(o1) and sl.is_bipartite(o2):
        recursion = [M.top_dim(), o1.top_dim(), o2.top_dim()]
    hom_dec = None
    if inp.partner is not None:
        hom_dec = bool(sl.hom_decomposition_check(M, _fresh(sl, inp.partner)))
    iso = sl.find_isomorphism(M, _fresh(sl, inp.rebased), seed=job["iso_seed"])
    witness = None
    if iso.witness is not None:
        witness = [[str(x) for x in row] for row in iso.witness.matrix.data]
    return {"dim": M.dim, "dv": list(wit.dim), "omega_dv": list(wit.omega_dim), "w": wit.w,
            "recursion": recursion, "hom_dec": hom_dec, "iso_found": iso.found,
            "witness": witness}


# -- oracles -----------------------------------------------------------


def b_sequence(e: int, a: int, n: int) -> list[int]:
    """b_0..b_n of b_{-1} = 0, b_0 = 1, b_{k+1} = e b_k - a b_{k-1}."""
    prev, cur = 0, 1
    out = [cur]
    for _ in range(n):
        prev, cur = cur, e * cur - a * prev
        out.append(cur)
    return out


def _fractions(mat) -> list[list[Fraction]]:
    return [[Fraction(str(x)) for x in row] for row in mat.data]


def _mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def _nonsingular(rows: list[list[Fraction]]) -> bool:
    m = [list(r) for r in rows]
    n = len(m)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return False
        m[c], m[piv] = m[piv], m[c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return True


def _check_sweep(ans: dict, inp: Inputs) -> Optional[str]:
    e, a = inp.module.algebra.e, inp.module.algebra.a
    t, s = ans["dv"]
    w = ans["w"]
    if t + s != ans["dim"]:
        return f"dimension vector {ans['dv']} does not add up to {ans['dim']}"
    if w < 0 or ans["omega_dv"] != [e * t - s + w, a * t - w]:
        return f"main lemma fails: {ans['dv']} -> {ans['omega_dv']} with w={w}"
    if ans["recursion"] is not None:
        t0, t1, t2 = ans["recursion"]
        if t2 != e * t1 - a * t0:
            return f"Betti recursion fails on {ans['recursion']}"
    if ans["hom_dec"] is False:
        return "hom decomposition fails"
    if not ans["iso_found"] or ans["witness"] is None:
        return "planted isomorphism not found"
    W = [[Fraction(x) for x in row] for row in ans["witness"]]
    for X, Y in zip(inp.module.actions, inp.rebased.actions):
        if _mat_mul(W, _fractions(X)) != _mat_mul(_fractions(Y), W):
            return "isomorphism witness does not intertwine the actions"
    if not _nonsingular(W):
        return "isomorphism witness is singular"
    return None


def check(job: dict, answer: dict, inp: Inputs, refs: dict) -> Optional[str]:
    """None if the answer is right, otherwise what is wrong with it."""
    oracle = job.get("oracle")
    if job["kind"] == "sweep":
        return _check_sweep(answer, inp)
    if isinstance(oracle, dict) and "b_sequence" in oracle:
        e, a = oracle["b_sequence"]
        expected = {"betti": b_sequence(e, a, job["n"])}
    else:
        key = reference_key(job)
        if key not in refs:
            return "no reference value recorded"
        expected = refs[key]
    if answer != expected:
        return f"got {answer}, expected {expected}"
    return None


def check_fields_agree(jobs: list[dict], answers: dict[str, dict]) -> list[str]:
    """Ids of jobs whose answer differs from another field's answer to the same job."""
    first: dict[str, dict] = {}
    bad = []
    for job in jobs:
        if job["id"] not in answers:
            continue
        key = reference_key(job)
        ans = answers[job["id"]]
        if key in first and first[key] != ans:
            bad.append(job["id"])
        first.setdefault(key, ans)
    return bad
