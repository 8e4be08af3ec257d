"""The built-in verification suite.

Each claim mechanically checks a documented property of the example
algebras: Betti sequences against the closed form, Gorenstein-style
predicates on the distinguished modules of the (a+1, a) family, solidity
and socle behaviour of radicals, complex shapes, hom decompositions, and
the dimension-vector law on seeded random sweeps.  The same registry
backs the ``verify-paper`` CLI command and the acceptance test module.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

from ._record import record
from .errors import InvariantViolation, ResourceCapExceeded, ShortlocError
from .explorer import classify_complex, mho_path, periodicity_detect
from .homology import (DEFAULT_CAP, _ext_sequence, a_dual, betti, ext_dim, ext_dims, is_gp,
                       is_inf_torsionfree, is_reflexive, is_semi_gp, is_torsionless,
                       left_regular_module, resolution, syzygy, syzygy_power)
from .kronecker import hom_decomposition_check, verify_sigma_omega
from .modules import (cyclic_submodule, dim_vector, direct_sum, end_dim, is_bipartite,
                      is_isomorphic, is_solid, m_alpha, mod_j_squared, radical_module,
                      random_module, semisimple_module, simple_module,
                      simple_multiplicity)
from .numerics import b_closed_form, b_sequence, main_lemma_witness
from .presets import preset


@record
class Context:
    seed: int = 0
    cap: int = DEFAULT_CAP
    fast: bool = False

    def sweep(self, full: int, fast: int) -> int:
        return fast if self.fast else full


@record
class ClaimResult:
    claim_id: str
    tag: str
    title: str
    ok: bool
    details: list[str]


class _Check:
    """Collects pass/fail details for one claim."""

    def __init__(self):
        self.ok = True
        self.details: list[str] = []

    def expect(self, cond: bool, label: str):
        self.details.append(("ok  " if cond else "FAIL") + " " + label)
        if not cond:
            self.ok = False

    def note(self, label: str):
        self.details.append("     " + label)


def _cyclic_x(alg):
    coords = [0] * alg.dim
    coords[1] = 1
    return cyclic_submodule(alg, coords)


def _claim_betti_sequences(ctx: Context, ck: _Check):
    seq = b_sequence(3, 1, 6)
    ck.expect(list(seq.values[1:]) == [1, 3, 8, 21, 55, 144, 377],
              "b(3,1) values 1,3,8,21,55,144,377")
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    even_index = [fib[2 * k] for k in range(8)]
    ck.expect(list(seq.values) == even_index, "b(3,1) equals even-index Fibonacci")
    nmax = 40
    checked = 0
    try:
        for e in range(1, 9):
            for a in range((e * e - 1) // 4 + 1):
                if 4 * a >= e * e:
                    continue
                for n in range(nmax + 1):
                    b_closed_form(e, a, n)
                    checked += 1
    except InvariantViolation as exc:
        ck.expect(False, f"closed form mismatch: {exc}")
    ck.expect(checked > 0, f"closed form = recursion on {checked} (e,a,n) triples")


def _claim_lambda_family(ctx: Context, ck: _Check):
    for c in (0, 1):
        alg = preset("lambda_c", c=c)
        a = alg.a
        M0, M1, Mq = (m_alpha(alg, t) for t in (0, 1, 2))
        ck.expect(periodicity_detect(M0, 4, seed=ctx.seed, cap=ctx.cap) == 1,
                  f"c={c}: M(0) has syzygy period 1")
        ck.expect(bool(is_gp(M0, 10, cap=ctx.cap)),
                  f"c={c}: M(0) Gorenstein-projective to bound 10")
        ck.expect(bool(is_semi_gp(Mq, 10, cap=ctx.cap)),
                  f"c={c}: M(q) semi-Gorenstein-projective to bound 10")
        ck.expect(not is_torsionless(Mq), f"c={c}: M(q) not torsionless")
        ck.expect(bool(is_inf_torsionfree(M1, 10, cap=ctx.cap)),
                  f"c={c}: M(1) infinity-torsionfree to bound 10")
        OM1 = syzygy(M1, cap=ctx.cap)
        ck.expect(simple_multiplicity(OM1) == 1,
                  f"c={c}: syzygy of M(1) has one simple summand")
        op = alg.opposite()
        coords = [0] * alg.dim
        coords[1], coords[2] = 1, -1
        m1A = cyclic_submodule(op, coords)
        ck.expect(tuple(dim_vector(m1A)) == (1, a),
                  f"c={c}: right module (x-y)A has dim (1,{a})")
        dual = a_dual(m1A)
        expected_dual = (2, a - 1)
        ck.expect(tuple(dim_vector(dual)) == expected_dual,
                  f"c={c}: dual of (x-y)A has dim {expected_dual}")
        ck.expect(is_isomorphic(dual, OM1, seed=ctx.seed),
                  f"c={c}: dual of (x-y)A is the syzygy of M(1)")
        ck.expect(is_torsionless(m1A) and not is_reflexive(m1A),
                  f"c={c}: (x-y)A torsionless but not reflexive")


def _claim_ex8_3(ctx: Context, ck: _Check):
    alg = preset("ex8_3")
    S = simple_module(alg)
    ck.expect(betti(S, 2, cap=ctx.cap).values == (1, 2, 2), "Betti numbers of S are 1,2,2")
    ck.expect(tuple(dim_vector(syzygy_power(S, 2, cap=ctx.cap))) == (2, 4),
              "second syzygy of S has dim (2,4)")


def _claim_ex9_3(ctx: Context, ck: _Check):
    alg = preset("ex9_3")
    Ax = _cyclic_x(alg)
    ck.expect(periodicity_detect(Ax, 2, seed=ctx.seed, cap=ctx.cap) == 1,
              "Ax has syzygy period 1")
    cls = classify_complex(Ax, 3, 3, seed=ctx.seed, cap=ctx.cap)
    ck.expect(cls.kind == "TypeI" and set(cls.ranks) == {1},
              f"complex through Ax is Type I with unit ranks (got {cls.kind} {cls.ranks})")
    rep = alg.validate()
    ck.expect(rep.left_socle_dim == 2 and rep.right_socle_dim == 2 and alg.a == 1,
              "both socles have dimension 2 while J^2 is a line")


def _claim_ex5_5(ctx: Context, ck: _Check):
    alg = preset("ex5_5")
    ck.expect(is_solid(radical_module(alg)), "left radical is solid")
    Jr = radical_module(alg.opposite())
    ck.expect(not is_solid(Jr), "right radical is not solid")
    ck.expect(simple_multiplicity(Jr) == 1, "right radical has one simple summand")


def _claim_ex3_4(ctx: Context, ck: _Check):
    alg = preset("ex3_4")
    J = radical_module(alg)
    ck.expect(end_dim(J) == 7, "End(J) has dimension 7")
    ck.expect(is_solid(J), "J is solid")


def _claim_self_injectivity(ctx: Context, ck: _Check):
    cases = [("qexterior", {}, True), ("L", {"e": 2}, False), ("lambda_c", {}, False),
             ("ex9_3", {}, False), ("ex5_3", {}, False)]
    for name, kw, expected in cases:
        alg = preset(name, **kw)
        selfinj = alg.is_self_injective()
        ext1 = ext_dim(simple_module(alg), left_regular_module(alg), 1, cap=ctx.cap)
        ck.expect(selfinj == expected and (ext1 == 0) == expected,
                  f"{alg.name}: self-injective={selfinj}, Ext^1(S,A)={ext1}")


def _claim_truncated_tensor(ctx: Context, ck: _Check):
    for (e, a) in [(2, 1), (3, 2), (3, 0), (3, 9)]:
        alg = preset("ex14_1", e=e, a=a)
        J = radical_module(alg)
        ck.expect(not is_solid(J), f"(e,a)=({e},{a}): radical is not solid")
        if a != e - 1:
            continue
        N = _cyclic_x(alg)
        ON = syzygy(N, cap=ctx.cap)
        ck.expect(is_isomorphic(ON, semisimple_module(alg, e), seed=ctx.seed),
                  f"(e,a)=({e},{a}): syzygy of N is S^{e}")
        S = simple_module(alg)
        OS = syzygy(S, cap=ctx.cap)
        ck.expect(simple_multiplicity(OS) == e - 1,
                  f"(e,a)=({e},{a}): syzygy of S has {e - 1} simple summands")
        ck.expect(is_isomorphic(OS, direct_sum(N, semisimple_module(alg, e - 1)),
                                seed=ctx.seed),
                  f"(e,a)=({e},{a}): syzygy of S is N + S^{e - 1}")
        cls = classify_complex(N, 3, 2, seed=ctx.seed, cap=ctx.cap)
        ck.expect(cls.kind == "NotAcyclicExtendable",
                  f"(e,a)=({e},{a}): no acyclic complex through N (got {cls.kind})")


def _claim_conca_family(ctx: Context, ck: _Check):
    for (e, a) in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        alg = preset("ex15_1", e=e, a=a)
        Ax = _cyclic_x(alg)
        ck.expect(tuple(dim_vector(Ax)) == (1, a), f"(e,a)=({e},{a}): Ax has dim (1,{a})")
        ck.expect(is_reflexive(Ax), f"(e,a)=({e},{a}): Ax is reflexive")
        if a != e - 1:
            continue
        coords = [0] * alg.dim
        coords[1] = 1
        coords[1 + a] = 1
        My = cyclic_submodule(alg, coords)
        for label, M in [("Ax", Ax), ("A(x+y)", My)]:
            syz = [step.kernel for step in islice(resolution(M, cap=ctx.cap), 3)]
            ck.expect(is_isomorphic(syz[2], syz[0], seed=ctx.seed),
                      f"(e,a)=({e},{a}): third syzygy of {label} matches first")
        walk = mho_path(Ax, 2)
        ck.expect(walk.terminated_reason is None and
                  all(s.dim_vector == (1, a) for s in walk.steps),
                  f"(e,a)=({e},{a}): cosyzygy walk stays at dim (1,{a})")


_SWEEP_PRESETS = [("L", {"e": 2}), ("L", {"e": 3}), ("qexterior", {}),
                  ("lambda_c", {}), ("ex15_1", {"e": 3, "a": 2}), ("ex9_3", {})]


def _random_short_module(alg, seed: int):
    gens = 1 + seed % 2
    rels = seed % 4
    return mod_j_squared(random_module(alg, gens, rels, seed))


def _claim_main_lemma_sweep(ctx: Context, ck: _Check):
    count = ctx.sweep(200, 40)
    for name, kw in _SWEEP_PRESETS:
        alg = preset(name, **kw)
        recursion_hits = 0
        for k in range(count):
            M = _random_short_module(alg, ctx.seed * 100003 + k)
            if M.dim == 0:
                continue
            try:
                wit = main_lemma_witness(M, cap=ctx.cap)
            except InvariantViolation as exc:
                ck.expect(False, f"{alg.name}: witness failed at sample {k}: {exc}")
                return
            o1 = wit.omega_module
            o2 = syzygy(o1, cap=ctx.cap)
            if is_bipartite(o1) and is_bipartite(o2):
                t0, t1, t2 = M.top_dim(), o1.top_dim(), o2.top_dim()
                if t2 != alg.e * t1 - alg.a * t0:
                    ck.expect(False, f"{alg.name}: Betti recursion fails at sample {k}")
                    return
                recursion_hits += 1
        ck.expect(True, f"{alg.name}: {count} witnesses, "
                        f"{recursion_hits} recursion instances")


def _claim_hom_decomposition(ctx: Context, ck: _Check):
    count = ctx.sweep(50, 12)
    for e in (2, 3):
        alg = preset("L", e=e)
        oks = 0
        for k in range(count):
            M = _random_short_module(alg, ctx.seed * 7919 + 2 * k)
            N = _random_short_module(alg, ctx.seed * 7919 + 2 * k + 1)
            if M.dim == 0 or N.dim == 0:
                continue
            if not hom_decomposition_check(M, N):
                ck.expect(False, f"L({e}): hom decomposition fails at pair {k}")
                return
            oks += 1
        ck.expect(oks > 0, f"L({e}): hom decomposition on {oks} pairs")


def _claim_quantum_exterior_ext(ctx: Context, ck: _Check):
    alg = preset("qexterior")
    M1 = cyclic_submodule(alg, [0, 1, -1, 0])
    exts = ext_dims(M1, M1, 10, cap=ctx.cap)
    ck.expect(all(exts[i] == 0 for i in range(2, 11)),
              f"Ext^i(M,M)=0 for 2<=i<=10 (got {exts[2:]})")
    ck.expect(exts[1] >= 1, f"Ext^1(M,M)={exts[1]} is non-zero")
    for aval in (0, 4, 8):
        Ma = cyclic_submodule(alg, [0, 1, -aval, 0])
        ck.expect(ext_dim(M1, Ma, 1, cap=ctx.cap) == 0,
                  f"Ext^1(M, M_{aval}) = 0")


def _claim_reflection_and_betti_identity(ctx: Context, ck: _Check):
    alg = preset("qexterior")
    J = radical_module(alg)
    for label, M in [("J", J),
                     ("A(x-y)", cyclic_submodule(alg, [0, 1, -1, 0])),
                     ("A(x-2y)", cyclic_submodule(alg, [0, 1, -2, 0]))]:
        ck.expect(verify_sigma_omega(alg, M, seed=ctx.seed, cap=ctx.cap),
                  f"reflection matches syzygy on {label}")
    ts = betti(J, 6, cap=ctx.cap).values
    ck.expect(all(ts[i - 1] + ts[i + 1] == 2 * ts[i] for i in range(1, 6)),
              f"Betti identity t(i-1)+t(i+1)=2t(i) along {list(ts)}")


def _claim_constant_rank_instances(ctx: Context, ck: _Check):
    for c in (0, 1):
        alg = preset("lambda_c", c=c)
        a = alg.a
        for label, alpha in [("M(0)", 0), ("M(q)", 2)]:
            M = m_alpha(alg, alpha)
            t = M.top_dim()
            steps = list(islice(resolution(M, cap=ctx.cap), 7))
            exts = list(_ext_sequence(steps, M))
            ok = all(tuple(dim_vector(step.module)) == (t, a * t) for step in steps)
            ck.expect(ok, f"c={c}: dim of syzygies of {label} stay ({t},{a * t})")
            ck.expect(all(exts[i] >= 1 for i in range(1, 7)),
                      f"c={c}: Ext^i({label},{label}) non-zero for 1<=i<=6")


@record
class Claim:
    claim_id: str
    tag: str
    title: str
    fn: Callable[[Context, _Check], None]


CLAIMS: list[Claim] = [
    Claim("C01", "betti-closed-form",
          "Betti recursion values and the closed form agree", _claim_betti_sequences),
    Claim("C02", "lambda-family",
          "Distinguished modules of the (a+1,a) family behave as documented",
          _claim_lambda_family),
    Claim("C03", "ex8_3", "Equal consecutive Betti numbers over ex8_3", _claim_ex8_3),
    Claim("C04", "ex9_3", "Period-one Type I complex over ex9_3", _claim_ex9_3),
    Claim("C05", "ex5_5", "Left radical solid, right radical not", _claim_ex5_5),
    Claim("C06", "ex3_4", "Radical of the truncated polynomial algebra is solid",
          _claim_ex3_4),
    Claim("C07", "self-injectivity",
          "Self-injectivity matches vanishing of Ext^1(S, A)", _claim_self_injectivity),
    Claim("C08", "ex14_1", "Truncated tensor quotients admit no acyclic complexes",
          _claim_truncated_tensor),
    Claim("C09", "ex15_1", "Conca-generator algebras have reflexive local modules",
          _claim_conca_family),
    Claim("C10", "main-lemma-sweep",
          "Dimension-vector law on seeded random modules", _claim_main_lemma_sweep),
    Claim("C11", "hom-decomposition",
          "Hom decomposition along the Kronecker shadow", _claim_hom_decomposition),
    Claim("C12", "quantum-exterior-ext",
          "Higher self-extensions vanish for the length-2 module", _claim_quantum_exterior_ext),
    Claim("C13", "reflection",
          "Reflection functor matches the syzygy; Betti identity",
          _claim_reflection_and_betti_identity),
    Claim("C14", "constant-ranks",
          "Semi-Gorenstein modules keep constant dimension vectors and self-extensions",
          _claim_constant_rank_instances),
]


def run_claim(claim: Claim, ctx: Context) -> ClaimResult:
    ck = _Check()
    try:
        claim.fn(ctx, ck)
    except ResourceCapExceeded:
        raise  # a cap hit is not a false claim: the CLI exits 3 and names the cap
    except ShortlocError as exc:
        ck.expect(False, f"error: {type(exc).__name__}: {exc}")
    return ClaimResult(claim_id=claim.claim_id, tag=claim.tag, title=claim.title,
                       ok=ck.ok, details=ck.details)


def run_suite(suite: str = "all", seed: int = 0, cap: int = DEFAULT_CAP) -> list[ClaimResult]:
    ctx = Context(seed=seed, cap=cap, fast=(suite == "fast"))
    return [run_claim(claim, ctx) for claim in CLAIMS]

