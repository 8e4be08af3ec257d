"""Orbit walking: syzygy paths, cosyzygy paths, periodicity, complex shapes.

A non-zero acyclic minimal complex of projective modules is determined by
its sequence of images; walking a module backwards (syzygies) and
forwards (cosyzygies of minimal left approximations, or periodic
continuation) produces a finite window of that sequence.  The window is
classified by its rank pattern: constant, or constant then strictly
increasing past an index v.  Finite windows are evidence, not
certification, except when periodicity closes the complex.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional

from ._record import record
from .errors import BadParams, InvariantViolation, LoewyTooLong, ResourceCapExceeded
from .homology import DEFAULT_CAP, dual_data, resolution
from .modules import AModule, dim_vector, find_isomorphism, is_bipartite, simple_multiplicity
from .numerics import defect


@record
class PathStep:
    """Invariants of one module along a walk."""

    index: int
    dim: int
    rank: int
    dim_vector: Optional[tuple[int, int]]
    bipartite: bool
    simple_mult: Optional[int]
    defect: Optional[int]
    loewy: int


@record
class PathRecord:
    """A walk log: per-step invariants plus the reason it stopped early."""

    direction: str
    steps: tuple[PathStep, ...]
    terminated_reason: Optional[str] = None

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(s.rank for s in self.steps)


def describe_step(M: AModule, index: int) -> PathStep:
    loewy = M.loewy_length()
    dv = None
    mult = None
    delta = None
    if loewy <= 2:
        dvv = dim_vector(M)
        dv = (dvv.t, dvv.s)
        mult = simple_multiplicity(M)
        if M.algebra.a == M.algebra.e - 1:
            delta = defect(M)
    return PathStep(index=index, dim=M.dim, rank=M.top_dim(), dim_vector=dv,
                    bipartite=is_bipartite(M), simple_mult=mult,
                    defect=delta, loewy=loewy)


def _syzygy_walk(M: AModule, n: int, cap: int) -> tuple[list[AModule], Optional[str]]:
    """M, Omega M, ..., Omega^n M read from one resolution.

    The walk stops after the first zero module ("projective_reached") or
    before the first syzygy whose cover exceeds the cap ("resource_cap").
    """
    mods, steps = [M], resolution(M, cap=cap)
    while len(mods) <= n and mods[-1].dim:
        try:
            mods.append(next(steps).kernel)
        except ResourceCapExceeded:
            return mods, "resource_cap"
    return mods, "projective_reached" if n and not mods[-1].dim else None


def _first_period(M: AModule, syzygies: Iterable[AModule], seed: int) -> Optional[int]:
    """Least p with the p-th of Omega^1 M, Omega^2 M, ... isomorphic to M, if found."""
    for p, cand in enumerate(syzygies, start=1):
        if cand.dim == M.dim and find_isomorphism(M, cand, seed=seed).found:
            return p
    return None


def omega_path(M: AModule, n: int, cap: int = DEFAULT_CAP) -> PathRecord:
    """Record the invariants of M, Omega M, ..., Omega^n M."""
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    mods, reason = _syzygy_walk(M, n, cap)
    steps = tuple(describe_step(mod, i) for i, mod in enumerate(mods))
    return PathRecord(direction="omega", steps=steps, terminated_reason=reason)


def mho_path(M: AModule, n: int) -> PathRecord:
    """Iterate the cosyzygy while the module stays torsionless and short.

    Each module's Hom(-, A) is solved once and serves both the torsionless
    check and the cosyzygy step.
    """
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    steps = [describe_step(M, 0)]
    cur = M
    reason = None
    for i in range(1, n + 1):
        if cur.loewy_length() > 2:
            reason = "loewy_too_long"
            break
        data = dual_data(cur)
        if not data.torsionless:
            reason = "not_torsionless"
            break
        if cur.dim == 0:
            reason = "projective_reached"
            break
        cur = data.approximation.cokernel
        steps.append(describe_step(cur, i))
        if cur.dim == 0:
            reason = "projective_reached"
            break
    return PathRecord(direction="mho", steps=tuple(steps), terminated_reason=reason)


def periodicity_detect(M: AModule, bound: int, seed: int = 0,
                       cap: int = DEFAULT_CAP) -> Optional[int]:
    """Least p <= bound with Omega^p M isomorphic to M, if any.

    The isomorphism test is the probabilistic search, so a period is
    certified but its absence is not.
    """
    if bound < 1:
        raise BadParams("bound must be at least 1")
    syzygies = (step.kernel for step in islice(resolution(M, cap=cap), bound))
    return _first_period(M, syzygies, seed)


@record
class ComplexClassification:
    """Shape of a finite window of a would-be acyclic minimal complex.

    ``ranks`` lists the tops of the images in complex order: the cosyzygy
    side first, the module at ``module_index``, then the syzygy side.
    Type I means constant ranks; Type II means constant up to ``v_index``
    then strictly increasing.  ``forward_verified`` records whether the
    forward direction was actually constructed (by periodicity or by a
    reflexivity-guarded cosyzygy chain).
    """

    kind: str
    ranks: tuple[int, ...]
    module_index: int
    v_index: Optional[int] = None
    defects: Optional[tuple[Optional[int], ...]] = None
    forward_verified: bool = True
    period: Optional[int] = None
    obstruction: Optional[str] = None


def _check_defect_monotonicity(steps: list[PathStep]):
    """Sign behaviour of the defect along consecutive syzygy steps.

    With a = e-1: defect 0 propagates with constant rank, or the rank and
    the defect jump together and the next module is not bipartite;
    positive defect forces strictly growing ranks and defects.
    """
    for cur, nxt in zip(steps, steps[1:]):
        if cur.defect is None or nxt.defect is None:
            continue
        if cur.defect == 0:
            ok = (nxt.rank == cur.rank and nxt.defect == 0) or \
                 (nxt.rank > cur.rank and nxt.defect > 0 and not nxt.bipartite)
        elif cur.defect > 0:
            ok = nxt.rank > cur.rank and nxt.defect > 0
        else:
            ok = True
        if not ok:
            raise InvariantViolation(
                f"defect trichotomy fails between ranks {cur.rank} and {nxt.rank}")


def classify_complex(M: AModule, back: int, fwd: int, seed: int = 0,
                     cap: int = DEFAULT_CAP) -> ComplexClassification:
    """Classify the window of a minimal acyclic complex through M.

    Walks syzygies ``back`` steps; extends forward ``fwd`` steps either by
    detected periodicity of the syzygy orbit or by cosyzygies along a
    reflexivity chain.  Self-injective algebras are reported as their own
    regime (there every module is an image in a complete resolution).
    """
    if back < 0 or fwd < 0:
        raise BadParams(f"back and fwd must be at least 0, got {back}, {fwd}")
    if M.loewy_length() > 2:
        raise LoewyTooLong("complex classification needs Loewy length <= 2")
    data = dual_data(M)  # Hom(M, A) serves the check and the first forward step
    if not data.torsionless:
        raise BadParams("complex classification needs a torsionless module")
    alg = M.algebra
    a_defects = alg.a == alg.e - 1

    walk, reason = _syzygy_walk(M, back, cap)
    # Only the last module of a walk can be zero; it is no image of the complex.
    back_mods = [M] + [mod for mod in walk[1:] if mod.dim]
    obstruction = "projective resolution terminates" if reason == "projective_reached" \
        else reason
    period = _first_period(M, back_mods[1:], seed)

    fwd_mods: list[AModule] = []
    forward_verified = True
    if fwd > 0:
        if period is not None:
            for j in range(1, fwd + 1):
                fwd_mods.append(back_mods[(period - (j % period)) % period])
        else:
            cur = M
            for j in range(1, fwd + 1):
                if j > 1:
                    data = dual_data(cur)
                # Reflexive implies torsionless, so the approximation is injective.
                if not data.reflexive:
                    forward_verified = False
                    if obstruction is None:
                        obstruction = f"reflexivity fails at forward step {j}"
                    break
                cur = data.approximation.cokernel
                if cur.loewy_length() > 2:
                    forward_verified = False
                    if obstruction is None:
                        obstruction = f"cosyzygy leaves Loewy length 2 at step {j}"
                    break
                fwd_mods.append(cur)

    steps = []
    ordered = list(reversed(fwd_mods)) + back_mods
    module_index = len(fwd_mods)
    for idx, mod in enumerate(ordered):
        steps.append(describe_step(mod, idx))
    ranks = tuple(s.rank for s in steps)
    defects = tuple(s.defect for s in steps) if a_defects else None
    if a_defects:
        _check_defect_monotonicity(steps)

    v_index = None
    if alg.is_self_injective():
        kind = "SelfInjectiveRegime"
    elif obstruction is not None and (fwd > 0 and not forward_verified
                                      or len(back_mods) < back + 1):
        kind = "NotAcyclicExtendable"
    else:
        # A complete window has no obstruction yet; its rank pattern decides.
        v = 0
        while v + 1 < len(ranks) and ranks[v + 1] == ranks[0]:
            v += 1
        tail = ranks[v:]
        if v == len(ranks) - 1:
            kind = "TypeI"
        elif all(tail[i + 1] > tail[i] for i in range(len(tail) - 1)):
            kind, v_index = "TypeII", v
        else:
            kind, obstruction = "NotAcyclicExtendable", "rank pattern fits neither type"
    return ComplexClassification(kind=kind, ranks=ranks, module_index=module_index,
                                 v_index=v_index, defects=defects,
                                 forward_verified=forward_verified, period=period,
                                 obstruction=obstruction)


def cv_sequence_check(seq: list[int], e: int, a: int) -> bool:
    """Check c_i = e c_{i+1} - a c_{i+2} for all applicable indices.

    For positive sequences this can hold for every i only in the constant
    case with a = e - 1.
    """
    return all(seq[i] == e * seq[i + 1] - a * seq[i + 2] for i in range(len(seq) - 2))
