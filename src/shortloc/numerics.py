"""Dimension-vector calculus for Loewy-length <= 2 modules.

The central tool is the integral transform (t, s) -> (e t - s, a t): for a
module M of Loewy length <= 2 over an algebra of Hilbert type (e, a), the
dimension vector of the first syzygy is that transform of dim M corrected
by (w, -w), where S^w splits off the syzygy.  Everything here is exact
integer (or rational) arithmetic.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional, Sequence

from ._record import record
from .errors import (BadParams, HypothesisNotMet, InvariantViolation, LoewyTooLong,
                     ResourceCapExceeded, WrongHilbertType)
from .homology import DEFAULT_CAP, syzygy
from .modules import AModule, DimVec, dim_vector, simple_multiplicity


def omega_transform(e: int, a: int, v: Sequence[int]) -> tuple[int, int]:
    """The syzygy transform (t, s) -> (e t - s, a t) on Z^2.

    Components may be negative; callers interpret the result.
    """
    t, s = v
    return (e * t - s, a * t)


@record
class MainLemmaWitness:
    """Certificate that dim(Omega M) = transform(dim M) + (w, -w), w >= 0."""

    module: AModule
    dim: DimVec
    omega_dim: DimVec
    predicted: tuple[int, int]
    w: int
    omega_module: AModule


def main_lemma_witness(M: AModule, cap: int = DEFAULT_CAP) -> MainLemmaWitness:
    """Compute the syzygy of M and check the dimension-vector law.

    Raises :class:`InvariantViolation` if the law fails; that would be an
    engine bug, not bad input.  Over algebras with J^2 equal to the left
    socle, additionally w must be the full multiplicity of S in the
    syzygy.
    """
    if M.loewy_length() > 2:
        raise LoewyTooLong("the dimension-vector law needs Loewy length <= 2")
    alg = M.algebra
    dv = dim_vector(M)
    om = syzygy(M, cap=cap)
    odv = dim_vector(om)
    predicted = omega_transform(alg.e, alg.a, dv)
    w = odv.t - predicted[0]
    if w < 0 or odv != (predicted[0] + w, predicted[1] - w):
        raise InvariantViolation(
            f"syzygy dimension vector {odv} is not {predicted} + (w,-w)")
    mult = simple_multiplicity(om)
    if w > mult:
        raise InvariantViolation(f"witness w={w} exceeds simple multiplicity {mult}")
    if alg.a == alg.validate().left_socle_dim and w != mult:
        raise InvariantViolation(
            f"with J^2 equal to the left socle, w={w} must be the full "
            f"simple multiplicity {mult}")
    return MainLemmaWitness(module=M, dim=dv, omega_dim=odv, predicted=predicted,
                            w=w, omega_module=om)


def is_aligned(M: AModule, cap: int = DEFAULT_CAP) -> bool:
    """True iff dim(Omega M) equals the transform of dim M exactly (w = 0)."""
    return main_lemma_witness(M, cap=cap).w == 0


@record
class RecursionCheck:
    """Outcome of the Betti recursion t_2 = e t_1 - a t_0."""

    hypothesis_met: bool
    holds: Optional[bool]
    betti: tuple[int, int, int]

    def __bool__(self) -> bool:
        return bool(self.holds)


def recursion_check(M: AModule, cap: int = DEFAULT_CAP) -> RecursionCheck:
    """Check t_2(M) = e t_1(M) - a t_0(M).

    The identity needs both M and its first syzygy to be aligned (which
    holds in particular when the first two syzygies are bipartite); a
    hypothesis failure is reported rather than raised.
    """
    if M.loewy_length() > 2:
        raise LoewyTooLong("recursion check needs Loewy length <= 2")
    alg = M.algebra
    wit0 = main_lemma_witness(M, cap=cap)
    o1 = wit0.omega_module
    wit1 = main_lemma_witness(o1, cap=cap)
    o2 = wit1.omega_module
    ts = (M.top_dim(), o1.top_dim(), o2.top_dim())
    if wit0.w != 0 or wit1.w != 0:
        return RecursionCheck(hypothesis_met=False, holds=None, betti=ts)
    return RecursionCheck(hypothesis_met=True,
                          holds=(ts[2] == alg.e * ts[1] - alg.a * ts[0]),
                          betti=ts)


def defect(M: AModule) -> int:
    """a*t(M) - |JM|, defined when the algebra has a = e - 1."""
    alg = M.algebra
    if alg.a != alg.e - 1:
        raise WrongHilbertType("defect requires Hilbert type (e, e-1)")
    if M.loewy_length() > 2:
        raise LoewyTooLong("defect requires Loewy length <= 2")
    dv = dim_vector(M)
    return alg.a * dv.t - dv.s


@record
class BSequence:
    """The recursion b_{-1} = 0, b_0 = 1, b_{n+1} = e b_n - a b_{n-1}.

    ``values`` lists b_{-1}..b_N.  For an algebra of Hilbert type (e, a)
    these are the Betti numbers of the simple module for as long as its
    syzygies stay aligned.
    """

    e: int
    a: int
    values: tuple[int, ...]

    def b(self, n: int) -> int:
        """b_n, for -1 <= n <= N."""
        return self.values[n + 1]


#: A b-sequence whose values may hold more bits than this (:func:`_sequence_bits`) is refused.
MAX_SEQUENCE_BITS = 2 ** 28


def _ceil_sqrt(x: int) -> int:
    s = isqrt(x)
    return s + (s * s < x)


def _sequence_bits(e: int, a: int, n: int) -> int:
    """An upper bound on the bits that b_0..b_n hold, one 64-bit word per value included.

    b_k = sum_{i=0}^{k} r^i s^(k-i) for the roots r, s of x^2 - e x + a, so
    |b_k| <= (k + 1)·ρ^k for ρ = max(|r|, |s|), and ρ <= R, an int: the
    ceiling of (|e| + √d)/2 when d = e^2 - 4a >= 0, else of √a.  So b_k
    holds at most k·⌈log2 R⌉ + bit_length(k + 1) bits.
    """
    d = e * e - 4 * a
    R = _ceil_sqrt(a) if d < 0 else (abs(e) + _ceil_sqrt(d) + 1) // 2
    w = max(R - 1, 0).bit_length()
    return w * n * (n + 1) // 2 + (n + 1) * (64 + (n + 1).bit_length())


def b_sequence(e: int, a: int, n: int) -> BSequence:
    """b_{-1}..b_n of the recursion; refused with ResourceCapExceeded, before any value is
    formed, when they may hold more than :data:`MAX_SEQUENCE_BITS` bits."""
    if n < 0:
        raise BadParams(f"n must be at least 0, got {n}")
    bits = _sequence_bits(e, a, n)
    if bits > MAX_SEQUENCE_BITS:
        raise ResourceCapExceeded(bits, MAX_SEQUENCE_BITS, "b-sequence of bit size")
    vals = [0, 1]
    for _ in range(n):
        vals.append(e * vals[-1] - a * vals[-2])
    return BSequence(e=e, a=a, values=tuple(vals))


def check_closed_form(seq: BSequence) -> None:
    """Check every b_0..b_N of ``seq`` against the closed form, valid when 4a < e^2.

    The closed form (1/2^n) sum_j C(n+1, 2j+1) d^j e^(n-2j), d = e^2 - 4a,
    is Y_n / 2^n for (e + √d)^(n+1) = X_n + Y_n √d, so one step multiplies
    the integer pair (X, Y) by e + √d and checks that 2^n divides Y_n.
    """
    e, a = seq.e, seq.a
    if 4 * a >= e * e:
        raise HypothesisNotMet("closed form requires 4a < e^2")
    d = e * e - 4 * a
    x, y = e, 1
    for n, b in enumerate(seq.values[1:]):
        if y % (1 << n):
            raise InvariantViolation(f"closed form gave the non-integer {y}/2^{n} at n={n}")
        if y >> n != b:
            raise InvariantViolation(f"closed form disagrees with recursion at n={n}")
        x, y = e * x + d * y, x + e * y


def b_closed_form(e: int, a: int, n: int) -> int:
    """Closed form for b_n, valid when 4a < e^2, cross-checked against the recursion.

    Every b_0..b_n is checked (:func:`check_closed_form`), in exact integer
    arithmetic.
    """
    if n < 0:
        raise HypothesisNotMet("closed form starts at n = 0")
    seq = b_sequence(e, a, n)
    check_closed_form(seq)
    return seq.b(n)


def q_form(e: int, v: Sequence[int]) -> int:
    """The quadratic form x^2 + y^2 - e x y on Z^2."""
    x, y = v
    return x * x + y * y - e * x * y


def classify_dimvec(e: int, v: Sequence[int]) -> tuple[str, str]:
    """Root class and side of a dimension vector for the e-Kronecker form.

    Returns (root, side) with root in {"real_root", "imaginary_root"} by
    the sign of the form, and side in {"preprojective_side",
    "preinjective_side", "balanced"} by comparing the components.
    """
    x, y = v
    root = "imaginary_root" if q_form(e, v) <= 0 else "real_root"
    if x < y:
        side = "preprojective_side"
    elif x > y:
        side = "preinjective_side"
    else:
        side = "balanced"
    return root, side
