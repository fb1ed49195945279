"""Verifier for the mixing-and-drift sufficient conditions (G1)-(G4).

Given an operator P, a candidate small set K and a weight pair (psi1, psi2),
the four checks compute the best admissible constants on the grid:

* g1 - local minorization: the largest c1 and minorizing probability nu with
  ``P_n1(psi1 1_A)(x) >= c1 nu(A) psi1(x)`` for x in K, A subset of K, at
  the first n1 <= 2N where c1 > 0, found in one power-of-two-scaled pass
  that also stops once the zero pattern of the K rows repeats.
* g2 - Lyapunov drift pair: theta1 (contraction of psi1 off K), theta2
  (expansion of psi2 everywhere), the on-K surplus c2, and the psi2/psi1
  ratio bounds.
* g3 - local Harnack constant: the worst K-oscillation of P_n psi1 / psi1
  over a finite horizon, with a stabilization diagnostic (the true constant
  is a supremum over all n and can only be sampled).
* g4 - aperiodicity: per-state smallest n4 after which P_n(1_K psi1) stays
  positive for every n, read exactly off the support walk of P_n 1_K, which
  ends where the supports settle over K or repeat.

``build_psi2_auto`` constructs the drift function as the inverse-rate-weighted
series of K-return masses, truncated at the order for which the drift
inequality is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    Measure,
    NonFiniteError,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
    apply,
    orbit,
)

#: Relative slack of the (G3) stabilization diagnostic.
_STAB_RTOL = 1e-3
#: Relative margin by which a small set's off-set contraction must clear theta2.
_MARGIN = 0.1
#: Largest truncation order ``build_psi2_auto`` tries.
_N0_MAX = 200


class SeriesDivergenceError(RuntimeError):
    """The drift series grew without reaching its target; holds diagnostics."""

    def __init__(self, message: str, reason: str, term_ratios=None):
        super().__init__(message)
        self.reason = reason
        self.term_ratios = list(term_ratios or [])


class SmallSetSearchError(RuntimeError):
    """No set in the supplied schedule separates the drift rates."""


@dataclass(frozen=True, eq=False)
class G1Result:
    c1: float
    nu: Measure
    n1: int
    passed: bool


@dataclass(frozen=True, eq=False)
class G2Result:
    theta1: float
    theta2: float
    c2: float
    inf_ratio: float
    sup_ratio: float
    passed: bool
    #: divisor applied to psi2 so that sup psi2/psi1 <= 1 (1.0 if none)
    psi2_scale: float = 1.0


@dataclass(frozen=True, eq=False)
class G3Result:
    c3: float
    n_checked: int
    passed: bool
    failed_at: int | None = None


@dataclass(frozen=True, eq=False)
class G4Result:
    #: state index (into the full space) -> smallest stable n4, or None
    n4: dict
    passed: bool


@dataclass(frozen=True, eq=False)
class GReport:
    g1: G1Result
    g2: G2Result
    g3: G3Result
    g4: G4Result

    @property
    def overall(self) -> bool:
        return self.g1.passed and self.g2.passed and self.g3.passed and self.g4.passed


def _require_small_set(K: SubsetMask):
    if K.count == 0:
        raise ValueError("the candidate small set K must be nonempty")


def check_g1(P: TransferOperator, K: SubsetMask, psi1: WeightedFunction) -> G1Result:
    """Best single-measure minorization certificate on K at the first
    n1 <= 2N with positive mass, or a FAIL at the step where the search ended.

    On a finite space the per-point minima over K plus additivity give the
    optimal certificate quantified over all measurable A in K: with
    ``M(x, j) = P_n1(psi1 1_{j})(x) / psi1(x)`` the raw masses are
    ``nu_raw(j) = min_x M(x, j)``, c1 is their sum and nu = nu_raw / c1.

    The K rows of P_n take one ``|K| x N`` product a step (none at n = 1),
    each step divided by a power of two whose exponent is carried, so no
    digit moves with the kernel's scale. Whether c1 > 0 depends only on
    their zero pattern, which follows a fixed map, so the search fails at
    2N or at the first step whose pattern repeats an earlier one (from
    P_0 = I): the patterns then cycle for good. Each pattern is kept packed,
    |K| N / 8 bytes a step. Raises NonFiniteError naming n1 where a step
    holds inf or NaN or where c1 leaves the float range.
    """
    _require_small_set(K)
    idx = K.indices
    if np.any(psi1.values[idx] <= 0.0):
        raise ValueError("psi1 must be positive on K")
    v = psi1.values[idx]
    ratio = v[None, :] / v[:, None]
    rows, scale = P.kernel[idx], 0  # the K rows of P_n1 are rows * 2^scale
    seen = {np.packbits(idx[:, None] == np.arange(P.space.size)).tobytes()}  # P_0 = I
    with np.errstate(over="ignore", invalid="ignore"):
        for n1 in range(1, 2 * P.space.size + 1):
            if n1 > 1:
                rows = rows @ P.kernel
            top = rows.max()
            if not np.isfinite(top):
                raise NonFiniteError(f"(G1) step n1 = {n1} is non-finite", step=n1)
            e = int(np.frexp(top)[1])
            rows, scale = np.ldexp(rows, -e), scale + e
            nu_raw = (rows[:, idx] * ratio).min(axis=0)
            mass = float(nu_raw.sum())  # c1 * 2^-scale
            c1 = float(np.ldexp(mass, scale))
            if not np.isfinite(c1) or (c1 == 0.0 and mass > 0.0):
                raise NonFiniteError(f"(G1) mass leaves the float range at n1 = {n1}", step=n1)
            if c1 > 0.0:
                break
            pattern = np.packbits(rows > 0.0).tobytes()
            if pattern in seen:
                break
            seen.add(pattern)
    density = np.zeros(P.space.size)
    if c1 > 0.0:
        density[idx] = nu_raw / (mass * P.space.ref_weights[idx])
    return G1Result(c1=c1, nu=Measure(P.space, density), n1=n1, passed=bool(c1 > 0.0))


def check_g2(
    P: TransferOperator,
    K: SubsetMask,
    psi1: WeightedFunction,
    psi2: WeightedFunction,
) -> G2Result:
    """Best drift constants for the pair (psi1, psi2) relative to K.

    theta2 is the worst-case expansion of psi2 where psi2 > 0 (points with
    psi2 = 0 impose no constraint), theta1 the worst contraction of psi1 off
    K (reported as 0 over an empty complement), and c2 the on-K surplus,
    floored at 0. If sup psi2/psi1 exceeds 1 the ratios are reported for the
    rescaled psi2 (drift rates are scale-invariant).
    """
    _require_small_set(K)
    if np.any(psi1.values <= 0.0):
        raise ValueError("psi1 must be strictly positive")
    if np.any(psi2.values < 0.0):
        raise ValueError("psi2 must be nonnegative")
    v1 = psi1.values
    v2 = psi2.values
    ratio = v2 / v1
    sup_ratio = float(np.max(ratio))
    scale = sup_ratio if sup_ratio > 1.0 else 1.0
    ratio = ratio / scale
    sup_ratio = float(np.max(ratio))
    inf_ratio = float(np.min(ratio[K.member]))

    r1 = apply(P, psi1).values / v1
    outside = ~K.member
    theta1 = float(np.max(r1[outside])) if outside.any() else 0.0
    c2 = float(max(np.max(r1[K.member] - theta1), 0.0))

    pos = v2 > 0.0
    if pos.any():
        r2 = apply(P, psi2).values[pos] / v2[pos]
        theta2 = float(np.min(r2))
    else:
        theta2 = 0.0
    passed = bool(theta1 < theta2 and inf_ratio > 0.0)
    return G2Result(
        theta1=theta1,
        theta2=theta2,
        c2=c2,
        inf_ratio=inf_ratio,
        sup_ratio=sup_ratio,
        passed=passed,
        psi2_scale=scale,
    )


def check_g3(
    P: TransferOperator,
    K: SubsetMask,
    psi1: WeightedFunction,
    n_max: int = 100,
) -> G3Result:
    """Worst K-oscillation of P_n psi1 / psi1 over n = 0..n_max.

    The iterate is renormalized each step (the oscillation ratio is scale
    invariant), so the horizon is not limited by the magnitude of the
    dominant eigenvalue. The check passes when every ratio is finite and the
    last-quarter maximum exceeds the earlier running maximum by at most the
    relative slack 1e-3 (the ratios typically approach their limit
    from below, so an exact comparison would reject any still-converging
    tail); the genuine constant is a supremum over all n, so this is a
    finite-horizon sample with a stabilization diagnostic, not a certificate
    for the tail.
    """
    _require_small_set(K)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    idx = K.indices
    if np.any(psi1.values[idx] <= 0.0):
        raise ValueError("psi1 must be positive on K")
    v = psi1.values
    ratios = np.empty(n_max + 1)
    ratios[0] = 1.0
    steps = orbit(P.kernel, v, lambda image: np.max(image / v) or 1.0)
    for n, f in enumerate(islice(steps, 1, n_max + 1), start=1):
        top = np.max(f[idx] / v[idx])
        bot = np.min(f[idx] / v[idx])
        if bot <= 0.0:
            return G3Result(c3=float("inf"), n_checked=n, passed=False, failed_at=n)
        ratios[n] = top / bot
    c3 = float(np.max(ratios))
    q = (3 * n_max) // 4
    stabilized = bool(
        np.max(ratios[q:]) <= np.max(ratios[: max(q, 1)]) * (1.0 + _STAB_RTOL)
    )
    return G3Result(
        c3=c3, n_checked=n_max, passed=bool(np.isfinite(c3) and stabilized)
    )


def check_g4(
    P: TransferOperator, K: SubsetMask, psi1: WeightedFunction, n_max: int = 100
) -> G4Result:
    """Per-state onset n4(x) after which P_n(1_K psi1)(x) > 0 for every n.

    Walks the support S_n as ``P.kernel @ s > 0`` on a 0/1 vector, exactly:
    a positive entry times 1.0 never underflows. S -> supp(P 1_S) is
    monotone, so the walk settles once S_(n-1) is in S_n and S_n covers K
    (the supports then only grow), or stops at the first support that
    repeats an earlier one (the cycle then runs forever). n4(x) is one past
    x's last absence, or None if x misses a support on the cycle. ``n_max``
    only caps a walk that does neither, and every n4 is then None.
    """
    _require_small_set(K)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    idx = K.indices
    last_absent = np.zeros(idx.size, dtype=int)
    s = psi1.values * K.member > 0.0
    first_seen = {s.tobytes(): 0}
    cut = 0  # an absence at step cut or later leaves x no n4; the cap resolves none
    for n in range(1, n_max + 1):
        prev, s = s, P.kernel @ s > 0.0
        last_absent[~s[idx]] = n
        if s[idx].all() and not (prev & ~s).any():
            cut = n  # settled: K stays covered from n on
            break
        start = first_seen.setdefault(s.tobytes(), n)
        if start < n:
            cut = start  # S_start, ..., S_(n-1) repeat forever
            break
    n4 = {int(x): int(t) + 1 if t < cut else None for x, t in zip(idx, last_absent)}
    return G4Result(n4=n4, passed=all(v is not None for v in n4.values()))


def build_psi2_auto(
    P: TransferOperator,
    K: SubsetMask,
    theta2: float,
    psi1: WeightedFunction,
):
    """Drift function psi2 at the smallest self-certifying truncation order.

    Sums the series ``sum_{k=0}^{n0} theta2^-k P_k 1_K`` and increases n0
    until ``theta2^-(n0+1) P_{n0+1} 1_K >= 1`` holds on K, the condition
    under which the truncated series satisfies ``P psi2 >= theta2 psi2``
    everywhere. Returns (psi2, n0), with psi2 divided by its psi1-weighted
    sup so that sup psi2/psi1 = 1. Raises SeriesDivergenceError with reason
    "overflow" once a term passes 1e250, or "exhausted" past order 200.
    """
    _require_small_set(K)
    if theta2 <= 0.0:
        raise ValueError("theta2 must be positive")
    idx = K.indices
    ratios = []  # each term's peak over the previous one
    acc, prev_peak = 0.0, 1.0
    for k, g in enumerate(orbit(P.kernel, K.member.astype(float), theta2)):
        if k:
            peak = float(np.max(g))
            ratios.append(peak / prev_peak if prev_peak > 0 else np.inf)
            prev_peak = peak
            if peak > 1e250:
                raise SeriesDivergenceError(
                    f"K-return masses overflowed at order {k}; theta2 is likely "
                    f"far below the dominant rate (last term ratios {ratios[-3:]})",
                    reason="overflow",
                    term_ratios=ratios,
                )
            if np.min(g[idx]) >= 1.0:
                return WeightedFunction(P.space, acc / np.max(acc / psi1.values)), k - 1
        if k > _N0_MAX:
            break
        acc = acc + g
    raise SeriesDivergenceError(
        f"order search stopped at n0 = {_N0_MAX} without reaching the "
        "self-certifying truncation; theta2 may exceed the dominant rate "
        f"(last term ratios {ratios[-3:]})",
        reason="exhausted",
        term_ratios=ratios,
    )


def select_small_set(
    P: TransferOperator,
    psi1: WeightedFunction,
    theta2: float,
    levels,
) -> SubsetMask:
    """Smallest sublevel set {psi1 <= level} separating the drift rates.

    Scans the schedule in increasing order and returns the first nonempty
    sublevel set whose off-set contraction rate clears theta2 with a 10%
    relative margin.
    """
    v = psi1.values
    r1 = (P.kernel @ v) / v
    for level in sorted(float(x) for x in levels):
        member = v <= level
        outside = ~member
        if not member.any() or not outside.any():
            continue  # a small set equal to the whole space is no small set
        theta1 = float(np.max(r1[outside]))
        if theta1 * (1.0 + _MARGIN) < theta2:
            return SubsetMask(P.space, member)
    raise SmallSetSearchError(
        f"no sublevel set in the schedule achieves theta1 < theta2 = {theta2:g} "
        f"with a {_MARGIN:.0%} margin"
    )


def check_condition_g(
    P: TransferOperator,
    K: SubsetMask,
    psi1: WeightedFunction,
    psi2: WeightedFunction,
    n_max: int = 100,
) -> GReport:
    """Run all four checks on shared inputs and assemble the report. (G1)
    finds its own horizon n1; ``n_max`` is the horizon (G3) samples and
    only caps the (G4) support walk."""
    return GReport(
        g1=check_g1(P, K, psi1),
        g2=check_g2(P, K, psi1, psi2),
        g3=check_g3(P, K, psi1, n_max),
        g4=check_g4(P, K, psi1, n_max),
    )
