"""Verifier for the mixing-and-drift sufficient conditions (G1)-(G4).

Given an operator P, a candidate small set K and a weight pair (psi1, psi2),
the four checks compute the best admissible constants on the grid:

* g1 - local minorization: the largest c1 and minorizing probability nu with
  ``P_n1(psi1 1_A)(x) >= c1 nu(A) psi1(x)`` for x in K, A subset of K.
* g2 - Lyapunov drift pair: theta1 (contraction of psi1 off K), theta2
  (expansion of psi2 everywhere), the on-K surplus c2, and the psi2/psi1
  ratio bounds.
* g3 - local Harnack constant: the worst K-oscillation of P_n psi1 / psi1
  over a finite horizon, with a stabilization diagnostic (the true constant
  is a supremum over all n and can only be sampled).
* g4 - aperiodicity: per-state smallest n4 after which P_n(1_K psi1) stays
  positive through the horizon.

``build_psi2`` constructs the drift function as the inverse-rate-weighted
series of K-return masses, and ``build_psi2_auto`` searches the truncation
order for which the drift inequality is guaranteed.
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
    #: per-pair ratios M(x, j) = P_n1(psi1 1_{j})(x) / psi1(x), x, j in K
    minor_matrix: np.ndarray
    #: column minima of minor_matrix; the unnormalized certificate masses
    nu_raw: np.ndarray


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


def check_g1(
    P: TransferOperator, K: SubsetMask, psi1: WeightedFunction, n1: int
) -> G1Result:
    """Best single-measure minorization certificate on K.

    On a finite space the per-point minima over K plus additivity give the
    optimal certificate quantified over all measurable A in K: with
    ``M(x, j) = P_n1(psi1 1_{j})(x) / psi1(x)`` the raw masses are
    ``nu_raw(j) = min_x M(x, j)``, c1 is their sum and nu = nu_raw / c1.
    """
    if n1 < 1:
        raise ValueError(f"n1 must be >= 1, got {n1}")
    return next(check_g1_horizons(P, K, psi1, [n1]))


def check_g1_horizons(
    P: TransferOperator, K: SubsetMask, psi1: WeightedFunction, horizons
):
    """Yield ``check_g1(P, K, psi1, n1)`` for each n1 of the increasing
    ``horizons``, all read off one orbit of the K rows of P, so horizon n1
    costs n1 - 1 products of a ``|K| x N`` block and no N x N power.
    """
    _require_small_set(K)
    idx = K.indices
    if np.any(psi1.values[idx] <= 0.0):
        raise ValueError("psi1 must be positive on K")
    v = psi1.values[idx]
    ratio = v[None, :] / v[:, None]
    rows = orbit(P.kernel, P.kernel[idx], left=True)  # K rows of P_1, P_2, ...
    reached = 0
    for n1 in horizons:
        block = next(islice(rows, n1 - reached - 1, None))[:, idx]
        reached = n1
        with np.errstate(over="ignore"):
            M = block * ratio
            nu_raw = M.min(axis=0)
            c1 = float(nu_raw.sum())
        if not np.isfinite(c1):
            raise NonFiniteError(f"(G1) minorization mass overflows at n1 = {n1}")
        density = np.zeros(P.space.size)
        if c1 > 0.0:
            density[idx] = nu_raw / (c1 * P.space.ref_weights[idx])
        yield G1Result(
            c1=c1,
            nu=Measure(P.space, density),
            n1=int(n1),
            passed=bool(c1 > 0.0),
            minor_matrix=M,
            nu_raw=nu_raw,
        )


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
    """Per-state onset of persistent positivity of P_n(1_K psi1) on K.

    For each x in K, n4(x) is the smallest n such that the mass stays
    strictly positive for every step from n through n_max. The onset must
    fall within the first three quarters of the horizon; a positivity
    window that only opens at the very end (a periodic orbit hitting the
    horizon parity) does not count as stabilized.
    """
    _require_small_set(K)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    idx = K.indices
    last_zero = np.zeros(idx.size, dtype=int)
    steps = orbit(P.kernel, psi1.values * K.member, lambda image: np.max(image) or 1.0)
    for n, f in enumerate(islice(steps, 1, n_max + 1), start=1):
        last_zero[f[idx] == 0.0] = n
        if f.max() <= 0.0:
            last_zero[:] = n_max
            break
    horizon_guard = (3 * n_max) // 4
    n4 = {}
    for pos, state in enumerate(idx):
        onset = int(last_zero[pos]) + 1
        n4[int(state)] = onset if onset <= horizon_guard else None
    passed = all(v is not None for v in n4.values())
    return G4Result(n4=n4, passed=passed)


def _return_terms(P: TransferOperator, K: SubsetMask, theta2: float, ratios: list):
    """The K-return masses ``theta2^-k P_k 1_K`` for k = 0, 1, ...

    Appends each term's peak over the previous one to ``ratios`` and raises
    SeriesDivergenceError once a term passes 1e250.
    """
    prev_peak = 1.0
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
        yield g


def _rescaled(P: TransferOperator, psi2: np.ndarray, psi1, rescale: bool):
    if rescale:
        ref = psi1.values if psi1 is not None else np.ones(P.space.size)
        psi2 = psi2 / np.max(psi2 / ref)
    return WeightedFunction(P.space, psi2)


def build_psi2(
    P: TransferOperator,
    K: SubsetMask,
    theta2: float,
    n0: int,
    psi1: WeightedFunction | None = None,
    rescale: bool = True,
) -> WeightedFunction:
    """Drift function as the truncated series of rate-discounted K-returns.

    Computes ``sum_{k=0}^{n0} theta2^-k P_k 1_K`` and, unless ``rescale`` is
    off, divides by its psi1-weighted sup so that sup psi2/psi1 <= 1.
    """
    _require_small_set(K)
    if theta2 <= 0.0:
        raise ValueError("theta2 must be positive")
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    acc = sum(islice(_return_terms(P, K, theta2, []), int(n0) + 1))
    return _rescaled(P, acc, psi1, rescale)


def build_psi2_auto(
    P: TransferOperator,
    K: SubsetMask,
    theta2: float,
    psi1: WeightedFunction | None = None,
    n0_max: int = 200,
    rescale: bool = True,
):
    """Search the smallest truncation order making the drift self-certifying.

    Increases n0 until ``theta2^-(n0+1) P_{n0+1} 1_K >= 1`` holds on K, the
    condition under which the truncated series satisfies
    ``P psi2 >= theta2 psi2`` everywhere. Returns (psi2, n0); psi2 is the
    series ``build_psi2`` gives for that n0, summed during the search.
    """
    _require_small_set(K)
    if theta2 <= 0.0:
        raise ValueError("theta2 must be positive")
    idx = K.indices
    ratios = []
    acc = 0.0
    for k, g in enumerate(_return_terms(P, K, theta2, ratios)):
        if k and np.min(g[idx]) >= 1.0:
            return _rescaled(P, acc, psi1, rescale), k - 1
        if k > n0_max:
            break
        acc = acc + g
    raise SeriesDivergenceError(
        f"order search exhausted n0_max = {n0_max} without reaching the "
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
    n1: int = 1,
    n_max: int = 100,
) -> GReport:
    """Run all four checks on shared inputs and assemble the report; (G3)
    and (G4) share the horizon ``n_max``."""
    return GReport(
        g1=check_g1(P, K, psi1, n1),
        g2=check_g2(P, K, psi1, psi2),
        g3=check_g3(P, K, psi1, n_max),
        g4=check_g4(P, K, psi1, n_max),
    )
