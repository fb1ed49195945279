"""From a verified convergence profile back to the drift conditions.

Given an operator P, a strictly positive comparison weight psi, a
nonnegative eigenpair (eta, theta0) and a measured uniform convergence
profile zeta, this module constructs the objects that witness the
mixing-and-drift conditions: the conjugated stochastic operator R on the
support of eta, the Foster-Lyapunov function V0, a small set K as a
sublevel set of psi/eta, the weight psi1 extended off the support, and a
minorizing measure, then certifies the whole package through the
`condition_g` verifier with psi2 = eta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .condition_g import GReport, check_condition_g
from .core import Measure, SubsetMask, TransferOperator, WeightedFunction, orbit
from .transforms import HTransformRecord, h_transform

#: Start of the (m, lambda, rho) back-off schedule of ``certify``.
_M0, _LAM0, _RHO0 = 8, 0.9, 0.95
#: Relative eigen residual above which (eta, theta0) is no eigenpair.
_EIGEN_RTOL = 1e-8


class ZetaConditionError(RuntimeError):
    """zeta_m^(1/m) <= lambda unattainable within the allowed truncations."""


class DriftSearchError(RuntimeError):
    """No admissible sublevel set produced the drift inequality."""


@dataclass(frozen=True, eq=False)
class ReciprocalInput:
    """Inputs of the reverse construction.

    ``zeta`` is the measured uniform profile (index n = 0, 1, ...); it is
    expected to decay after a burn-in. ``nu_P`` is the left eigenmeasure
    that belongs to (eta, theta0).
    """

    P: TransferOperator
    psi: WeightedFunction
    eta: WeightedFunction
    theta0: float
    zeta: np.ndarray
    nu_P: Measure

    def __post_init__(self):
        if np.any(self.psi.values <= 0.0):
            raise ValueError("psi must be strictly positive")
        if np.any(self.eta.values < 0.0):
            raise ValueError("eta must be nonnegative")
        if self.theta0 <= 0.0:
            raise ValueError("theta0 must be positive")
        z = np.array(self.zeta, dtype=float).reshape(-1)
        if z.size < 2 or np.any(z < 0.0):
            raise ValueError("zeta must be a nonnegative profile with >= 2 entries")
        z.flags.writeable = False
        object.__setattr__(self, "zeta", z)


@dataclass(frozen=True, eq=False)
class DriftResult:
    """Outcome of the sublevel-set drift search on the support space.

    ``passed`` is False either when no admissible level exists or when the
    drift inequality fails somewhere and only the full support qualifies
    (the degenerate case of a constant Lyapunov function); the full-space
    set is still returned so a caller can proceed and let the final
    verification decide.
    """

    K: SubsetMask
    C_R: float
    d: float
    n2: int
    #: masses of nu_R R_n2, the first image of nu_R that charges K
    reach_masses: np.ndarray
    passed: bool


def build_v0(
    inp: ReciprocalInput, m: int, lam: float, h_record: HTransformRecord
) -> WeightedFunction:
    """Foster-Lyapunov function V0 = sum_{k<m} lam^-k R_k(psi/eta) on E'.

    R is the h-transform of ``inp`` in ``h_record`` (``h_transform`` of P by
    eta, theta0, with psi1 = psi).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    idx = h_record.support.indices
    u = inp.psi.values[idx] / inp.eta.values[idx]
    acc = sum(islice(orbit(h_record.transformed.kernel, u, lam), int(m)))
    return WeightedFunction(h_record.transformed.space, acc)


def find_drift(
    v0: WeightedFunction,
    R: TransferOperator,
    rho: float,
    level: WeightedFunction,
    nu_R: Measure,
) -> DriftResult:
    """Smallest sublevel set of ``level`` outside which R contracts V0.

    Scans the grid values d of ``level`` in increasing order; a level is
    admissible when ``R V0 <= rho V0`` holds at every point above it and
    the resulting set K is reachable from ``nu_R`` within as many steps as
    the space has points. Returns the surplus constant
    ``C_R = max_K (R V0 - rho V0)_+`` for the chosen set.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    Rv = R.kernel @ v0.values
    ok = Rv <= rho * v0.values
    candidates = np.unique(level.values)
    for d in candidates:
        member = level.values <= d
        if not member.any():
            continue
        if not ok[~member].all():
            continue
        reach = _first_reach(nu_R, R, member)
        if reach is None:
            continue
        n2, reach_masses = reach
        C_R = float(max(np.max((Rv - rho * v0.values)[member]), 0.0))
        degenerate = bool(member.all()) and not ok.all()
        return DriftResult(
            K=SubsetMask(R.space, member),
            C_R=C_R,
            d=float(d),
            n2=n2,
            reach_masses=reach_masses,
            passed=not degenerate,
        )
    raise DriftSearchError(
        "no sublevel set is reachable from nu_R within "
        f"{R.space.size} steps (drift holds above {candidates[-1]:g} at best)"
    )


def _first_reach(nu_R, R, member):
    """(n, masses of nu_R R_n) for the first n <= space size charging the set."""
    steps = orbit(R.kernel, nu_R.masses, left=True)
    for n, m in enumerate(islice(steps, R.space.size + 1)):
        if float(m[member].sum()) > 0.0:
            return n, m
    return None


def extend_psi1(inp: ReciprocalInput, m: int, lam: float) -> WeightedFunction:
    """Weight psi1 = sum_{k<m} (lam theta0)^-k P_k psi on the full space.

    At least eta * V0 on the support of eta, with equality where no path of
    fewer than m steps leaves it (none returns: P eta = theta0 eta). Off the
    support ``P psi1 <= lam theta0 psi1`` holds, provided the measured profile
    satisfies ``zeta_m^(1/m) <= lam`` (checked here; raise and retry with
    larger m, lambda if it fails).
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m >= inp.zeta.size:
        raise ZetaConditionError(
            f"zeta is only measured up to n = {inp.zeta.size - 1}, need zeta_{m}"
        )
    z = inp.zeta[m]
    if z > 0.0 and z ** (1.0 / m) > lam:
        raise ZetaConditionError(
            f"zeta_{m}^(1/{m}) = {z ** (1.0 / m):.6g} exceeds lambda = {lam:.6g}"
        )
    acc = sum(islice(orbit(inp.P.kernel, inp.psi.values, lam * inp.theta0), int(m)))
    return WeightedFunction(inp.P.space, acc)


@dataclass(frozen=True, eq=False)
class ReciprocalCertificate:
    """Everything the reverse construction produced, plus the verdict.

    ``passed`` is True exactly when the final verification report is
    overall-true; ``stage`` names the first stage that failed otherwise
    ("eigenfunction", "spectral", "zeta", "find_drift", "condition-g").
    """

    passed: bool
    stage: str
    eigen_residual: float
    zeta: np.ndarray
    m: int = 0
    lam: float = float("nan")
    rho: float = float("nan")
    d: float = float("nan")
    V0: WeightedFunction | None = None
    psi1: WeightedFunction | None = None
    K: SubsetMask | None = None
    nu: Measure | None = None
    C_R: float = float("nan")
    n2: int = -1
    support: SubsetMask | None = None
    g_report: GReport | None = None
    diagnostics: str = ""


def _failed(stage, inp, eigen_residual, **kw):
    return ReciprocalCertificate(False, stage, eigen_residual, inp.zeta, **kw)


def _schedule(horizon):
    """(m, lambda, rho) for m <= ``horizon``: m doubles, lambda and rho move halfway to 1."""
    m, lam, rho = _M0, _LAM0, _RHO0
    while m <= horizon:
        yield m, lam, rho
        m, lam, rho = 2 * m, (1 + lam) / 2, (1 + rho) / 2


def certify(inp: ReciprocalInput) -> ReciprocalCertificate:
    """Run the full reverse pipeline and verify the resulting package.

    Stages: validate that (eta, theta0) really is an eigenpair at relative
    residual 1e-8 (a fabricated eigenfunction must never produce a passing
    certificate), conjugate to the stochastic operator on the support, build
    V0, locate the small set and the surplus constant, extend psi1 to the
    full space, assemble the minorizing measure, and check (G1)-(G4) with
    psi2 = eta. The profile's length sets the one horizon H = len(zeta) - 1.
    The parameters start at m = 8, lambda = 0.9, rho = 0.95; on failure they
    back off geometrically (m doubles; lambda and rho move halfway to 1)
    while m <= H, the m whose zeta_m was measured. ``check_condition_g``
    samples (G3) to H, caps the (G4) support walk at H and finds the (G1)
    horizon itself.
    """
    P, psi, eta, theta0 = inp.P, inp.psi, inp.eta, inp.theta0
    resid = (
        float(np.max(np.abs(P.kernel @ eta.values - theta0 * eta.values) / psi.values))
        / theta0
    )
    if resid > _EIGEN_RTOL:
        return _failed(
            "eigenfunction",
            inp,
            resid,
            diagnostics=f"eigen residual {resid:.3e} exceeds {_EIGEN_RTOL:g}",
        )

    H = h_transform(P, eta, theta0, psi1=psi)
    idx = H.support.indices
    sub_space = H.transformed.space
    u = WeightedFunction(sub_space, psi.values[idx] / eta.values[idx])
    nu_R = Measure(sub_space, eta.values[idx] * inp.nu_P.density[idx])
    if nu_R.total_mass() <= 0.0:
        return _failed(
            "spectral", inp, resid, diagnostics="nu_P gives no mass to the support"
        )

    horizon = inp.zeta.size - 1
    last = None
    for m, lam, rho in _schedule(horizon):
        try:
            psi1 = extend_psi1(inp, m, lam)
        except ZetaConditionError:
            continue
        V0 = build_v0(inp, m, lam, h_record=H)
        try:
            drift = find_drift(V0, H.transformed, rho, u, nu_R)
        except DriftSearchError as err:
            last = _failed(
                "find_drift", inp, resid, diagnostics=str(err), m=m, lam=lam, rho=rho
            )
            continue
        K_full = SubsetMask.from_indices(P.space, idx[drift.K.member])
        nu = _minorizing_measure(P, H, u.values, drift)
        g_report = check_condition_g(P, K_full, psi1, eta, horizon)
        last = ReciprocalCertificate(
            passed=g_report.overall,
            stage="ok" if g_report.overall else "condition-g",
            eigen_residual=resid,
            zeta=inp.zeta,
            m=m,
            lam=lam,
            rho=rho,
            d=drift.d,
            V0=V0,
            psi1=psi1,
            K=K_full,
            nu=nu,
            C_R=drift.C_R,
            n2=drift.n2,
            support=H.support,
            g_report=g_report,
            diagnostics="" if drift.passed else "full-space small set required",
        )
        if last.passed:
            return last
    if last is None:
        return _failed(
            "zeta",
            inp,
            resid,
            diagnostics=f"zeta_m^(1/m) <= lambda unattainable for any m <= {horizon} "
            f"(profile length {inp.zeta.size})",
        )
    return last


def _minorizing_measure(P, H, u, drift):
    """nu = (u / a) 1_K d(nu_R R_n2) with u = psi / eta, normalized to a probability."""
    m = drift.reach_masses
    inside = drift.K.member
    a = float(m[inside].sum())
    w_sub = H.transformed.space.ref_weights
    density = np.zeros(P.space.size)
    density[H.support.indices[inside]] = (u[inside] / a) * (m[inside] / w_sub[inside])
    return Measure(P.space, density).normalized()
