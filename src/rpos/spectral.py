"""Spectral triple computation and measurement of geometric convergence.

``power_iterate`` runs simultaneous right/left power iterations to produce
the dominant eigenvalue theta0, the nonnegative right eigenfunction eta and
the left eigenmeasure nu_P, normalized so that nu_P(psi1) = nu_P(eta) = 1.
The ``measure_eq*`` routines evaluate, step by step, the left-hand sides of
the three geometric convergence inequalities the triple is supposed to
satisfy, and fit a geometric envelope to the measured profile.
``skeleton_analysis`` assembles the continuous-time conclusions from a
family of skeleton operators on a time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    ROUNDOFF_REL,
    Measure,
    SpaceMismatchError,
    TransferOperator,
    WeightedFunction,
    orbit,
)

class PowerIterationError(RuntimeError):
    """Iteration failed to converge; carries the relative residual history."""

    def __init__(self, message: str, history: np.ndarray):
        super().__init__(message)
        self.history = history


class SemigroupConsistencyError(RuntimeError):
    """A skeleton family violated P_{s+t} = P_s P_t; names the pair."""


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Dominant eigenvalue with its right eigenfunction and left eigenmeasure.

    Residuals are stored in absolute form: ``right_residual`` is
    ``||P eta - theta0 eta||_{psi1}`` and ``left_residual`` the total
    variation of ``nu_P P - theta0 nu_P`` (sum of absolute masses).
    """

    theta0: float
    eta: WeightedFunction
    nu_P: Measure
    right_residual: float
    left_residual: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "theta0": self.theta0,
            "eta": self.eta.values.tolist(),
            "nu_P": self.nu_P.density.tolist(),
            "right_residual": self.right_residual,
            "left_residual": self.left_residual,
            "iterations": self.iterations,
        }


def power_iterate(
    P: TransferOperator,
    psi1: WeightedFunction,
    tol: float = 1e-13,
    max_iter: int = 20000,
) -> SpectralTriple:
    """Simultaneous right/left power iteration for the dominant eigenpair.

    The right iteration starts from psi1 itself (so the iterates are exactly
    the normalized n-step images of psi1), the left iteration from the
    uniform density. Each sweep renormalizes both iterates, which keeps all
    magnitudes O(1) regardless of theta0; theta0 is the two-sided Rayleigh
    quotient of the current pair. Stops when both residuals fall below
    ``tol`` relative to theta0.

    Raises
    ------
    PowerIterationError
        On a zero operator, or when ``max_iter`` sweeps do not reach the
        tolerance (periodic or defective dominant spectrum); the error
        carries the residual history.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if np.any(psi1.values <= 0.0):
        raise ValueError("psi1 must be strictly positive")
    K = P.kernel
    w = P.space.ref_weights
    psi = psi1.values
    f = psi.copy()  # ||f||_psi1 = 1
    m = np.ones(P.space.size) * w  # mass vector of the uniform density
    m = m / (m @ psi)  # mu(psi1) = 1
    history = []
    theta = 0.0
    for it in range(1, max_iter + 1):
        Pf = K @ f
        mP = m @ K
        denom = m @ f
        theta = float((m @ Pf) / denom)
        if not np.isfinite(theta) or theta <= 0.0:
            raise PowerIterationError(
                f"operator drives the iterate to zero (theta estimate {theta})",
                np.asarray(history),
            )
        res_right = np.max(np.abs(Pf - theta * f) / psi) / theta
        res_left = np.sum(np.abs(mP - theta * m)) / (theta * (m @ psi))
        history.append(max(res_right, res_left))
        if history[-1] <= tol:
            break
        f = Pf / np.max(Pf / psi)
        m = mP / (mP @ psi)
    else:
        raise PowerIterationError(
            f"no convergence after {max_iter} iterations "
            f"(last residual {history[-1]:.3e})",
            np.asarray(history),
        )
    nu = Measure(P.space, m / w)  # already nu(psi1) = 1
    eta = WeightedFunction(P.space, f / (m @ f))  # nu(eta) = 1
    right_res = float(np.max(np.abs(K @ eta.values - theta * eta.values) / psi))
    left_res = float(np.sum(np.abs(m @ K - theta * m)))
    return SpectralTriple(
        theta0=theta,
        eta=eta,
        nu_P=nu,
        right_residual=right_res,
        left_residual=left_res,
        iterations=it,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Measured error profile of one convergence inequality plus its fit.

    ``index`` holds the step counts (or times, for continuous targets) the
    errors were measured at. The fitted envelope is
    ``fitted_constant * fitted_rate**n * scale``; ``fitted_constant`` is the
    smallest constant that dominates the whole fit window at the fitted
    rate, and ``passed`` additionally requires that this dominating constant
    stays within a factor 2 of the least-squares fit (so the profile really
    is geometric, not just bounded). Degenerate all-zero profiles report
    rate 0 and pass.
    """

    target: str
    index: np.ndarray
    errors: np.ndarray
    fitted_rate: float
    fitted_constant: float
    burn_in: float
    scale: float
    passed: bool

    def bound(self) -> np.ndarray:
        if self.fitted_rate <= 0.0:
            return np.zeros_like(self.errors)
        return self.fitted_constant * self.fitted_rate**self.index * self.scale

    def to_csv(self) -> str:
        lines = ["n,error,bound"]
        b = self.bound()
        for i, n in enumerate(self.index):
            n_txt = f"{int(n)}" if float(n).is_integer() else f"{n:.17g}"
            lines.append(f"{n_txt},{self.errors[i]:.17g},{b[i]:.17g}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "fitted_rate": self.fitted_rate,
            "fitted_constant": self.fitted_constant,
            "burn_in": self.burn_in,
            "scale": self.scale,
            "pass": self.passed,
        }


_SLACK = 1 + 1e-9  # relative slack of the fit's own comparisons


def _fit_geometric(target, index, errors, scale):
    """Least-squares geometric fit: the one place a verdict is decided.

    The window starts at sample ``max(5, (len - 1) // 5)`` (empty, and a
    fail, for five samples or fewer). A window at or below the round-off
    floor, ``ROUNDOFF_REL`` times the profile peak, passes degenerately
    with rate 0. Otherwise sub-floor points are excluded; if that leaves
    too few the window is relaxed to the second sample (the profile decayed
    faster than the burn-in). The fit then trims its window from the left
    while the dominating constant exceeds twice the least-squares constant,
    so a slow early transient cannot masquerade as the asymptotic rate; the
    reported burn_in is the start of the final window. A pass also needs a
    decayed tail: a last error above the floor may not exceed the window's
    first.
    """
    start = max(5, (len(index) - 1) // 5)
    burn_in = np.asarray(index)[start].item() if start < len(index) else start
    index = np.asarray(index, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if start >= index.size:
        return ConvergenceReport(target, index, errors, 0.0, 0.0, burn_in, scale, False)
    window = np.arange(index.size) >= start
    tail = errors[window]
    floor = float(np.max(errors)) * ROUNDOFF_REL
    if np.max(tail) <= floor:
        # Converged to round-off before the burn-in window: degenerate pass.
        return ConvergenceReport(target, index, errors, 0.0, 0.0, burn_in, scale, True)
    keep = window & (errors > floor)
    if np.count_nonzero(keep) < 3:
        keep = (index >= index[1]) & (errors > floor)
    if np.count_nonzero(keep) < 3:
        c_tail = float(np.max(tail)) / scale
        return ConvergenceReport(
            target, index, errors, 0.0, c_tail, burn_in, scale, False
        )
    rate = c_lsq = c_dom = 0.0
    for _ in range(8):
        x = index[keep]
        y = np.log(errors[keep])
        slope, intercept = np.polyfit(x, y, 1)
        rate = float(np.exp(slope))
        c_lsq = float(np.exp(intercept))
        with np.errstate(over="ignore"):
            dom = errors[keep] / np.power(rate, x)
        c_dom = float(np.max(dom)) / scale if np.all(np.isfinite(dom)) else np.inf
        if c_dom * scale <= 2.0 * c_lsq * _SLACK or np.count_nonzero(keep) < 6:
            break
        kept = np.flatnonzero(keep)
        keep[kept[: max(1, kept.size // 3)]] = False
    passed = bool(0.0 < rate < 1.0 and c_dom * scale <= 2.0 * c_lsq * _SLACK)
    if errors[-1] > floor and errors[-1] > errors[start] * _SLACK:
        passed = False  # the profile has not decayed across the window
    effective_burn = float(np.min(index[keep]))
    return ConvergenceReport(
        target, index, errors, rate, c_dom, effective_burn, scale, passed
    )


def _check_dominated(f: WeightedFunction, psi1: WeightedFunction):
    if np.any(np.abs(f.values) > psi1.values * (1 + ROUNDOFF_REL)):
        raise ValueError("test function must satisfy |f| <= psi1 pointwise")


def measure_eq1(
    P: TransferOperator,
    psi1: WeightedFunction,
    psi2: WeightedFunction,
    mu: Measure,
    f: WeightedFunction,
    n_max: int,
    triple: SpectralTriple | None = None,
) -> ConvergenceReport:
    """Profile of |mu P_n f / mu P_n psi1 - nu_P(f)| over n = 0..n_max.

    The expected envelope scales with mu(psi1)/mu(psi2). The evolved mass
    vector is renormalized each step by mu P_n psi1, so the ratio is immune
    to overflow and underflow of the raw semigroup.
    """
    _check_dominated(f, psi1)
    mu_psi2 = mu.mass(psi2)
    if mu_psi2 <= 0.0:
        raise ValueError("initial measure must satisfy mu(psi2) > 0")
    if triple is None:
        triple = power_iterate(P, psi1)
    scale = mu.mass(psi1) / mu_psi2
    nu_f = triple.nu_P.mass(f)
    m = mu.masses.copy()
    errors = np.empty(n_max + 1)
    for n in range(n_max + 1):
        b = m @ psi1.values
        if b <= 0.0:
            raise NonConvergingMassError(
                f"mu P_n psi1 vanished at step {n}; profile is irrecoverable"
            )
        errors[n] = abs((m @ f.values) / b - nu_f)
        m = (m / b) @ P.kernel
    return _fit_geometric("eq1", np.arange(n_max + 1), errors, scale)


class NonConvergingMassError(ArithmeticError):
    """The evolved mass vanished and the ratio profile cannot continue."""


def measure_eq2(
    P: TransferOperator,
    theta0: float,
    eta: WeightedFunction,
    nu_P: Measure,
    psi1: WeightedFunction,
    mu: Measure,
    f: WeightedFunction,
    n_max: int,
) -> ConvergenceReport:
    """Profile of |theta0^-n mu P_n f - mu(eta) nu_P(f)| over n = 0..n_max.

    The mass vector is divided by theta0 each step, so the evolved quantity
    stays O(1) for any magnitude of theta0.
    """
    _check_dominated(f, psi1)
    scale = mu.mass(psi1)
    limit = mu.mass(eta) * nu_P.mass(f)
    masses = islice(orbit(P.kernel, mu.masses, theta0, left=True), n_max + 1)
    errors = np.array([abs(m @ f.values - limit) for m in masses])
    return _fit_geometric("eq2", np.arange(n_max + 1), errors, scale)


def measure_eq3(
    P: TransferOperator,
    theta0: float,
    eta: WeightedFunction,
    nu_P: Measure,
    psi: WeightedFunction,
    n_max: int,
) -> ConvergenceReport:
    """Uniform profile zeta_n of the normalized semigroup against psi.

    zeta_n is the supremum over states x and over all |f| <= psi of
    ``|theta0^-n P_n f(x) - eta(x) nu_P(f)| / psi(x)``. On a finite space
    the per-point signed probes ``+-psi 1_{j}`` determine every such f by
    linearity, so the supremum is the psi-weighted L1 row norm of the
    difference between the normalized n-step kernel and its rank-one limit.
    """
    if np.any(psi.values <= 0.0):
        raise ValueError("psi must be strictly positive")
    target = np.outer(eta.values, nu_P.masses)
    kernels = islice(orbit(P.kernel, np.eye(P.space.size), theta0), n_max + 1)
    zeta = np.array(
        [np.max((np.abs(M - target) @ psi.values) / psi.values) for M in kernels]
    )
    return _fit_geometric("eq3", np.arange(n_max + 1), zeta, 1.0)


@dataclass(frozen=True, eq=False)
class SkeletonReport:
    """Continuous-time conclusions assembled from a skeleton family."""

    lambda0: float
    c_bar: float
    c_under: float
    triple: SpectralTriple
    eq1: ConvergenceReport
    eq2: ConvergenceReport
    consistency_residual: float
    t0: float

    @property
    def passed(self) -> bool:
        return (
            np.isfinite(self.c_bar)
            and self.c_under > 0.0
            and self.eq1.passed
            and self.eq2.passed
        )

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "c_bar": self.c_bar,
            "c_under": self.c_under,
            "t0": self.t0,
            "consistency_residual": self.consistency_residual,
            "triple": self.triple.to_dict(),
            "eq1cont": self.eq1.to_dict(),
            "eq2cont": self.eq2.to_dict(),
            "pass": self.passed,
        }


def _time_key(t: float) -> float:
    # Canonical dict key for a grid time; absorbs float round-off in sums.
    return round(float(t), 9)


def _consistency_residual(by_time):
    """Max relative defect of P_{s+t} = P_s P_t over pairs in the grid."""
    times = sorted(by_time)
    worst = 0.0
    worst_pair = None
    for s in times:
        if s <= 0.0:
            continue
        for t in times:
            if t <= 0.0 or _time_key(s + t) not in by_time:
                continue
            lhs = by_time[s].kernel @ by_time[t].kernel
            rhs = by_time[_time_key(s + t)].kernel
            denom = max(np.max(np.abs(rhs)), 1e-300)
            resid = float(np.max(np.abs(lhs - rhs)) / denom)
            if resid > worst:
                worst, worst_pair = resid, (s, t)
    return worst, worst_pair


def half_probe(psi1: WeightedFunction) -> WeightedFunction:
    """The default test function: psi1 on the first half of the points, 0 after."""
    n = psi1.space.size
    half = np.zeros(n)
    half[: n // 2 + 1] = psi1.values[: n // 2 + 1]
    return WeightedFunction(psi1.space, half)


_SKELETON_PERIODS = 8
_CONSISTENCY_TOL = 1e-8


def skeleton_analysis(family, t0: float, psi1: WeightedFunction) -> SkeletonReport:
    """Continuous-time analysis of a semigroup from its skeleton operators.

    ``family`` is a list of TransferOperators whose ``step_label`` fields are
    the (real) times of a grid containing t0 and intermediate times in
    [0, t0]. The family must satisfy the semigroup identity on the grid
    within 1e-8; the eigen triple of the t0 operator gives the growth rate
    ``lambda0 = log(theta0) / t0`` and, as its eigenfunction eta, the lower
    weight psi2. The sandwich constants bound P_t psi1 / psi1 from above
    and P_t psi2 / psi2 from below over the grid times inside [0, t0]. The
    convergence profiles start from the uniform measure, test
    ``half_probe(psi1)`` and run over the grid extended by composing with
    the t0 operator for 8 periods.
    """
    if not family:
        raise ValueError("family must contain at least one operator")
    space = family[0].space
    for op in family:
        if op.space is not space and op.space != space:
            raise SpaceMismatchError("family operators live on different spaces")
    by_time = {_time_key(op.step_label): op for op in family}
    if 0.0 not in by_time:
        by_time[0.0] = TransferOperator.identity(space, step_label=0.0)
    times = sorted(by_time)
    t0 = _time_key(t0)
    if t0 not in by_time:
        raise ValueError(f"family does not contain the skeleton time t0 = {t0}")
    resid, pair = _consistency_residual(by_time)
    if resid > _CONSISTENCY_TOL:
        raise SemigroupConsistencyError(
            f"family violates the semigroup law at pair {pair} "
            f"(residual {resid:.3e} > {_CONSISTENCY_TOL:g})"
        )
    triple = power_iterate(by_time[t0], psi1)
    psi2 = triple.eta
    lambda0 = float(np.log(triple.theta0) / t0)

    head = [t for t in times if 0.0 <= t <= t0]
    c_bar = 0.0
    c_under = np.inf
    pos2 = psi2.values > 0.0
    for t in head:
        K = by_time[t].kernel
        c_bar = max(c_bar, float(np.max((K @ psi1.values) / psi1.values)))
        if pos2.any():
            c_under = min(
                c_under,
                float(np.min((K @ psi2.values)[pos2] / psi2.values[pos2])),
            )

    mu = Measure.uniform(space)
    f = half_probe(psi1)

    nu_f = triple.nu_P.mass(f)
    limit2 = mu.mass(triple.eta) * nu_f
    grid = [t for t in times if 0.0 <= t < t0]
    ts, e1, e2 = [], [], []
    periods = orbit(by_time[t0].kernel, mu.masses, left=True)
    for k, m_base in enumerate(islice(periods, _SKELETON_PERIODS)):
        for t in grid:
            m_t = m_base @ by_time[t].kernel if t > 0.0 else m_base
            tt = k * t0 + t
            b = m_t @ psi1.values
            if b <= 0.0:
                raise NonConvergingMassError(f"mu P_t psi1 vanished at t = {tt}")
            ts.append(tt)
            e1.append(abs((m_t @ f.values) / b - nu_f))
            e2.append(
                abs((m_t @ f.values) * triple.theta0 ** (-(tt / t0)) - limit2)
            )
    scale1 = mu.mass(psi1) / max(mu.mass(psi2), 1e-300)
    rep1 = _fit_geometric("eq1cont", ts, e1, scale1)
    rep2 = _fit_geometric("eq2cont", ts, e2, mu.mass(psi1))
    return SkeletonReport(
        lambda0=lambda0,
        c_bar=c_bar,
        c_under=float(c_under),
        triple=triple,
        eq1=rep1,
        eq2=rep2,
        consistency_residual=resid,
        t0=t0,
    )
