"""Spectral triple computation and measurement of geometric convergence.

``power_iterate`` runs simultaneous right/left power sweeps, with Noda
steps where the measured contraction of the sweeps says they would stall,
to produce the dominant eigenvalue theta0, the nonnegative right
eigenfunction eta and the left eigenmeasure nu_P, normalized so that
nu_P(psi1) = nu_P(eta) = 1. Periodic and defective dominant spectra are
read off the support graph and the pair, not off non-convergence.
``measure_eq1_eq2`` walks the masses mu P_n once and reads off both the
ratio profile of eq1 and the theta0-normalized profile of eq2;
``measure_eq3`` evolves the whole normalized kernel for the uniform eq3
profile. Each fits a geometric envelope in ``_fit_geometric``, the one
place a verdict is decided. ``skeleton_analysis`` assembles the
continuous-time conclusions from the family [P_0, P_delta, ..., P_t0] of a
semigroup, walking the same eq1/eq2 masses under the step P_delta.
"""

from __future__ import annotations

from collections import deque
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
    """Right/left power sweeps with Noda steps for the dominant eigenpair.

    The right iteration starts from psi1 itself, the left iteration from the
    uniform density. Each iteration applies K to both iterates, takes
    theta0 as the two-sided Rayleigh quotient of the pair and stops once
    both residuals fall below ``tol`` relative to theta0. Otherwise it
    steps, renormalizing both iterates so that magnitudes stay O(1) for any
    theta0:

    * a power sweep replaces the pair by its images;
    * a Noda step (Noda 1971; quadratic convergence, Elsner 1976) solves
      ``(sigma I - K) y = f`` and ``(sigma I - K)^T z = m`` with sigma the
      larger of the right and left Collatz-Wielandt bounds
      ``max_i (K f)_i / f_i`` and ``max_j (m K)_j / m_j``. As sigma is at
      least theta0, both solutions are positive.

    An iteration takes the Noda step when the last residual ratio q says
    the sweeps still need ``log(tol / r) / log q`` more steps, and that is
    more than a Noda step costs in sweeps: N / 3, two N^3 / 3-flop LU
    factorizations against two 2 N^2-flop matvecs. The ratio needs four
    residuals and the Collatz-Wielandt bounds a strictly positive pair; a
    Noda step whose solve is singular or not positive is a sweep instead.
    A Noda step that does not lower the residual ends Noda steps for the
    rest of the loop: at the residual's round-off floor, or on a strongly
    non-normal kernel, the sweeps finish (or fail) at their own cost.
    ``iterations`` counts sweeps plus Noda steps, ``max_iter`` bounds both.

    Noda steps converge on periodic and on defective kernels too, so the
    verdict on those is read off the pair: after the loop, the period of
    the support graph on {eta > 0} and {nu_P > 0} must be 1, and the
    pairing nu_P(eta) of the unnormalized pair must have settled above
    round-off rather than fallen with the residual. Sweeps do not converge
    on a periodic kernel, so the period is read also after N sweeps in a
    row since the last Noda step that do not lower the least residual.

    Raises
    ------
    PowerIterationError
        On a zero operator, a period above 1 (named in the message), a
        defective dominant eigenvalue, or when ``max_iter`` iterations do
        not reach the tolerance; the error carries the residual history.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if np.any(psi1.values <= 0.0):
        raise ValueError("psi1 must be strictly positive")
    K = P.kernel
    w = P.space.ref_weights
    n = P.space.size
    psi = psi1.values
    f = psi.copy()  # ||f||_psi1 = 1
    m = np.ones(n) * w  # mass vector of the uniform density
    m = m / (m @ psi)  # mu(psi1) = 1
    history, pairing = [], []  # residual and m @ f of each pair
    theta = 0.0
    noda_ok, noda = True, False  # Noda steps allowed; the last step was one
    best, stale = np.inf, 0  # least residual; sweeps in a row that stayed above it
    # Overflow surfaces as theta = inf (or as a nan iterate, read as theta 0.0)
    # and raises below, so numpy's own warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            Pf = K @ f
            mP = m @ K
            num, denom = m @ Pf, m @ f
            theta = float(num / denom) if num > 0.0 and denom > 0.0 else 0.0
            if not np.isfinite(theta) or theta <= 0.0:
                raise PowerIterationError(
                    "operator drives the iterate to zero or out of the float "
                    f"range (theta estimate {theta})",
                    np.asarray(history),
                )
            res_right = np.max(np.abs(Pf - theta * f) / psi) / theta
            res_left = np.sum(np.abs(mP - theta * m)) / (theta * (m @ psi))
            history.append(max(res_right, res_left))
            pairing.append(denom)
            if history[-1] <= tol:
                break
            # A periodic pair cycles and never lowers its residual. Once N
            # sweeps after the last Noda step leave it above its least value,
            # the support of the pair has settled: read the period there.
            stale = 0 if noda or history[-1] < best else stale + 1
            best = min(best, history[-1])
            if stale == n:
                _check_aperiodic(K, f, m, history)
            # A Noda step that does not lower the residual (the round-off
            # floor, or a non-normal kernel) ends Noda steps: sweeps finish.
            noda_ok = noda_ok and not (noda and history[-1] >= history[-2])
            stall = noda_ok and _sweeps_stall(history, tol, n)
            step = _noda_step(K, f, m, Pf, mP) if stall else None
            noda = step is not None
            f, m = step if noda else (Pf, mP)
            f = f / np.max(f / psi)
            m = m / (m @ psi)
    _check_aperiodic(K, f, m, history)
    if history[-1] > tol:
        raise PowerIterationError(
            f"no convergence after {it} iterations (last residual "
            f"{history[-1]:.3e}, tolerance {tol:.1e})",
            np.asarray(history),
        )
    # Left and right eigenvectors of a defective eigenvalue are orthogonal:
    # the pairing of an approximate pair falls in proportion to its residual,
    # where that of a semisimple eigenvalue settles at a positive value. So
    # compare the last pair with the latest one whose residual stood 16 times
    # higher, reading a residual below machine epsilon as epsilon (round-off):
    # a fall of the pairing by the square root of the residual's fall, or
    # more, means it tracks the residual.
    res = max(history[-1], np.finfo(float).eps)
    back = [i for i, h in enumerate(history) if h >= 16.0 * res]
    falls = bool(back) and (
        pairing[-1] / pairing[back[-1]] <= np.sqrt(res / history[back[-1]])
    )
    if falls or not pairing[-1] > ROUNDOFF_REL:
        raise PowerIterationError(
            f"dominant eigenvalue is defective: nu_P(eta) = {pairing[-1]:.3e} "
            f"before normalization, at residual {history[-1]:.3e}",
            np.asarray(history),
        )
    nu = Measure(P.space, m / w)  # already nu(psi1) = 1
    eta = WeightedFunction(P.space, f / pairing[-1])  # nu(eta) = 1
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


def _sweeps_stall(history, tol, n) -> bool:
    """True when the sweeps, at the last residual ratio, need over n / 3 more."""
    if len(history) < 4:
        return False
    r, q = history[-1], history[-1] / history[-2]
    return q >= 1.0 or np.log(tol / r) / np.log(q) > n / 3


def _noda_step(K, f, m, Kf, mK):
    """Solutions y, z of the Noda step at the Collatz-Wielandt shift, or None.

    None when f or m is not strictly positive (no Collatz-Wielandt bound),
    when the shift is an eigenvalue (a singular solve) or when round-off
    leaves a solution that is not finite and positive.
    """
    if not (np.all(f > 0.0) and np.all(m > 0.0)):
        return None
    sigma = max(np.max(Kf / f), np.max(mK / m))
    A = -K
    A.flat[:: K.shape[0] + 1] += sigma
    try:
        y, z = np.linalg.solve(A, f), np.linalg.solve(A.T, m)
    except np.linalg.LinAlgError:
        return None
    if not all(np.all(v > 0.0) and np.all(np.isfinite(v)) for v in (y, z)):
        return None
    return y, z


def _check_aperiodic(K, f, m, history):
    """Raise unless the support graph on {f > 0} and {m > 0} has period 1."""
    prod = f * m
    period = _period(K, prod > 0.0, int(np.argmax(prod)))
    if period > 1:
        raise PowerIterationError(
            f"dominant class has period {period}: the dominant eigenvalue "
            "shares its modulus with other eigenvalues",
            np.asarray(history),
        )


def _period(K, member, root) -> int:
    """Period of the class of ``root`` in the graph of K on ``member``.

    The class is the states of ``member`` that root reaches and that reach
    root. The period is the gcd of level[u] + 1 - level[v] over the edges
    u -> v inside the class, with BFS levels from root (Denardo 1977); the
    search stops once the gcd is 1. K is read a row or a column at a time.
    """
    reaches_root = np.zeros(K.shape[0], dtype=bool)
    reaches_root[root] = True
    todo = np.flatnonzero(member & ~reaches_root)
    stack = [root]
    while stack and todo.size:
        hit = K[todo, stack.pop()] > 0.0
        reaches_root[todo[hit]] = True
        stack.extend(todo[hit].tolist())
        todo = todo[~hit]
    level = np.full(K.shape[0], -1)
    level[root] = 0
    queue, period = deque([root]), 0
    while queue and period != 1:
        u = queue.popleft()
        v = np.flatnonzero((K[u] > 0.0) & reaches_root)
        fresh = v[level[v] < 0]
        level[fresh] = level[u] + 1
        queue.extend(fresh.tolist())
        period = int(np.gcd.reduce(np.abs(level[u] + 1 - level[v]), initial=period))
    return period


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


class NonConvergingMassError(ArithmeticError):
    """The evolved mass vanished and the ratio profile cannot continue."""


def measure_eq1_eq2(
    P: TransferOperator,
    triple: SpectralTriple,
    psi1: WeightedFunction,
    psi2: WeightedFunction,
    mu: Measure,
    f: WeightedFunction,
    n_max: int,
) -> tuple[ConvergenceReport, ConvergenceReport]:
    """Profiles of eq1 and eq2 over n = 0..n_max, from one walk of mu P_n.

    eq1 is |mu P_n f / mu P_n psi1 - nu_P(f)|, its envelope scaled by
    mu(psi1)/mu(psi2); eq2 is |theta0^-n mu P_n f - mu(eta) nu_P(f)|,
    scaled by mu(psi1).
    """
    _check_dominated(f, psi1)
    mu_psi2 = mu.mass(psi2)
    if mu_psi2 <= 0.0:
        raise ValueError("initial measure must satisfy mu(psi2) > 0")
    e1, e2 = _eq1_eq2_walk(P.kernel, triple.theta0, triple, psi1, mu, f, n_max + 1)
    index = np.arange(n_max + 1)
    return (
        _fit_geometric("eq1", index, e1, mu.mass(psi1) / mu_psi2),
        _fit_geometric("eq2", index, e2, mu.mass(psi1)),
    )


def _eq1_eq2_walk(K, rate, triple, psi1, mu, f, steps):
    """eq1 and eq2 errors of the masses mu K^n, n < steps, ``rate`` for theta0.

    The walk divides the mass vector m by b = m(psi1) before each step, so
    the eq1 ratio m(f) / b is immune to overflow and underflow of the raw
    semigroup. eq2's rate^-n mu K^n f is that ratio times
    rate^-n mu K^n psi1, the running product of b / rate from mu(psi1) on,
    which decays to 0 rather than fails where mu(eta) = 0.
    """
    nu_f = triple.nu_P.mass(f)
    limit = mu.mass(triple.eta) * nu_f
    m = mu.masses.copy()
    e1, e2 = np.empty(steps), np.empty(steps)
    for n in range(steps):
        b = m @ psi1.values
        if b <= 0.0:
            raise NonConvergingMassError(
                f"mu P_n psi1 vanished at step {n}; profile is irrecoverable"
            )
        ratio = (m @ f.values) / b
        mass = mass * (b / rate) if n else b  # rate^-n mu K^n psi1
        e1[n] = abs(ratio - nu_f)
        e2[n] = abs(ratio * mass - limit)
        m = (m / b) @ K
    return e1, e2


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


def _consistency_residual(family):
    """Max relative defect of P_(i+j) = P_i P_j over the family's index pairs."""
    worst = 0.0
    worst_pair = None
    n = len(family) - 1
    for i in range(1, n):
        for j in range(1, n - i + 1):
            lhs = family[i].kernel @ family[j].kernel
            rhs = family[i + j].kernel
            denom = max(np.max(np.abs(rhs)), 1e-300)
            resid = float(np.max(np.abs(lhs - rhs)) / denom)
            if resid > worst:
                worst = resid
                worst_pair = (family[i].step_label, family[j].step_label)
    return worst, worst_pair


def half_probe(psi1: WeightedFunction) -> WeightedFunction:
    """The default test function: psi1 on the first half of the points, 0 after."""
    n = psi1.space.size
    half = np.zeros(n)
    half[: n // 2 + 1] = psi1.values[: n // 2 + 1]
    return WeightedFunction(psi1.space, half)


_SKELETON_PERIODS = 8
_CONSISTENCY_TOL = 1e-8


def skeleton_analysis(family, psi1: WeightedFunction) -> SkeletonReport:
    """Continuous-time analysis of a semigroup from its skeleton operators.

    ``family`` is the list [P_0, P_delta, ..., P_t0] of operators at the
    n + 1 equally spaced times k t0 / n, n >= 1, as
    ``build_diffusion_generator`` returns it: P_0 is the identity and each
    ``step_label`` is the member's time. The family must satisfy the
    semigroup identity P_(i+j) = P_i P_j within 1e-8; the eigen triple of
    P_t0 gives the growth rate ``lambda0 = log(theta0) / t0`` and, as its
    eigenfunction eta, the lower weight psi2. Every member is a power of the
    step S = P_delta, so the sandwich constants bound S^k psi1 / psi1 from
    above and S^k psi2 / psi2 from below for k = 0..n, and the convergence
    profiles walk mu S^k at rate theta0^(1/n) for 8 periods, from the
    uniform measure with test function ``half_probe(psi1)``.
    """
    if len(family) < 2:
        raise ValueError("family must hold P_0 and at least one later operator")
    space = family[0].space
    for op in family:
        if op.space is not space and op.space != space:
            raise SpaceMismatchError("family operators live on different spaces")
    resid, pair = _consistency_residual(family)
    if resid > _CONSISTENCY_TOL:
        raise SemigroupConsistencyError(
            f"family violates the semigroup law at pair {pair} "
            f"(residual {resid:.3e} > {_CONSISTENCY_TOL:g})"
        )
    n = len(family) - 1
    t0 = family[-1].step_label
    triple = power_iterate(family[-1], psi1)
    psi2 = triple.eta
    lambda0 = float(np.log(triple.theta0) / t0)

    S = family[1].kernel
    pos2 = psi2.values > 0.0
    c_bar, c_under = 0.0, np.inf
    sandwich = zip(orbit(S, psi1.values), orbit(S, psi2.values))
    for up, down in islice(sandwich, n + 1):
        c_bar = max(c_bar, float(np.max(up / psi1.values)))
        c_under = min(c_under, float(np.min(down[pos2] / psi2.values[pos2])))

    mu = Measure.uniform(space)
    f = half_probe(psi1)
    rate = triple.theta0 ** (1.0 / n)
    e1, e2 = _eq1_eq2_walk(S, rate, triple, psi1, mu, f, _SKELETON_PERIODS * n)
    labels = np.array([op.step_label for op in family[:-1]], dtype=float)
    ts = (t0 * np.arange(_SKELETON_PERIODS)[:, None] + labels).ravel()
    scale1 = mu.mass(psi1) / max(mu.mass(psi2), 1e-300)
    return SkeletonReport(
        lambda0=lambda0,
        c_bar=c_bar,
        c_under=c_under,
        triple=triple,
        eq1=_fit_geometric("eq1cont", ts, e1, scale1),
        eq2=_fit_geometric("eq2cont", ts, e2, mu.mass(psi1)),
        consistency_residual=resid,
        t0=t0,
    )
