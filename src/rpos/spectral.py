"""Spectral triple computation and measurement of geometric convergence.

``power_iterate`` runs simultaneous right/left power sweeps, with Noda
steps where the measured contraction of the sweeps says they would stall,
to produce the dominant eigenvalue theta0, the nonnegative right
eigenfunction eta and the left eigenmeasure nu_P, normalized so that
nu_P(psi1) = nu_P(eta) = 1. Periodic and defective dominant spectra are
read off the support graph and the pair, not off non-convergence.
``measure_eq1_eq2`` walks the masses mu P_n once and reads off both the
ratio profile of eq1 and the theta0-normalized profile of eq2;
``measure_eq3`` evolves the whole kernel, normalized by the triple, for
the uniform eq3 profile: at the kernel's numerical rank r, one SVD and
then N^2 r flops a step; at full rank, the dense N^3 orbit. Each fits a
geometric envelope in ``_fit_geometric``, the one place a verdict is
decided.
``skeleton_analysis`` assembles the continuous-time conclusions from a
semigroup's step P_delta, the number n of steps to t0 and t0 itself: it
powers the step to P_t0 = P_delta^n for the triple and walks the eq1/eq2
masses under the step with the same function, ``_eq1_eq2``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (
    ROUNDOFF_REL,
    Measure,
    NonFiniteError,
    TransferOperator,
    WeightedFunction,
    orbit,
)

#: Most iterations (sweeps plus Noda steps) ``power_iterate`` takes.
_MAX_ITER = 20000


class PowerIterationError(RuntimeError):
    """Iteration failed to converge; carries the relative residual history."""

    def __init__(self, message: str, history: np.ndarray):
        super().__init__(message)
        self.history = history


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


def power_iterate(
    P: TransferOperator,
    psi1: WeightedFunction,
    tol: float = 1e-13,
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
    A Noda step that does not lower the least residual so far (at the
    residual's round-off floor, or on a strongly non-normal kernel) is
    followed by ``max(1, N // 3)`` sweeps, the cost of one Noda step,
    before the next one is tried. ``iterations`` counts sweeps plus Noda
    steps; at most 20000 are taken.

    Noda steps converge on periodic and on defective kernels too, so the
    verdict on those is read off the pair: after the loop, the period of
    the support graph on {eta > 0} and {nu_P > 0} must be 1, and the
    pairing nu_P(eta) of the unnormalized pair must not have fallen with
    the residual. That relative test is the only defectiveness rule; a
    pairing that is small but settled belongs to a semisimple eigenvalue.
    Sweeps do not converge on a periodic kernel, so the period is read
    also after N sweeps in a row since the last Noda step that do not
    lower the least residual.

    Raises
    ------
    PowerIterationError
        On a zero operator, a period above 1 (named in the message), a
        defective dominant eigenvalue, or when 20000 iterations do not
        reach the tolerance; the error carries the residual history.
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
    resume, noda = 1, False  # first iteration open to a Noda step; the last step was one
    best, stale = np.inf, 0  # least residual; sweeps in a row that stayed above it
    # Overflow surfaces as theta = inf (or as a nan iterate, read as theta 0.0)
    # and raises below, so numpy's own warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _MAX_ITER + 1):
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
            # A Noda step that does not lower the least residual (the
            # round-off floor, or a non-normal kernel) is followed by the
            # sweeps that one Noda step costs before the next is tried.
            if noda and history[-1] >= best:
                resume = it + max(1, n // 3)
            best = min(best, history[-1])
            if stale == n:
                _check_aperiodic(K, f, m, history)
            stall = it >= resume and _sweeps_stall(history, tol, n)
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
    if falls:
        raise PowerIterationError(
            f"dominant eigenvalue is defective: nu_P(eta) = {pairing[-1]:.3e} "
            f"before normalization, at residual {history[-1]:.3e}",
            np.asarray(history),
        )
    nu = Measure(P.space, m / w)  # already nu(psi1) = 1
    eta = WeightedFunction(P.space, f / pairing[-1])  # nu(eta) = 1
    right_res = float(np.max(np.abs(K @ eta.values - theta * eta.values) / psi))
    left_res = float(np.sum(np.abs(mP - theta * m)))
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
    scaled by mu(psi1). ``_eq1_eq2`` measures them, as it does the
    continuous-time profiles of ``skeleton_analysis``.
    """
    index = np.arange(n_max + 1)
    return _eq1_eq2(P.kernel, triple.theta0, triple, psi1, psi2, mu, f, index, "")


def _eq1_eq2(K, rate, triple, psi1, psi2, mu, f, index, suffix):
    """Fitted eq1 and eq2 profiles of the masses mu K^n, n = 0, 1, ..., one per ``index`` entry.

    ``rate`` stands for theta0 and ``suffix`` ends both targets' names. The
    walk divides the mass vector m by b = m(psi1) before each step, so the
    eq1 ratio m(f) / b is immune to overflow and underflow of the raw
    semigroup. eq2's rate^-n mu K^n f is that ratio times
    rate^-n mu K^n psi1, the running product of b / rate from mu(psi1) on,
    which decays to 0 rather than fails where mu(eta) = 0.
    """
    _check_dominated(f, psi1)
    mu_psi2 = mu.mass(psi2)
    if mu_psi2 <= 0.0:
        raise ValueError("initial measure must satisfy mu(psi2) > 0")
    nu_f = triple.nu_P.mass(f)
    limit = mu.mass(triple.eta) * nu_f
    m = mu.masses.copy()
    e1, e2 = np.empty(len(index)), np.empty(len(index))
    for n in range(len(index)):
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
    return (
        _fit_geometric("eq1" + suffix, index, e1, mu.mass(psi1) / mu_psi2),
        _fit_geometric("eq2" + suffix, index, e2, mu.mass(psi1)),
    )


def measure_eq3(
    P: TransferOperator,
    triple: SpectralTriple,
    psi: WeightedFunction,
    n_max: int,
) -> ConvergenceReport:
    """Uniform profile zeta_n of the normalized semigroup against psi.

    zeta_n is the supremum over states x and over all |f| <= psi of
    ``|theta0^-n P_n f(x) - eta(x) nu_P(f)| / psi(x)``, with theta0, eta
    and nu_P those of ``triple``. On a finite space the per-point signed
    probes ``+-psi 1_{j}`` determine every such f by linearity, so the
    supremum is the psi-weighted L1 row norm of the difference between the
    normalized n-step kernel and its rank-one limit.

    The differences come from ``_eq3_differences``. Raises NonFiniteError
    naming the step n and the first non-finite row, of the difference or of
    the iterate that overflowed before it, on either branch alike.
    """
    if np.any(psi.values <= 0.0):
        raise ValueError("psi must be strictly positive")
    p = psi.values
    zeta = np.empty(n_max + 1)
    # A non-finite difference surfaces as a non-finite zeta_n and raises
    # below, so numpy's own overflow warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for n, D in enumerate(islice(_eq3_differences(P.kernel, triple), n_max + 1)):
                rows = (np.abs(D, out=D) @ p) / p
                zeta[n] = np.max(rows)
                if not np.isfinite(zeta[n]):
                    row = int(np.flatnonzero(~np.isfinite(rows))[0])
                    break
            else:
                return _fit_geometric("eq3", np.arange(n_max + 1), zeta, 1.0)
        except NonFiniteError as err:
            # Both orbits of _eq3_differences start at n = 1: orbit step k is eq3 step k + 1.
            n, row = err.step + 1, err.index
    raise NonFiniteError(f"eq3 step {n} is non-finite at row {row}", row, n)


def _eq3_differences(K, triple):
    """Yield theta0^-n K^n - eta nu_P for n = 0, 1, ..., all in one N x N work array.

    The caller may overwrite each yielded array. Let r be the number of
    singular values of K above N eps sigma1 (``np.linalg.matrix_rank``'s
    cut). When r (N + r) < N^2, K is taken as U_r diag(s_r) V_r^T and the
    difference is ``left @ right_n`` with left = [U_r diag(s_r) / theta0 |
    eta] and right_n = [C^(n-1) V_r^T; -nu_P], C = V_r^T U_r diag(s_r) /
    theta0: one N x (r+1) x N product a step. Otherwise, or when the SVD
    does not converge, the dense orbit of K / theta0 is taken, N^3 a step.
    """
    theta0, eta, nu = triple.theta0, triple.eta.values, triple.nu_P.masses
    N = K.shape[0]
    factors = _low_rank(K, theta0, eta)  # before the work array: less peak memory
    buf = np.outer(eta, -nu)
    buf.flat[:: N + 1] += 1.0  # n = 0: I - eta nu_P, bit for bit
    yield buf
    if factors is None:
        target = np.outer(eta, nu)
        # K @ I == K bit for bit, so the orbit starts at K / theta0 and skips that product
        for M in orbit(K, K / theta0, theta0):
            yield np.subtract(M, target, out=buf)
    else:
        left, top, C = factors
        right = np.vstack([top, -nu])
        for R in orbit(C, top):  # C^(n-1) V_r^T
            right[:-1] = R
            yield np.matmul(left, right, out=buf)


def _low_rank(K, theta0, eta):
    """``left``, V_r^T and C of ``_eq3_differences``, or None.

    None when K has numerical rank r with r (N + r) >= N^2, where the
    factored step costs more than the dense one, or when the SVD does not
    converge.
    """
    N = K.shape[0]
    try:
        U, s, Vt = np.linalg.svd(K)
    except np.linalg.LinAlgError:
        return None
    r = int(np.count_nonzero(s > N * np.finfo(float).eps * s[0]))
    if r * (N + r) >= N * N:
        return None
    scale = s[:r] / theta0
    left = np.column_stack([U[:, :r] * scale, eta])
    return left, Vt[:r].copy(), (Vt[:r] @ U[:, :r]) * scale  # no view keeps U or Vt


@dataclass(frozen=True, eq=False)
class SkeletonReport:
    """Continuous-time conclusions assembled from a skeleton step and its power P_t0."""

    lambda0: float
    c_bar: float
    c_under: float
    triple: SpectralTriple
    eq1: ConvergenceReport
    eq2: ConvergenceReport
    t0: float

    @property
    def passed(self) -> bool:
        return (
            np.isfinite(self.c_bar)
            and self.c_under > 0.0
            and self.eq1.passed
            and self.eq2.passed
        )


def half_probe(psi1: WeightedFunction) -> WeightedFunction:
    """The default test function: psi1 on the first half of the points, 0 after."""
    n = psi1.space.size
    half = np.zeros(n)
    half[: n // 2 + 1] = psi1.values[: n // 2 + 1]
    return WeightedFunction(psi1.space, half)


_SKELETON_PERIODS = 8


def skeleton_analysis(
    step: TransferOperator, n: int, t0: float, psi1: WeightedFunction
) -> SkeletonReport:
    """Continuous-time analysis of a semigroup from its skeleton step.

    ``step`` is S = P_delta at delta = t0 / n, n >= 1 and 0 < t0 < inf, as
    ``build_diffusion_generator`` makes it; P_t0 is S^n by
    ``np.linalg.matrix_power`` and the skeleton times are
    ``linspace(0, t0, n + 1)``.
    The eigen triple of P_t0 gives the growth rate ``lambda0 = log(theta0) /
    t0`` and, as its eigenfunction eta, the lower weight psi2. The sandwich
    constants bound S^k psi1 / psi1 from above and S^k psi2 / psi2 from below
    for k = 0..n. eq1cont and eq2cont are measured by ``_eq1_eq2``, as
    ``measure_eq1_eq2`` measures eq1 and eq2: the walk of mu S^k at rate
    theta0^(1/n) for 8 periods, from the uniform measure with test function
    ``half_probe(psi1)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < t0 < np.inf:
        raise ValueError(f"t0 is {t0!r}, not a finite t0 > 0")
    space = step.space
    S = step.kernel
    triple = power_iterate(TransferOperator(space, np.linalg.matrix_power(S, n)), psi1)
    psi2 = triple.eta
    lambda0 = float(np.log(triple.theta0) / t0)

    pos2 = psi2.values > 0.0
    c_bar, c_under = 0.0, np.inf
    sandwich = zip(orbit(S, psi1.values), orbit(S, psi2.values))
    for up, down in islice(sandwich, n + 1):
        c_bar = max(c_bar, float(np.max(up / psi1.values)))
        c_under = min(c_under, float(np.min(down[pos2] / psi2.values[pos2])))

    mu = Measure.uniform(space)
    labels = np.linspace(0.0, t0, n + 1)[:-1]
    ts = (t0 * np.arange(_SKELETON_PERIODS)[:, None] + labels).ravel()
    rate = triple.theta0 ** (1.0 / n)
    eq1, eq2 = _eq1_eq2(S, rate, triple, psi1, psi2, mu, half_probe(psi1), ts, "cont")
    return SkeletonReport(
        lambda0=lambda0,
        c_bar=c_bar,
        c_under=c_under,
        triple=triple,
        eq1=eq1,
        eq2=eq2,
        t0=t0,
    )
