"""Desk-scale application models: a penalized Gaussian-step map and a
killed diffusion, plus an independent Monte Carlo estimator used as a
cross-validation oracle.

The map model evolves ``X_{n+1} = F(X_n) + xi_n`` with i.i.d. Gaussian
noise, multiplies a positive penalty G per step and kills outside a domain;
its one-step operator is discretized by collocation of the Gaussian
transition density against the grid weights, which keeps every kernel entry
strictly positive (the minorization and aperiodicity checks rely on that).
The diffusion model is ``dX = b(X) dt + dB`` on the positive orthant with a
potential r and killing at the boundary and at the truncation box; its
generator is a central finite-difference matrix exponentiated by
uniformization, which preserves nonnegativity exactly, to one skeleton step
P_delta: ``skeleton_analysis`` powers it to P_t0 and ``girsanov_check``
applies it to a vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .condition_g import (
    GReport,
    SmallSetSearchError,
    build_psi2_auto,
    check_condition_g,
    select_small_set,
)
from .core import (
    ROUNDOFF_REL,
    Measure,
    NonFiniteError,
    StateSpace,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
    orbit,
)
from .spectral import (
    ConvergenceReport,
    SpectralTriple,
    measure_eq1_eq2,
    power_iterate,
)


class GridCoverageError(ValueError):
    """The grid box loses too much transition mass; carries the measured leak."""

    def __init__(self, message: str, leak: float):
        super().__init__(message)
        self.leak = leak


class StabilityError(ValueError):
    """Mesh too coarse for positive off-diagonal rates; names the node."""


class ConfigError(ValueError):
    """Malformed model configuration."""


# ---------------------------------------------------------------------------
# named function catalog (closed set; arbitrary expressions are out of scope)

def vector_field(spec: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Build a map R^d -> R^d from a catalog selector.

    Selectors: ``const:v``, ``linear:c`` (c*x), ``affine:c0,c1`` (c0 + c1*x,
    applied per coordinate), ``zero``. The map writes into ``out`` if given.
    """
    name, params = _split_spec(spec)
    if name == "zero":
        return lambda x, out=None: _filled(np.shape(x), 0.0, out)
    if name == "const":
        (v,) = _floats(params, 1, spec)
        return lambda x, out=None: _filled(np.shape(x), v, out)
    if name == "linear":
        (c,) = _floats(params, 1, spec)
        return lambda x, out=None: np.multiply(c, x, out=out)
    if name == "affine":
        c0, c1 = _floats(params, 2, spec)
        return lambda x, out=None: np.add(c0, np.multiply(c1, x, out=out), out=out)
    raise ConfigError(f"unknown vector field selector '{spec}'")


def scalar_field(spec: str) -> Callable[[np.ndarray], np.ndarray]:
    """Build a scalar function on R^d from a catalog selector.

    Selectors: ``const:v``, ``exp_abs:a`` (exp(a |x|)), ``affine_sum:c0,c1``
    (c0 + c1 * sum_i x_i), ``zero``. The function writes into ``out`` if given.
    """
    name, params = _split_spec(spec)
    if name == "zero":
        return lambda x, out=None: _filled(x.shape[0], 0.0, out)
    if name == "const":
        (v,) = _floats(params, 1, spec)
        return lambda x, out=None: _filled(x.shape[0], v, out)
    if name == "exp_abs":
        (a,) = _floats(params, 1, spec)
        return lambda x, out=None: np.exp(a * np.linalg.norm(x, axis=1), out=out)
    if name == "affine_sum":
        c0, c1 = _floats(params, 2, spec)
        return lambda x, out=None: np.add(
            c0, np.multiply(c1, np.sum(x, axis=1, out=out), out=out), out=out
        )
    raise ConfigError(f"unknown scalar field selector '{spec}'")


def _filled(shape, v, out):
    if out is None:
        return np.full(shape, v)
    out.fill(v)
    return out


def _split_spec(spec: str):
    head, _, tail = str(spec).partition(":")
    return head.strip(), tail


def _floats(tail: str, count: int, spec: str):
    try:
        vals = [float(tok) for tok in tail.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad numeric parameters in '{spec}'") from err
    if len(vals) != count or not all(map(math.isfinite, vals)):
        raise ConfigError(f"selector '{spec}' needs {count} finite parameter(s)")
    return vals


# ---------------------------------------------------------------------------
# perturbed-map model

@dataclass(frozen=True, eq=False)
class PdsModel:
    """Penalized Gaussian-step map at desk scale.

    The grid has ``grid_n`` cells per dimension on the box [-L, L]^d. The
    box only truncates the discretization and must cover the effective
    support; leaked transition mass is measured at build time. ``box``
    kills outside that box; without it nothing is killed. ``p`` and ``a``
    are the growth certificate exponents (the weight is exp(a |x|));
    admissibility requires p > 1 and 1/a < p - 1.
    """

    F: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    noise_sd: float
    grid_n: int
    L: float
    p: float
    a: float
    dim: int = 1
    box: bool = False

    def __post_init__(self):
        if not self.noise_sd > 0.0:
            raise ConfigError("noise_sd must be positive")
        if not self.p > 1.0:
            raise ConfigError("p must exceed 1")
        if not (self.a > 0.0 and 1.0 / self.a < self.p - 1.0):
            raise ConfigError("need a > 0 with 1/a < p - 1")
        if self.dim not in (1, 2):
            raise ConfigError("only dim 1 and 2 are supported")
        if not (0.0 < self.L < math.inf and self.grid_n >= 1):
            raise ConfigError("need finite L > 0 and grid_n >= 1")

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        """Membership of points (N, d) in the killing-free region."""
        if not self.box:
            return np.ones(x.shape[0], dtype=bool)
        return np.all(np.abs(x) <= self.L, axis=1)


class PdsKernel(NamedTuple):
    operator: TransferOperator
    psi1: WeightedFunction
    #: per-row plain Gaussian mass escaping the grid box
    row_leak: np.ndarray
    #: per-row exp(a|x|)-weighted leak bound relative to psi1 at the source
    psi1_leak: np.ndarray


def _mesh(axes):
    """The product grid of ``axes`` as (N, d) points, the first axis varying slowest."""
    return np.column_stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")])


def _grid_points(model: PdsModel):
    """The cell midpoints of the map grid and the cell weight, h times itself d times
    (``h ** 2`` can differ from ``h * h`` in the last bit)."""
    L, n = model.L, model.grid_n
    h = (L - (-L)) / n
    return _mesh([-L + h * (np.arange(n) + 0.5)] * model.dim), math.prod([h] * model.dim)


#: Largest share of one row's transition mass the grid box may lose.
_MAX_LEAK = 0.01


def build_pds_kernel(model: PdsModel) -> PdsKernel:
    """Collocation discretization of the one-step penalized transition.

    Kernel entry (i, j) is ``w_j G(x_j) phi(x_j - F(x_i))`` with phi the
    Gaussian step density (midpoint quadrature over the destination cell),
    zeroed outside the killing-free region. The per-row Gaussian mass lost
    beyond the grid box is computed in closed form; the build fails when it
    exceeds 1%.
    """
    # Imported here, as scipy.sparse is in _uniformized: at module level it
    # adds scipy.special to every import of rpos.
    from scipy.special import ndtr

    pts, cell_w = _grid_points(model)
    n = pts.shape[0]
    space = StateSpace(pts, np.full(n, cell_w))
    Fx = np.asarray(model.F(pts), dtype=float).reshape(n, model.dim)
    sd = model.noise_sd

    # In one work array: exp(-0.5 ((x_j - F(x_i)) / sd)^2) / (sd sqrt(2 pi)), in order.
    kernel, work = np.ones((n, n)), np.empty((n, n))
    for d in range(model.dim):
        np.subtract(pts[None, :, d], Fx[:, None, d], out=work)
        work /= sd
        np.square(work, out=work)
        np.multiply(-0.5, work, out=work)
        np.exp(work, out=work)
        work /= sd * math.sqrt(2.0 * math.pi)
        kernel *= work
    del work  # before TransferOperator copies the kernel
    g_vals = np.asarray(model.G(pts), dtype=float)
    if np.any(g_vals <= 0.0):
        raise ConfigError("penalty G must be positive on the grid")
    alive = model.in_domain(pts)
    kernel *= cell_w * g_vals[None, :] * alive[None, :]

    inside = np.ones(n)
    psi_tail = np.zeros(n)
    for d in range(model.dim):
        m = Fx[:, d]
        inside = inside * (ndtr((model.L - m) / sd) - ndtr((-model.L - m) / sd))
        psi_tail = psi_tail + _exp_weighted_tail(m, sd, model.L, model.a)
    row_leak = 1.0 - inside
    worst = float(np.max(row_leak))
    if worst > _MAX_LEAK:
        raise GridCoverageError(
            f"grid box loses {worst:.3%} of the transition mass in one step "
            f"(limit {_MAX_LEAK:.1%}); widen the grid",
            leak=worst,
        )
    psi1 = WeightedFunction(space, np.exp(model.a * np.linalg.norm(pts, axis=1)))
    psi1_leak = psi_tail / psi1.values
    return PdsKernel(
        operator=TransferOperator(space, kernel),
        psi1=psi1,
        row_leak=row_leak,
        psi1_leak=psi1_leak,
    )


def _exp_weighted_tail(m, sd, L, a):
    """Closed form of E[e^{a|Y|} 1_{Y outside [-L, L]}], Y ~ N(m, sd^2).

    Bounds |y| by the coordinate magnitude (exact in one dimension, a
    product upper bound across dimensions).
    """
    from scipy.special import ndtr

    up = np.exp(a * m + 0.5 * (a * sd) ** 2) * ndtr((m + a * sd**2 - L) / sd)
    lowtail = np.exp(-a * m + 0.5 * (a * sd) ** 2) * ndtr((-L - (m - a * sd**2)) / sd)
    return up + lowtail


# ---------------------------------------------------------------------------
# killed diffusion model

@dataclass(frozen=True, eq=False)
class DiffusionModel:
    """Drift-plus-Brownian motion on the positive orthant with a potential.

    Killed at the orthant boundary and at the truncation faces x_i = L (the
    truncation kill is conservative: it only lowers the growth rate). The
    mesh has ``grid_n`` interior nodes per dimension, ``h = L / (n + 1)``.
    ``b`` and ``r`` are catalog fields: the Monte Carlo loop passes ``out``.
    """

    b: Callable[..., np.ndarray]
    r: Callable[..., np.ndarray]
    L: float
    grid_n: int
    t0: float
    dim: int = 1

    def __post_init__(self):
        if not (0.0 < self.L < math.inf and self.grid_n >= 2 and 0.0 < self.t0 < math.inf):
            raise ConfigError("need finite L > 0, grid_n >= 2 and finite t0 > 0")
        if self.dim not in (1, 2):
            raise ConfigError("only dim 1 and 2 are supported")

    @property
    def h(self) -> float:
        return self.L / (self.grid_n + 1)


def _assemble_generator(model, space, drift, kill, name):
    """Central differences for 1/2 Laplacian + drift grad - kill; errors name the drift."""
    h = model.h
    n_axis = model.grid_n
    pts = space.points
    N = space.size
    A = np.zeros((N, N))
    diag = -model.dim / h**2 - kill
    for d in range(model.dim):
        bd = drift[:, d]
        up = 0.5 / h**2 + bd / (2.0 * h)
        down = 0.5 / h**2 - bd / (2.0 * h)
        bad = np.flatnonzero((up < 0.0) | (down < 0.0))
        if bad.size:
            i = int(bad[0])
            h_ok = 1.0 / np.max(np.abs(drift))
            raise StabilityError(
                f"{name}: off-diagonal rate negative at node {i} (x = {pts[i]}); "
                f"need h <= {h_ok:.4g}, got h = {h:.4g}"
            )
        stride = n_axis ** (model.dim - 1 - d)  # _mesh varies the first axis slowest
        axis_index = (np.arange(N) // stride) % n_axis
        has_up = axis_index < n_axis - 1
        has_down = axis_index > 0
        rows = np.arange(N)
        A[rows[has_up], rows[has_up] + stride] += up[has_up]
        A[rows[has_down], rows[has_down] - stride] += down[has_down]
    A[np.arange(N), np.arange(N)] += diag
    return A


#: Largest ``Lambda dt`` summed as one Poisson series from the identity;
#: longer intervals are halved. On the benchmark's three stencils (N = 400,
#: 600 and 784; build and skeleton, best of 7, one BLAS thread, 2 shared Xeon
#: vCPUs) the limits 8, 16, 32 and 64 took 0.28-0.30, 0.24-0.26, 0.23-0.24
#: and 0.23-0.24 s.
_RATE_DT_MAX = 16.0


def uniformized_exponential(A: np.ndarray, t: float) -> np.ndarray:
    """exp(t A) for a generator with nonnegative off-diagonals, as a dense array.

    The Poisson series of ``_uniformized`` from the identity, on the step
    t / 2^h, squared back h times. The squarings are dense and preserve
    entrywise nonnegativity exactly (unlike Pade scaling-and-squaring). A
    generator holding inf or NaN, or a result past the float range, raises
    NonFiniteError.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    acc, _, halvings = _uniformized(A, t, np.eye(A.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(halvings):
            acc = acc @ acc
    return _finite(acc, f"exp(t A) overflows at t = {t:.6g}")


def _uniformized(A: np.ndarray, t: float, start: np.ndarray) -> tuple[np.ndarray, int, int]:
    """exp(dt A) start, its Poisson cut K and h, for dt = t / 2^h.

    ``start`` is the identity or the ones vector. With the diagonal shifted
    nonpositive, ``B = A - shift I = Lambda (M - I)``, where Lambda = max(max
    -B_ii, max row sum of B) keeps M nonnegative with row sums at most 2, so
    exp(dt A) = e^(shift dt) sum_k Poisson(Lambda dt)_k M^k. Only a matrix
    can be squared back, so only the identity is halved, to the longest
    step with Lambda dt <= _RATE_DT_MAX. The weights of 0..K are normalized
    by their sum, so the cut takes the Poisson(nu) tail at nu = Lambda dt
    max(1, ||M||_inf): it bounds the terms ``(Lambda dt)^k / k! ||M^k||_inf``
    and holds all but the tail of Poisson(Lambda dt). K is the first K >= nu
    whose tail bound is at most ``ROUNDOFF_REL / 2^h``, since the h
    squarings multiply the truncation error by up to 2^h. The terms are
    summed by Horner, one sparse product of M a term.
    """
    # Imported here: at module level it adds 1-2 MB and ~15 ms to every import
    # of rpos, and only the diffusion model needs it.
    from scipy.sparse import csr_array

    _finite(A, "generator is non-finite")
    n = A.shape[0]
    shift = max(float(np.max(np.diag(A))), 0.0)
    B = A - shift * np.eye(n) if shift > 0.0 else A
    if not B.any():
        return _exp(shift * t, t) * start, 0, 0
    top_row = float(np.max(B.sum(axis=1)))
    lam = max(float(np.max(-np.diag(B))), top_row)
    halvings, dt = 0, t
    while start.ndim == 2 and lam * dt > _RATE_DT_MAX:
        dt /= 2.0
        halvings += 1
    mu = lam * dt
    nu = mu * max(1.0, 1.0 + top_row / lam)  # Lambda dt max(1, ||M||_inf)
    if not math.isfinite(nu):
        raise NonFiniteError(f"exp(t A) has a non-finite Poisson rate at t = {t:.6g}")
    K = _poisson_cut(nu, math.ldexp(ROUNDOFF_REL, -halvings))
    w = _poisson_weights(mu, K) * _exp(shift * dt, t)
    pattern = B != 0.0
    np.fill_diagonal(pattern, True)
    rows, cols = np.nonzero(pattern)
    vals = B[rows, cols] / lam
    vals[rows == cols] += 1.0
    M = csr_array((vals, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    # the weights go on start's support: the diagonal of I, every entry of 1
    support = np.diag_indices(n) if start.ndim == 2 else slice(None)
    acc = w[-1] * start
    # sparse @ dense runs straight as CSR matvecs, while dense @ sparse would
    # transpose and copy the partial sum on every step
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(w[:-1]):
            acc = M @ acc
            acc[support] += c
    return _finite(acc, f"exp(t A) overflows at t = {t:.6g}"), K, halvings


def _poisson_cut(nu: float, tol: float) -> int:
    """The first K >= nu with the Poisson(nu) tail past K bounded by ``tol``
    times the weights up to K; the bound is the geometric ``w_K nu / (K + 1 - nu)``.

    Carries q = w_k / sum_{j <= k} w_j, so no weight under- or overflows.
    """
    k, q = 0, 1.0
    while k < nu or q * nu / (k + 1 - nu) > tol:
        k += 1
        x = q * nu / k
        q = x / (1.0 + x)
    return k


def _poisson_weights(nu: float, K: int) -> np.ndarray:
    """The Poisson(nu) weights of 0..K, K >= nu, over their sum.

    They grow outward from the mode floor(nu) by the ratios w_(k+1) / w_k =
    nu / (k + 1), since e^-nu underflows from nu = 745 on.
    """
    m = int(nu)
    up = np.cumprod(nu / np.arange(m + 1, K + 1))
    down = np.cumprod(np.arange(m, 0, -1) / nu)
    w = np.concatenate([down[::-1], [1.0], up])
    return w / w.sum()


def _exp(x: float, t: float) -> float:
    """e^x, or NonFiniteError naming t where it leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise NonFiniteError(f"exp(t A) overflows at t = {t:.6g}") from None


def _finite(a: np.ndarray, message: str) -> np.ndarray:
    """``a``, or NonFiniteError with ``message`` and the first row holding inf or NaN."""
    bad = ~np.isfinite(a)
    if bad.any():
        i = int(np.argwhere(bad)[0, 0])
        raise NonFiniteError(f"{message} (row {i})", i)
    return a


@dataclass(frozen=True, eq=False)
class DiffusionFamily:
    """The skeleton of the discretized killed diffusion: its step, on the grid
    ``step.space``, and the number of steps to ``model.t0``."""

    model: DiffusionModel
    generator: np.ndarray
    #: S = P_delta at delta = t0 / n_substeps; P_t0 = S^n_substeps
    step: TransferOperator
    n_substeps: int
    psi: WeightedFunction
    #: the shifted-drift generator A_bar, whose exp(t0 A_bar) 1 ``girsanov_check``
    #: sums as the step's Poisson series on the ones vector, and the tilt rate a
    shifted_generator: np.ndarray
    a: float


def build_diffusion_generator(
    model: DiffusionModel, n_substeps: int = 8
) -> DiffusionFamily:
    """Discretize the generator and exponentiate it to a skeleton step.

    The step S = P_delta is the uniformized exponential at delta =
    t0 / n_substeps, entrywise nonnegative; ``skeleton_analysis`` powers it
    to P_t0 and ``girsanov_check`` applies it n_substeps times. The same
    Poisson series, from the ones vector, is the direct side of the check. The stencil
    of ``girsanov_check`` and its tilt psi = exp(sum_i x_i) are made too,
    before the exponential, so a mesh too coarse for either stencil, or a
    box where psi leaves the float range (NonFiniteError naming the largest
    sum x), fails at once.
    """
    h = model.h
    nodes = _mesh([h * np.arange(1, model.grid_n + 1)] * model.dim)
    space = StateSpace(nodes, np.full(nodes.shape[0], h**model.dim))
    pts = space.points
    drift = np.asarray(model.b(pts), dtype=float).reshape(space.size, model.dim)
    r_vals = np.asarray(model.r(pts), dtype=float)
    A = _assemble_generator(model, space, drift, -r_vals + 0.0, "drift b")
    a = model.dim / 2.0 + float(np.max(r_vals + drift.sum(axis=1)))
    kappa = a - r_vals - model.dim / 2.0 - drift.sum(axis=1)
    A_bar = _assemble_generator(model, space, drift + 1.0, kappa, "Girsanov drift b + 1")
    x_sum = pts.sum(axis=1)
    with np.errstate(over="ignore"):
        psi = WeightedFunction(space, np.exp(x_sum))
    if not np.all(np.isfinite(psi.values)):
        top = float(np.max(x_sum))
        raise NonFiniteError(f"Girsanov tilt exp(sum x) overflows at sum x = {top:.6g}")
    step = TransferOperator(space, uniformized_exponential(A, model.t0 / n_substeps))
    return DiffusionFamily(model, A, step, n_substeps, psi, A_bar, a)


@dataclass(frozen=True, eq=False)
class GirsanovReport:
    """Agreement between the weight-tilted step and the drift-shifted build.

    ``discrepancy`` is the sup-norm difference of the two operators' action
    on the constant function; it shrinks with the mesh. ``relative`` is
    that difference over the sup of the direct side's action: both sides
    decay like exp(-(a - lambda0) t0), so at long horizons only the
    relative figure still compares them.
    """

    discrepancy: float
    relative: float
    a: float
    t0: float
    h: float


def girsanov_check(family: DiffusionFamily) -> GirsanovReport:
    """Cross-check the exp(sum x) tilt against the shifted-drift build.

    Tilting P_t0 = S^n by psi = exp(sum_i x_i) with normalizer
    ``c = exp(a t0)``, a = d/2 + sup(r + sum_i b_i), must agree with the
    direct discretization of the diffusion with drift 1 + b killed at rate
    ``kappa = a - r - d/2 - sum_i b_i >= 0``, up to mesh error. Only their
    action on the constant function is compared: the tilt's is
    S^n psi / (c psi), the row masses of ``tilt_submarkov``, with the step
    applied n times to psi, and the direct side's exp(t0 A_bar) 1 is the
    step's Poisson series (``_uniformized``) from the ones vector over the
    whole horizon: no halving, K sparse products and no N x N array. A
    normalizer outside the float range, or a direct side that underflows to
    0, raises NonFiniteError naming a t0.
    """
    model = family.model
    at0 = family.a * model.t0
    try:
        c = math.exp(at0)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise NonFiniteError(f"Girsanov normalizer exp(a t0) is {c} at a t0 = {at0:.6g}")
    direct = _uniformized(family.shifted_generator, model.t0, np.ones(family.step.space.size))[0]
    psi = family.psi.values
    tilted = next(islice(orbit(family.step.kernel, psi), family.n_substeps, None)) / psi / c
    peak = float(np.max(np.abs(direct)))
    if peak == 0.0:
        raise NonFiniteError(f"Girsanov direct side underflows to 0 at t0 = {model.t0:.6g}")
    disc = float(np.max(np.abs(tilted - direct)))
    return GirsanovReport(
        discrepancy=disc, relative=disc / peak, a=family.a, t0=model.t0, h=model.h
    )


# ---------------------------------------------------------------------------
# Monte Carlo cross-validation oracle

@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_traj: int
    n_killed: int
    seed: int


def mc_feynman_kac(
    model,
    x,
    horizon,
    f: Callable[[np.ndarray], np.ndarray],
    n_traj: int,
    seed: int,
    substep: float = 0.01,
) -> McEstimate:
    """Monte Carlo estimate of the penalized, killed expectation from x.

    Map model: exact Gaussian steps over ``horizon`` integer steps with the
    multiplicative penalty and domain killing (unbiased). Diffusion model:
    Euler-Maruyama with step ``substep``, killing at the first substep whose
    endpoint leaves the orthant-box (no boundary-crossing correction, bias
    O(sqrt(substep))), and left-endpoint accumulation of the potential.

    One Philox stream keyed by ``seed`` is read in step-major,
    trajectory-minor order, and every path draws at every step, alive or
    not, so results are bit-identical for fixed (seed, n_traj, horizon,
    substep). Killed paths keep their last state and their weights are never
    read; the reduction is numpy's fixed-order pairwise sum.
    """
    if n_traj < 100:
        raise ValueError("need at least 100 trajectories")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    if isinstance(model, PdsModel):
        vals, n_killed = _mc_pds(model, x, int(horizon), f, n_traj, rng)
    elif isinstance(model, DiffusionModel):
        vals, n_killed = _mc_diffusion(model, x, float(horizon), f, n_traj, rng, substep)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    value = float(np.sum(vals) / n_traj)
    std_error = float(np.std(vals, ddof=1) / math.sqrt(n_traj))
    return McEstimate(
        value=value,
        std_error=std_error,
        n_traj=n_traj,
        n_killed=int(n_killed),
        seed=int(seed),
    )


def _mc_pds(model, x, steps, f, n_traj, rng):
    X = np.broadcast_to(np.asarray(x, float).reshape(1, model.dim), (n_traj, model.dim)).copy()
    weight = np.ones(n_traj)
    alive = np.ones(n_traj, dtype=bool)
    keep = np.empty(n_traj, dtype=np.int64)
    for _ in range(steps):
        prop = np.asarray(model.F(X), dtype=float).reshape(n_traj, model.dim)
        _freeze_killed(X, prop + model.noise_sd * rng.standard_normal((n_traj, model.dim)), alive, keep)
        alive &= model.in_domain(X)
        _freeze_killed(weight, weight * np.asarray(model.G(X), dtype=float), alive, keep)
    vals = np.where(alive, weight * np.asarray(f(X), dtype=float), 0.0)
    return vals, n_traj - int(alive.sum())


def _mc_diffusion(model, x, horizon, f, n_traj, rng, substep):
    steps = max(1, round(horizon / substep))
    dt = horizon / steps
    sqdt = math.sqrt(dt)
    shape = (n_traj, model.dim)
    X = np.broadcast_to(np.asarray(x, float).reshape(1, model.dim), shape).copy()
    log_weight = np.zeros(n_traj)  # read only where alive
    alive = np.ones(n_traj, dtype=bool)
    # Work arrays made once, the fields written into them: fresh per-step arrays
    # of this size can be trimmed from the heap and faulted back in on every
    # step, depending on what the process allocated before.
    rate, prop, noise = np.empty(n_traj), np.empty(shape), np.empty(shape)
    keep = np.empty(n_traj, dtype=np.int64)
    for _ in range(steps):
        log_weight += np.multiply(dt, model.r(X, out=rate), out=rate)
        np.multiply(dt, model.b(X, out=prop), out=prop)
        prop += X  # X + dt b bit for bit: addition commutes
        prop += np.multiply(sqdt, rng.standard_normal(out=noise), out=noise)
        _freeze_killed(X, prop, alive, keep)
        alive &= np.all((X > 0.0) & (X <= model.L), axis=1)
    log_weight[~alive] = 0.0  # unread, and exp must not overflow on it
    vals = np.where(alive, np.exp(log_weight) * np.asarray(f(X), dtype=float), 0.0)
    return vals, n_traj - int(alive.sum())


def _freeze_killed(old, new, alive, keep):
    """Copy ``new`` into ``old`` on alive paths, overwriting ``new``; killed paths stay put.

    ``keep``, an int64 work array of ``alive``'s length, receives the blend mask.
    """
    # Blends the float64 bits through an int64 mask, so unlike np.where no branch reads the
    # random mask. Both arrays are contiguous, so their int64 reshapes are views.
    bits, diff = (a.view(np.int64).reshape(alive.size, -1) for a in (old, new))
    diff ^= bits
    diff &= np.negative(alive.view(np.int8), dtype=np.int64, out=keep)[:, None]
    bits ^= diff


# ---------------------------------------------------------------------------
# hypothesis diagnostics

@dataclass(frozen=True, eq=False)
class HypothesisReport:
    """Boundary-shell diagnostics for the map model's growth conditions.

    Diagnostic only: the conditions are sufficient, not necessary, so a
    non-diverging profile is a warning rather than a failure.
    """

    shell_radii: np.ndarray
    shell_values: np.ndarray
    diverging: bool
    warnings: list
    details: dict


#: Number of radius shells the growth diagnostics are read on.
_N_SHELLS = 8


def check_hypotheses(model: PdsModel) -> HypothesisReport:
    """Evaluate the map model's growth certificates on eight radius shells of the grid.

    Shell minima of ``|x| - p |F(x)|`` must trend upward (the drift escapes
    any penalty growth); also fits the envelope constant for G and reports
    the local bound on 1/G. Any other model type is a TypeError.
    """
    if not isinstance(model, PdsModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    pts, _ = _grid_points(model)
    radius = np.linalg.norm(pts, axis=1)
    Fx = np.asarray(model.F(pts), dtype=float).reshape(pts.shape[0], model.dim)
    s = radius - model.p * np.linalg.norm(Fx, axis=1)
    g_vals = np.asarray(model.G(pts), dtype=float)
    env = float(np.max(g_vals * np.exp(-radius)))
    nodes, wts = np.polynomial.hermite.hermgauss(32)
    # E[e^{(1+a)|xi|}] per coordinate via Gauss-Hermite, xi ~ N(0, sd^2)
    z = math.sqrt(2.0) * model.noise_sd * nodes
    moment = float(np.sum(wts * np.exp((1.0 + model.a) * np.abs(z))) / math.sqrt(math.pi)) ** model.dim
    radii, values = _shell_minima(radius, s)
    diverging = _rising(values)
    return HypothesisReport(
        shell_radii=radii,
        shell_values=values,
        diverging=diverging,
        warnings=[] if diverging else ["|x| - p|F(x)| does not diverge on the grid shells"],
        details={
            "penalty_envelope_C": env,
            "sup_inv_G": float(np.max(1.0 / g_vals)),
            "C_prime": env * moment,
        },
    )


def _shell_minima(radii, values):
    """Each shell's outer radius and its worst (least) value."""
    edges = np.quantile(radii, np.linspace(0.0, 1.0, _N_SHELLS + 1))
    outs_r, outs_v = [], []
    for k in range(_N_SHELLS):
        mask = (radii >= edges[k]) & (
            radii <= edges[k + 1] if k == _N_SHELLS - 1 else radii < edges[k + 1]
        )
        if not mask.any():
            continue
        outs_r.append(edges[k + 1])
        outs_v.append(np.min(values[mask]))
    return np.asarray(outs_r), np.asarray(outs_v)


def _rising(values) -> bool:
    if values.size < 2:
        return False
    diffs = np.diff(values[values.size // 2 :])
    return bool(np.all(diffs > 0.0) and values[-1] > values[0])


# ---------------------------------------------------------------------------
# end-to-end map-model pipeline

@dataclass(frozen=True, eq=False)
class PdsAnalysis:
    """What the map-model pipeline produced and ``model-run`` reports."""

    build: PdsKernel
    hypotheses: HypothesisReport
    theta2_seed: float
    K: SubsetMask
    n0: int
    g_report: GReport
    triple: SpectralTriple
    eq1: ConvergenceReport
    eq2: ConvergenceReport


def run_pds_analysis(
    model: PdsModel,
    n_g: int = 100,
    eq_n_max: int = 40,
) -> PdsAnalysis:
    """Build the kernel and run the full verification pipeline.

    The candidate growth rate comes from the unit-ball return mass; the
    small set is the smallest centered ball (a sublevel set of the weight,
    radii in steps of 0.5 up to the grid box) whose off-set contraction
    clears that rate with a 10% margin, and the drift function is the
    self-certifying truncated return series. ``n_g`` is the (G3) horizon
    and the cap of the (G4) walk; (G1) finds its own horizon.
    """
    build = build_pds_kernel(model)
    P, psi1 = build.operator, build.psi1
    radius = np.linalg.norm(P.space.points, axis=1)
    ball = radius <= 1.0
    hyp = check_hypotheses(model)
    # Half the worst one-step return mass of the unit ball: the return mass of
    # a small ball bounds the growth rate from below, and the factor 1/2
    # leaves headroom for the off-set contraction to clear it.
    if not ball.any():
        raise SmallSetSearchError("the unit-ball seed contains no grid point")
    theta2_seed = float(np.min((P.kernel @ ball.astype(float))[ball]) / 2.0)
    levels = np.exp(model.a * np.arange(0.5, model.L + 0.25, 0.5))
    K = select_small_set(P, psi1, theta2_seed, levels)
    psi2, n0 = build_psi2_auto(P, K, theta2_seed, psi1)
    g_report = check_condition_g(P, K, psi1, psi2, n_max=n_g)
    triple = power_iterate(P, psi1)
    mu = Measure.point_mass(P.space, int(np.argmin(radius)))
    f = WeightedFunction(P.space, psi1.values * ball)
    eq1, eq2 = measure_eq1_eq2(P, triple, psi1, psi2, mu, f, eq_n_max)
    return PdsAnalysis(
        build=build,
        hypotheses=hyp,
        theta2_seed=theta2_seed,
        K=K,
        n0=n0,
        g_report=g_report,
        triple=triple,
        eq1=eq1,
        eq2=eq2,
    )
