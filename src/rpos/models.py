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
uniformization, which preserves nonnegativity exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .transforms import tilt_submarkov


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

    ``domain`` is the killing region complement: None means no killing (the
    whole space); otherwise a (lo, hi) box. The grid box only truncates the
    discretization and must cover the effective support; leaked transition
    mass is measured at build time. ``p`` and ``a`` are the growth
    certificate exponents (the weight is exp(a |x|)); admissibility requires
    p > 1 and 1/a < p - 1.
    """

    F: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]
    noise_sd: float
    grid_n: int
    grid_lo: np.ndarray
    grid_hi: np.ndarray
    p: float
    a: float
    dim: int = 1
    domain_lo: np.ndarray | None = None
    domain_hi: np.ndarray | None = None

    def __post_init__(self):
        if not self.noise_sd > 0.0:
            raise ConfigError("noise_sd must be positive")
        if not self.p > 1.0:
            raise ConfigError("p must exceed 1")
        if not (self.a > 0.0 and 1.0 / self.a < self.p - 1.0):
            raise ConfigError("need a > 0 with 1/a < p - 1")
        if self.dim not in (1, 2):
            raise ConfigError("only dim 1 and 2 are supported")
        if self.grid_n < 1:
            raise ConfigError("grid_n must be at least 1")
        for name in ("grid_lo", "grid_hi", "domain_lo", "domain_hi"):
            val = getattr(self, name)
            if val is None:
                continue
            object.__setattr__(
                self, name, np.broadcast_to(np.asarray(val, float), (self.dim,)).copy()
            )
        if np.any(self.grid_hi <= self.grid_lo):
            raise ConfigError("grid box must have positive volume")

    def in_domain(self, x: np.ndarray) -> np.ndarray:
        """Membership of points (N, d) in the killing-free region."""
        if self.domain_lo is None:
            return np.ones(x.shape[0], dtype=bool)
        return np.all((x >= self.domain_lo) & (x <= self.domain_hi), axis=1)


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


def _grid_points(lo, hi, n, dim):
    axes = []
    weights = 1.0
    for d in range(dim):
        h = (hi[d] - lo[d]) / n
        axes.append(lo[d] + h * (np.arange(n) + 0.5))
        weights = weights * h
    return _mesh(axes), float(weights)


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
    # Imported here, as in _halved_exponential: at module level it adds
    # scipy.special to every import of rpos.
    from scipy.special import ndtr

    pts, cell_w = _grid_points(model.grid_lo, model.grid_hi, model.grid_n, model.dim)
    n = pts.shape[0]
    space = StateSpace(pts, np.full(n, cell_w))
    Fx = np.asarray(model.F(pts), dtype=float).reshape(n, model.dim)
    sd = model.noise_sd

    kernel = np.ones((n, n))
    for d in range(model.dim):
        diff = (pts[None, :, d] - Fx[:, None, d]) / sd
        kernel *= np.exp(-0.5 * diff**2) / (sd * math.sqrt(2.0 * math.pi))
    g_vals = np.asarray(model.G(pts), dtype=float)
    if np.any(g_vals <= 0.0):
        raise ConfigError("penalty G must be positive on the grid")
    alive = model.in_domain(pts)
    kernel *= cell_w * g_vals[None, :] * alive[None, :]

    inside = np.ones(n)
    psi_tail = np.zeros(n)
    for d in range(model.dim):
        lo, hi = model.grid_lo[d], model.grid_hi[d]
        m = Fx[:, d]
        inside = inside * (ndtr((hi - m) / sd) - ndtr((lo - m) / sd))
        psi_tail = psi_tail + _exp_weighted_tail(m, sd, lo, hi, model.a)
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
        operator=TransferOperator(space, kernel, step_label=1),
        psi1=psi1,
        row_leak=row_leak,
        psi1_leak=psi1_leak,
    )


def _exp_weighted_tail(m, sd, lo, hi, a):
    """Closed form of E[e^{a|Y|} 1_{Y outside [lo, hi]}], Y ~ N(m, sd^2).

    Bounds |y| by the coordinate magnitude (exact in one dimension, a
    product upper bound across dimensions).
    """
    from scipy.special import ndtr

    up = np.exp(a * m + 0.5 * (a * sd) ** 2) * ndtr((m + a * sd**2 - hi) / sd)
    lowtail = np.exp(-a * m + 0.5 * (a * sd) ** 2) * ndtr((lo - (m - a * sd**2)) / sd)
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


def _diffusion_space(model: DiffusionModel) -> StateSpace:
    h = model.h
    pts = _mesh([h * np.arange(1, model.grid_n + 1)] * model.dim)
    return StateSpace(pts, np.full(pts.shape[0], h**model.dim))


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
        stride = n_axis if (model.dim == 2 and d == 0) else 1
        axis_index = (np.arange(N) // stride) % n_axis
        has_up = axis_index < n_axis - 1
        has_down = axis_index > 0
        rows = np.arange(N)
        A[rows[has_up], rows[has_up] + stride] += up[has_up]
        A[rows[has_down], rows[has_down] - stride] += down[has_down]
    A[np.arange(N), np.arange(N)] += diag
    return A


#: Largest ``Lambda dt`` summed as one Poisson series; longer intervals are
#: halved. A dense squaring costs about five sparse Poisson terms at N = 600;
#: on 1D and 2D stencils of N = 400 to 784, 8 and 32 were no faster than 16.
_RATE_DT_MAX = 16.0


def uniformized_exponential(A: np.ndarray, t: float) -> np.ndarray:
    """exp(t A) for a generator with nonnegative off-diagonals, as a dense array.

    Shifts the diagonal nonpositive if needed, writes the remainder as
    ``Lambda (M - I)`` with M nonnegative and sums the truncated Poisson
    series. M is stored sparse, so each term ``M^k = M @ M^(k-1)`` is a
    stencil product rather than a dense one. When ``Lambda t`` exceeds
    ``_RATE_DT_MAX`` the interval is halved recursively and the result
    squared densely, which preserves entrywise nonnegativity exactly (unlike
    Pade scaling-and-squaring).
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("time must be finite and nonnegative")
    acc, halvings = _halved_exponential(A, t)
    for _ in range(halvings):
        acc = acc @ acc
    return acc


def _halved_exponential(A: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """exp(dt A) and h, for dt = t / 2^h the longest step with Lambda dt <= _RATE_DT_MAX."""
    # Imported here: at module level it adds 1-2 MB and ~15 ms to every import
    # of rpos, and only the diffusion model needs it.
    from scipy.sparse import csr_array

    n = A.shape[0]
    shift = max(float(np.max(np.diag(A))), 0.0)
    B = A - shift * np.eye(n) if shift > 0.0 else A
    lam = float(np.max(-np.diag(B)))
    if lam <= 0.0:  # B is identically zero
        return math.exp(shift * t) * np.eye(n), 0
    halvings, dt = 0, t
    while lam * dt > _RATE_DT_MAX:
        dt /= 2.0
        halvings += 1
    M = csr_array(np.eye(n) + B / lam)
    mu = lam * dt
    coeff = math.exp(-mu)
    acc = np.zeros((n, n))
    # The right orbit: sparse @ dense runs straight as CSR matvecs, while
    # dense @ sparse would transpose and copy the term on every step.
    for k, term in enumerate(orbit(M, np.eye(n))):
        if k:
            coeff *= mu / k
        acc += coeff * term
        # stop past the Poisson mode once the term is negligible entrywise
        if k >= mu and coeff * float(np.max(term)) <= ROUNDOFF_REL * float(np.max(acc)):
            break
        if k > 40 * (mu + 20):
            break
    acc *= math.exp(shift * dt)
    return acc, halvings


@dataclass(frozen=True, eq=False)
class DiffusionFamily:
    """The skeleton of the discretized killed diffusion: its step and P_t0,
    both on the grid ``step.space``."""

    model: DiffusionModel
    generator: np.ndarray
    #: S = P_delta at delta = t0 / n_substeps, and P_t0 = S^n_substeps
    step: TransferOperator
    at_t0: TransferOperator
    n_substeps: int
    psi: WeightedFunction
    #: the shifted-drift generator and the tilt rate a of ``girsanov_check``
    shifted_generator: np.ndarray
    a: float


def build_diffusion_generator(
    model: DiffusionModel, n_substeps: int = 8
) -> DiffusionFamily:
    """Discretize the generator and exponentiate it to a skeleton step.

    The step S = P_delta is one uniformized exponential at delta =
    t0 / n_substeps, labeled with that time, and P_t0 = S^n_substeps, labeled
    t0, is its power by binary powering (floor(log2 n) + popcount(n) - 1
    dense products), so both satisfy the semigroup identity to round-off and
    are entrywise nonnegative. The stencil of ``girsanov_check`` is assembled
    too, before the exponential, so a mesh too coarse for either fails at
    once.
    """
    space = _diffusion_space(model)
    pts = space.points
    drift = np.asarray(model.b(pts), dtype=float).reshape(space.size, model.dim)
    r_vals = np.asarray(model.r(pts), dtype=float)
    A = _assemble_generator(model, space, drift, -r_vals + 0.0, "drift b")
    a = model.dim / 2.0 + float(np.max(r_vals + drift.sum(axis=1)))
    kappa = a - r_vals - model.dim / 2.0 - drift.sum(axis=1)
    A_bar = _assemble_generator(model, space, drift + 1.0, kappa, "Girsanov drift b + 1")
    times = np.linspace(0.0, model.t0, n_substeps + 1).tolist()
    step = TransferOperator(space, uniformized_exponential(A, times[1]), step_label=times[1])
    at_t0 = TransferOperator(
        space, np.linalg.matrix_power(step.kernel, n_substeps), step_label=times[-1]
    )
    psi = WeightedFunction(space, np.exp(pts.sum(axis=1)))
    return DiffusionFamily(model, A, step, at_t0, n_substeps, psi, A_bar, a)


@dataclass(frozen=True, eq=False)
class GirsanovReport:
    """Agreement between the weight-tilted step and the drift-shifted build.

    ``discrepancy`` is the sup-norm difference of the two operators' action
    on the constant function; it shrinks with the mesh.
    """

    discrepancy: float
    a: float
    t0: float
    h: float


def girsanov_check(family: DiffusionFamily) -> GirsanovReport:
    """Cross-check the exp(sum x) tilt against the shifted-drift build.

    Tilting the t0 operator of ``family`` by psi = exp(sum_i x_i) with
    normalizer ``exp(a t0)``, a = d/2 + sup(r + sum_i b_i), must agree with
    the direct discretization of the diffusion with drift 1 + b killed at
    rate ``kappa = a - r - d/2 - sum_i b_i >= 0``, up to mesh error. Only their
    action on the constant function is compared, so the direct exponential's
    halved step is applied 2^h times to the ones vector, not squared h times.
    """
    model = family.model
    step, halvings = _halved_exponential(family.shifted_generator, model.t0)
    ones = np.ones(family.step.space.size)
    direct = next(islice(orbit(step, ones), 2**halvings, None))
    tilt = tilt_submarkov(family.at_t0, family.psi, c=math.exp(family.a * model.t0))
    disc = float(np.max(np.abs(tilt.tilted.kernel @ ones - direct)))
    return GirsanovReport(discrepancy=disc, a=family.a, t0=model.t0, h=model.h)


# ---------------------------------------------------------------------------
# Monte Carlo cross-validation oracle

@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_traj: int
    n_killed: int
    seed: int

    @property
    def all_killed(self) -> bool:
        return self.n_killed == self.n_traj


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
    for _ in range(steps):
        prop = np.asarray(model.F(X), dtype=float).reshape(n_traj, model.dim)
        _freeze_killed(X, prop + model.noise_sd * rng.standard_normal((n_traj, model.dim)), alive)
        alive &= model.in_domain(X)
        _freeze_killed(weight, weight * np.asarray(model.G(X), dtype=float), alive)
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


def _freeze_killed(old, new, alive, keep=None):
    """Copy ``new`` into ``old`` on alive paths, overwriting ``new``; killed paths stay put.

    ``keep``, an int64 array of ``alive``'s length, receives the blend mask if given.
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
    """Boundary-shell diagnostics for the model growth conditions.

    Diagnostic only: the conditions are sufficient, not necessary, so a
    non-diverging profile is a warning rather than a failure.
    """

    kind: str
    shell_radii: np.ndarray
    shell_values: np.ndarray
    diverging: bool
    warnings: list
    details: dict = field(default_factory=dict)


#: Number of radius shells the growth diagnostics are read on.
_N_SHELLS = 8


def check_hypotheses(model) -> HypothesisReport:
    """Evaluate the growth certificates on eight radius shells of the grid.

    Map model: shell minima of ``|x| - p |F(x)|`` must trend upward (the
    drift escapes any penalty growth); also fits the envelope constant for
    G and reports the local bound on 1/G. Diffusion model: shell maxima of
    ``r + sum_i b_i`` must trend downward.
    """
    if isinstance(model, PdsModel):
        pts, _ = _grid_points(model.grid_lo, model.grid_hi, model.grid_n, model.dim)
        radius = np.linalg.norm(pts, axis=1)
        Fx = np.asarray(model.F(pts), dtype=float).reshape(pts.shape[0], model.dim)
        s = radius - model.p * np.linalg.norm(Fx, axis=1)
        g_vals = np.asarray(model.G(pts), dtype=float)
        env = float(np.max(g_vals * np.exp(-radius)))
        nodes, wts = np.polynomial.hermite.hermgauss(32)
        # E[e^{(1+a)|xi|}] per coordinate via Gauss-Hermite, xi ~ N(0, sd^2)
        z = math.sqrt(2.0) * model.noise_sd * nodes
        moment = float(np.sum(wts * np.exp((1.0 + model.a) * np.abs(z))) / math.sqrt(math.pi)) ** model.dim
        kind, up = "pds", True
        warning = "|x| - p|F(x)| does not diverge on the grid shells"
        details = {
            "penalty_envelope_C": env,
            "sup_inv_G": float(np.max(1.0 / g_vals)),
            "C_prime": env * moment,
        }
    elif isinstance(model, DiffusionModel):
        pts = _diffusion_space(model).points
        radius = np.linalg.norm(pts, axis=1)
        drift = np.asarray(model.b(pts), dtype=float).reshape(pts.shape[0], model.dim)
        s = np.asarray(model.r(pts), dtype=float) + drift.sum(axis=1)
        kind, up = "diffusion", False
        warning = "r + sum b_i does not diverge to -inf on the grid shells"
        details = {"a": model.dim / 2.0 + float(np.max(s))}
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    # Each shell is read at its worst point: its least s where s must rise, else its largest.
    radii, values = _shell_profile(radius, s, np.min if up else np.max)
    diverging = _trending(values, up)
    return HypothesisReport(
        kind=kind,
        shell_radii=radii,
        shell_values=values,
        diverging=diverging,
        warnings=[] if diverging else [warning],
        details=details,
    )


def _shell_profile(radii, values, reducer):
    edges = np.quantile(radii, np.linspace(0.0, 1.0, _N_SHELLS + 1))
    outs_r, outs_v = [], []
    for k in range(_N_SHELLS):
        mask = (radii >= edges[k]) & (
            radii <= edges[k + 1] if k == _N_SHELLS - 1 else radii < edges[k + 1]
        )
        if not mask.any():
            continue
        outs_r.append(edges[k + 1])
        outs_v.append(reducer(values[mask]))
    return np.asarray(outs_r), np.asarray(outs_v)


def _trending(values, up: bool) -> bool:
    if values.size < 2:
        return False
    half = values[values.size // 2 :]
    diffs = np.diff(half)
    if up:
        return bool(np.all(diffs > 0.0) and values[-1] > values[0])
    return bool(np.all(diffs < 0.0) and values[-1] < values[0])


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
    self-certifying truncated return series. (G1) uses horizon n1 = 1.
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
    r_max = float(np.max(np.abs(np.concatenate([model.grid_lo, model.grid_hi]))))
    levels = np.exp(model.a * np.arange(0.5, r_max + 0.25, 0.5))
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
