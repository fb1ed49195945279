"""Reference computations made apart from rpos, and the output checks on them.

Nothing here imports rpos. Each check compares what the program wrote with
a numpy computation of the same quantity, or with a property the method
must have, and returns a list of problems (empty when the output is right).
The builders (`map_kernel`, `walk_kernel`) are also what the benchmark uses
to write its operator files, so the inputs and the references share one
definition.
"""

from __future__ import annotations

import math

import numpy as np

# Relative agreement demanded of each reference comparison.
KERNEL_RTOL = 1e-12  # collocation entries: same formula, different code
EIG_RTOL = 1e-10  # dominant eigenvalue against a dense eigensolve
WALK_RTOL = 1e-10  # killed walk: closed-form theta0 and eta
ZETA_RTOL = 1e-9  # eq3 profile against numpy.linalg.matrix_power
LAMBDA0_RTOL = 1e-9  # skeleton growth rate against the stencil spectrum
DRIFT_RTOL = 1e-10  # slack of R V0 <= rho V0 + C_R 1_K, relative to max V0
MAP_MC_Z = 4.5  # the map-model Monte Carlo probe is unbiased
DIFFUSION_MC_Z = 4.0  # survival slope against lambda0, in standard errors


# ---------------------------------------------------------------------------
# builders


def midpoint_grid(n: int, L: float, dim: int):
    """Cell midpoints of [-L, L]^dim with n cells per axis, and the cell volume."""
    h = 2.0 * L / n
    axis = -L + h * (np.arange(n) + 0.5)
    if dim == 1:
        return axis[:, None], h
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()]), h**dim


def map_kernel(n: int, L: float, dim: int, slope: float, sd: float):
    """Collocation kernel of X' = slope X + sd xi on the midpoint grid.

    Entry (i, j) is the Gaussian step density from x_i to x_j times the cell
    volume; mass leaving [-L, L]^dim is lost, which is the boxed kernel.
    """
    pts, cell = midpoint_grid(n, L, dim)
    kernel = np.ones((pts.shape[0], pts.shape[0]))
    for d in range(dim):
        z = (pts[None, :, d] - slope * pts[:, None, d]) / sd
        kernel *= np.exp(-0.5 * z**2) / (sd * math.sqrt(2.0 * math.pi))
    return pts, cell, kernel * cell


def walk_kernel(n: int, stay: float, move: float) -> np.ndarray:
    """Symmetric walk on n sites, killed when it steps off either end."""
    return (
        np.diag(np.full(n, stay))
        + np.diag(np.full(n - 1, move), 1)
        + np.diag(np.full(n - 1, move), -1)
    )


def operator_json(points, weights, kernel) -> dict:
    return {
        "points": np.asarray(points).tolist(),
        "ref_weights": np.broadcast_to(weights, (len(points),)).tolist(),
        "kernel": kernel.tolist(),
        "step_label": 1,
    }


def diffusion_generator(n: int, L: float, dim: int, c0: float, c1: float):
    """Central-difference generator of dX = (c0 + c1 X) dt + dB, killed at 0 and L.

    3-point stencil in one dimension, the 5-point stencil (a Kronecker sum
    of the 1D operator) in two, on n interior nodes per axis.
    """
    h = L / (n + 1)
    x = h * np.arange(1, n + 1)
    b = c0 + c1 * x
    one_d = (
        np.diag(np.full(n, -1.0 / h**2))
        + np.diag((0.5 / h**2 + b / (2.0 * h))[:-1], 1)
        + np.diag((0.5 / h**2 - b / (2.0 * h))[1:], -1)
    )
    if dim == 1:
        return one_d
    eye = np.eye(n)
    return np.kron(one_d, eye) + np.kron(eye, one_d)


def top_eigenvalue(matrix: np.ndarray) -> float:
    """Largest real part of the spectrum, by a dense eigensolve."""
    return float(np.max(np.linalg.eigvals(matrix).real))


def perron_root(kernel: np.ndarray) -> float:
    """Spectral radius of a nonnegative matrix, by a dense eigensolve."""
    return float(np.max(np.abs(np.linalg.eigvals(kernel))))


def survival_slope(horizons, values, std_errors):
    """Least-squares slope of log survival over the horizons, and its error."""
    t = np.asarray(horizons, dtype=float)
    v = np.asarray(values, dtype=float)
    w = (t - t.mean()) / np.sum((t - t.mean()) ** 2)
    slope = float(w @ np.log(v))
    se = float(np.sqrt(np.sum(w**2 * (np.asarray(std_errors) / v) ** 2)))
    return slope, se


# ---------------------------------------------------------------------------
# checks


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_kernel(written: dict, points, cell, kernel) -> list:
    got = np.asarray(written["kernel"], dtype=float)
    if got.shape != kernel.shape:
        return [f"kernel shape {got.shape} != {kernel.shape}"]
    problems = []
    worst = float(np.max(np.abs(got - kernel) / kernel))
    if not worst <= KERNEL_RTOL:
        problems.append(f"kernel entry off by {worst:.2e} relative")
    if not np.allclose(written["points"], points, rtol=1e-15, atol=1e-15):
        problems.append("kernel points differ from the midpoint grid")
    if not np.allclose(written["ref_weights"], cell, rtol=1e-15, atol=0.0):
        problems.append("kernel ref_weights differ from the cell volume")
    return problems


def check_theta0(theta0: float, reference: float, rtol: float = EIG_RTOL) -> list:
    err = _rel(theta0, reference)
    return [] if err <= rtol else [f"theta0 {theta0!r} vs {reference!r} ({err:.2e})"]


def check_triple_signs(triple: dict) -> list:
    problems = []
    for key in ("eta", "nu_P"):
        if np.min(triple[key]) < 0.0:
            problems.append(f"{key} has a negative entry")
    return problems


def check_model_run(report: dict, theta_ref: float) -> list:
    problems = []
    if report["g_report"]["overall"] is not True:
        problems.append("g_report.overall is not true")
    problems += check_theta0(report["triple"]["theta0"], theta_ref)
    problems += check_triple_signs(report["triple"])
    for eq in ("eq1", "eq2"):
        if report[eq]["pass"] is not True:
            problems.append(f"{eq} does not pass")
    probe = report.get("mc_probe")
    if probe is not None and not abs(probe["z_score"]) <= MAP_MC_Z:
        problems.append(f"MC probe z = {probe['z_score']:.3f} beyond {MAP_MC_Z}")
    return problems


def check_walk(report: dict, n: int, stay: float, move: float) -> list:
    """Killed walk: theta0 = stay + 2 move cos(pi/(n+1)), eta_k proportional to sin(k pi/(n+1))."""
    theta = stay + 2.0 * move * math.cos(math.pi / (n + 1))
    eta_ref = np.sin(np.arange(1, n + 1) * math.pi / (n + 1))
    problems = check_theta0(report["triple"]["theta0"], theta, WALK_RTOL)
    eta = np.asarray(report["triple"]["eta"])
    if eta.shape != eta_ref.shape:
        return problems + [f"eta has {eta.size} entries, expected {n}"]
    err = float(np.max(np.abs(eta / np.max(eta) - eta_ref / np.max(eta_ref))))
    if not err <= WALK_RTOL:
        problems.append(f"eta off sin(k pi/(n+1)) by {err:.2e}")
    return problems


def eq3_profile(kernel, theta0, eta, nu_masses, steps) -> dict:
    """zeta_n = max_x sum_j |theta0^-n K^n - eta nu|(x, j), with psi = 1."""
    target = np.outer(eta, nu_masses)
    scaled = kernel / theta0
    return {
        n: float(np.max(np.abs(np.linalg.matrix_power(scaled, n) - target).sum(axis=1)))
        for n in steps
    }


def check_reciprocal(report: dict, zeta: np.ndarray, kernel, weights, theta_ref) -> list:
    """Eigenvalue, certificate, drift inequality and eq3 profile (psi = 1)."""
    triple, cert = report["triple"], report["certificate"]
    theta0 = triple["theta0"]
    eta = np.asarray(triple["eta"])
    problems = check_theta0(theta0, theta_ref) + check_triple_signs(triple)
    if cert["overall"] is not True:
        problems.append(f"certificate fails at stage {cert['stage']}")
        return problems
    support = np.asarray(cert["support"])
    e = eta[support]
    R = kernel[np.ix_(support, support)] * (e[None, :] / (theta0 * e[:, None]))
    v0 = np.asarray(cert["V0"])
    on_k = np.isin(support, cert["K"]).astype(float)
    slack = R @ v0 - (cert["rho"] * v0 + cert["C_R"] * on_k)
    if not np.max(slack) <= DRIFT_RTOL * np.max(v0):
        problems.append(f"R V0 <= rho V0 + C_R 1_K broken by {np.max(slack):.3e}")
    nu_masses = np.asarray(triple["nu_P"]) * weights
    steps = [1, 8, 32]
    for n, want in eq3_profile(kernel, theta0, eta, nu_masses, steps).items():
        if not abs(zeta[n] - want) <= ZETA_RTOL * want + 1e-13:
            problems.append(f"zeta[{n}] = {zeta[n]!r}, recomputed {want!r}")
    return problems


def check_skeleton(report: dict, lambda_ref: float) -> list:
    sk = report["skeleton"]
    problems = []
    err = _rel(sk["lambda0"], lambda_ref)
    if not err <= LAMBDA0_RTOL:
        problems.append(f"lambda0 {sk['lambda0']!r} vs stencil {lambda_ref!r} ({err:.2e})")
    if sk["pass"] is not True:
        problems.append("skeleton pass is not true")
    if not sk["c_under"] > 0.0:
        problems.append(f"c_under = {sk['c_under']} is not positive")
    if not math.isfinite(sk["c_bar"]):
        problems.append("c_bar is not finite")
    return problems


def check_girsanov_refines(coarse: float, fine: float) -> list:
    if fine < coarse:
        return []
    return [f"Girsanov discrepancy does not fall with the mesh ({coarse:.3e} -> {fine:.3e})"]


def check_survival(horizons, values, std_errors, lambda_ref: float) -> list:
    if not all(0.0 < v <= 1.0 for v in values):
        return [f"survival estimates {values} outside (0, 1]"]
    slope, se = survival_slope(horizons, values, std_errors)
    z = (slope - lambda_ref) / se
    if abs(z) <= DIFFUSION_MC_Z:
        return []
    return [f"log-survival slope {slope:.5f} vs lambda0 {lambda_ref:.5f}: z = {z:.2f}"]
