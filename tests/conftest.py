import numpy as np
import pytest

from rpos import Measure, SpectralTriple, StateSpace, TransferOperator, WeightedFunction


def unit_space(n, dim=1):
    """n distinct points with unit weights (counting-measure discretization)."""
    pts = np.arange(n, dtype=float)
    if dim == 2:
        pts = np.column_stack([pts, np.zeros(n)])
    return StateSpace(pts, np.ones(n))


def make_operator(kernel):
    kernel = np.asarray(kernel, dtype=float)
    return TransferOperator(unit_space(kernel.shape[0]), kernel)


def killed_walk(n):
    """Walk on n sites: stay 0.35, step 0.3 each way, killed off both ends."""
    k = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            k[i, i - 1] = 0.3
        k[i, i] = 0.35
        if i < n - 1:
            k[i, i + 1] = 0.3
    return make_operator(k)


def random_kernel(rng, n, low=0.05, high=1.0):
    return rng.uniform(low, high, size=(n, n))


def perron_oracle(kernel, psi1_values=None, weights=None):
    """Dense eigendecomposition oracle, normalized like the power iteration.

    Returns (theta, eta_values, nu_density, gap_ratio) where nu(psi1) = 1 and
    nu(eta) = 1 and gap_ratio = |lambda_2| / lambda_1.
    """
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    if psi1_values is None:
        psi1_values = np.ones(n)
    if weights is None:
        weights = np.ones(n)
    vals, right = np.linalg.eig(kernel)
    lvals, left = np.linalg.eig(kernel.T)
    order = np.argsort(-np.abs(vals))
    lorder = np.argsort(-np.abs(lvals))
    theta = float(vals[order[0]].real)
    eta = right[:, order[0]].real
    eta = eta * np.sign(eta[np.argmax(np.abs(eta))])
    nu_mass = left[:, lorder[0]].real
    nu_mass = nu_mass * np.sign(nu_mass[np.argmax(np.abs(nu_mass))])
    nu_mass = nu_mass / (nu_mass @ psi1_values)
    eta = eta / (nu_mass @ eta)
    gap = float(np.abs(vals[order[1]]) / np.abs(vals[order[0]])) if n > 1 else 0.0
    return theta, eta, nu_mass / weights, gap


@pytest.fixture
def two_state():
    """The closed-form 2-state instance: theta0 = 0.7, eta = 1, nu = (1/3, 2/3)."""
    space = unit_space(2)
    P = TransferOperator(space, [[0.5, 0.2], [0.1, 0.6]])
    eta = WeightedFunction(space, [1.0, 1.0])
    nu_P = Measure(space, [1.0 / 3.0, 2.0 / 3.0])
    return {
        "space": space,
        "P": P,
        "one": WeightedFunction.ones(space),
        "theta0": 0.7,
        "eta": eta,
        "nu_P": nu_P,
        "triple": SpectralTriple(0.7, eta, nu_P, 0.0, 0.0, 0),
        "gap": 4.0 / 7.0,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
