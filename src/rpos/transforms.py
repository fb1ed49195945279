"""Operator conjugations: the sub-Markov tilt and the Doob h-transform.

Both constructions divide out a reference function. The tilt rescales by a
positive weight and a normalizing constant so that the result is sub-Markov
whenever the weight satisfies a one-step drift bound; the h-transform divides
by a nonnegative eigenfunction and its eigenvalue, yielding a stochastic
operator on the support of the eigenfunction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ROUNDOFF_REL,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
    apply,
    restrict_space,
    weighted_norm,
)


@dataclass(frozen=True, eq=False)
class TiltRecord:
    """Result of a sub-Markov tilt Q(i, j) = P(i, j) psi1(j) / (c psi1(i)).

    ``row_masses`` is computed as apply(P, psi1) / (c psi1), the same
    arithmetic as the drift comparison P psi1 <= c psi1, so the sub-Markov
    criterion per row is exactly equivalent to that inequality. The record
    holds what the tilt computed; P and psi1 stay with the caller.
    """

    c: float
    tilted: TransferOperator
    row_masses: np.ndarray
    max_row_mass: float
    sub_markov: bool


@dataclass(frozen=True, eq=False)
class HTransformRecord:
    """Conjugation R(i, j) = P(i, j) eta(j) / (theta0 eta(i)) on {eta > eps}.

    Rows and columns where eta falls at or below the support threshold are
    dropped, so ``transformed`` lives on the restricted space. For an exact
    eigenpair the transformed operator is stochastic on that support. The
    record holds what the conjugation computed; P, eta and theta0 stay with
    the caller.
    """

    support: SubsetMask
    transformed: TransferOperator
    row_masses: np.ndarray


def tilt_submarkov(
    P: TransferOperator, psi1: WeightedFunction, c: float | None = None
) -> TiltRecord:
    """Tilt by a positive weight, dividing each step by the constant c.

    When c is omitted it defaults to ``weighted_norm(apply(P, psi1), psi1)``,
    the smallest normalizer for which the tilt is sub-Markov.
    """
    if np.any(psi1.values <= 0.0):
        raise ValueError("tilt weight must be strictly positive")
    drift = apply(P, psi1)
    if c is None:
        c = weighted_norm(drift, psi1)
    c = float(c)
    if c <= 0.0:
        raise ValueError(f"normalizer must be positive, got {c}")
    v = psi1.values
    kernel = P.kernel * (v[None, :] / (c * v[:, None]))
    tilted = TransferOperator(P.space, kernel)
    row_masses = drift.values / (c * v)
    max_row_mass = float(np.max(row_masses))
    return TiltRecord(
        c=c,
        tilted=tilted,
        row_masses=row_masses,
        max_row_mass=max_row_mass,
        sub_markov=bool(max_row_mass <= 1.0 + ROUNDOFF_REL),
    )


def h_transform(
    P: TransferOperator,
    eta: WeightedFunction,
    theta0: float,
    psi1: WeightedFunction | None = None,
) -> HTransformRecord:
    """Divide out a nonnegative (near-)eigenfunction with eigenvalue theta0.

    The support is ``{eta > eps_eta}`` with
    ``eps_eta = ROUNDOFF_REL * weighted_norm(eta, psi1)`` (psi1 defaulting to
    the constant function), since a vanishing eigenfunction carries no
    numerical support threshold of its own.
    """
    if theta0 <= 0.0:
        raise ValueError(f"eigenvalue must be positive, got {theta0}")
    if np.any(eta.values < 0.0):
        raise ValueError("eta must be nonnegative")
    ref = psi1 if psi1 is not None else WeightedFunction.ones(P.space)
    eps_eta = ROUNDOFF_REL * weighted_norm(eta, ref)
    member = eta.values > eps_eta
    if not member.any():
        raise ValueError(
            f"eta lies entirely at or below the support threshold {eps_eta:g}"
        )
    support = SubsetMask(P.space, member)
    idx = support.indices
    sub_space = restrict_space(P.space, member)
    e = eta.values[idx]
    # theta0 = mant * 2**exp with mant in [0.5, 1). Dividing by mant and then
    # scaling by 2**-exp gives the bits of dividing by theta0, but for a tiny
    # theta0 no theta0 * e underflows and no e_j / (theta0 e_i) overflows
    # against a zero entry of P.
    mant, exp = np.frexp(theta0)
    ratio = e[None, :] / (mant * e[:, None])
    kernel = np.ldexp(P.kernel[np.ix_(idx, idx)] * ratio, -exp)
    transformed = TransferOperator(sub_space, kernel)
    return HTransformRecord(
        support=support, transformed=transformed, row_masses=kernel.sum(axis=1)
    )
