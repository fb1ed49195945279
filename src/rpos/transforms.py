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
    criterion per row is exactly equivalent to that inequality.
    """

    base: TransferOperator
    psi1: WeightedFunction
    c: float
    tilted: TransferOperator
    row_masses: np.ndarray
    max_row_mass: float
    sub_markov: bool

    def to_dict(self) -> dict:
        d = self.tilted.to_dict()
        d["c"] = self.c
        return d


@dataclass(frozen=True, eq=False)
class HTransformRecord:
    """Conjugation R(i, j) = P(i, j) eta(j) / (theta0 eta(i)) on {eta > eps}.

    Rows and columns where eta falls at or below the support threshold are
    dropped, so ``transformed`` lives on the restricted space. For an exact
    eigenpair the transformed operator is stochastic on that support.
    """

    base: TransferOperator
    eta: WeightedFunction
    theta0: float
    support: SubsetMask
    transformed: TransferOperator
    row_masses: np.ndarray
    eps_eta: float

    def to_dict(self) -> dict:
        d = self.transformed.to_dict()
        d["theta0"] = self.theta0
        d["support"] = self.support.indices.tolist()
        return d


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
    tilted = TransferOperator(P.space, kernel, step_label=P.step_label)
    row_masses = drift.values / (c * v)
    max_row_mass = float(np.max(row_masses))
    return TiltRecord(
        base=P,
        psi1=psi1,
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
    kernel = P.kernel[np.ix_(idx, idx)] * (e[None, :] / (theta0 * e[:, None]))
    transformed = TransferOperator(sub_space, kernel, step_label=P.step_label)
    row_masses = kernel.sum(axis=1)
    return HTransformRecord(
        base=P,
        eta=eta,
        theta0=theta0,
        support=support,
        transformed=transformed,
        row_masses=row_masses,
        eps_eta=float(eps_eta),
    )
