"""Finite state spaces, positive transfer operators, and weighted norms.

Everything downstream works on a finite discretization of a continuum state
space: an ordered point set carrying strictly positive reference quadrature
weights. Operators are dense nonnegative matrices whose entry (i, j) already
contains the destination weight, so applying an operator to a function is a
plain matrix-vector product and the operator algebra is identical for
counting-measure and quadrature discretizations.

All types are immutable after construction and all operations are pure, so
they are safe to use concurrently; matrix products parallelize internally
through BLAS with no shared mutable state. Accumulations use 64-bit floats
(numpy pairwise summation); stated tolerances assume that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

#: Relative size below which a quantity is round-off: the floor of every
#: convergence fit, the slack of the pointwise and row-mass comparisons, the
#: support threshold of the h-transform and the error target of the
#: uniformized Poisson series, for exp(t A) after its h squarings (a cut at
#: this / 2^h) and for exp(t A) 1.
ROUNDOFF_REL = 1e-12


class SpaceMismatchError(ValueError):
    """Operands were built on different state spaces."""


class NonFiniteError(ArithmeticError):
    """A computation produced inf or NaN; carries the first offending index
    and, for an orbit, the step at which it appeared."""

    def __init__(self, message: str, index: int | None = None, step: int | None = None):
        super().__init__(message)
        self.index = index
        self.step = step


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Ordered point set with strictly positive reference weights.

    Parameters
    ----------
    points : (n, d) array_like
        Pairwise distinct coordinates; a flat array is treated as d = 1.
    ref_weights : (n,) array_like
        Quadrature weight attached to each point, all > 0.
    """

    points: np.ndarray
    ref_weights: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        w = np.array(self.ref_weights, dtype=float).reshape(-1)
        if w.shape[0] != pts.shape[0]:
            raise ValueError("ref_weights length does not match points")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("points and ref_weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("all ref_weights must be strictly positive")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise ValueError("points must be pairwise distinct")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "ref_weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, StateSpace):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.ref_weights, other.ref_weights
        )

    __hash__ = object.__hash__


def _check_same_space(a, b):
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError("operands live on different state spaces")


@dataclass(frozen=True, eq=False)
class WeightedFunction:
    """Per-point real values of a function on a StateSpace."""

    space: StateSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).reshape(-1)
        if v.shape[0] != self.space.size:
            raise ValueError("values length does not match space size")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def ones(cls, space: StateSpace) -> "WeightedFunction":
        return cls(space, np.ones(space.size))


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative density against the reference weights.

    The mass of a set {j} is density(j) * ref_weight(j); the pairing with a
    function is ``mu(f) = sum_j density(j) * ref_weight(j) * f(j)``.
    """

    space: StateSpace
    density: np.ndarray

    def __post_init__(self):
        d = np.array(self.density, dtype=float).reshape(-1)
        if d.shape[0] != self.space.size:
            raise ValueError("density length does not match space size")
        if np.any(d < 0.0):
            raise ValueError("density must be nonnegative")
        d.flags.writeable = False
        object.__setattr__(self, "density", d)

    @classmethod
    def point_mass(cls, space: StateSpace, index: int) -> "Measure":
        d = np.zeros(space.size)
        d[index] = 1.0 / space.ref_weights[index]
        return cls(space, d)

    @classmethod
    def uniform(cls, space: StateSpace) -> "Measure":
        return cls(space, np.ones(space.size))

    @property
    def masses(self) -> np.ndarray:
        return self.density * self.space.ref_weights

    def mass(self, f: WeightedFunction) -> float:
        _check_same_space(self, f)
        return float(self.masses @ f.values)

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def normalized(self) -> "Measure":
        m = self.total_mass()
        if m <= 0.0:
            raise ValueError("cannot normalize a zero measure")
        return Measure(self.space, self.density / m)


@dataclass(frozen=True, eq=False)
class SubsetMask:
    """Boolean membership vector marking a subset of the state space."""

    space: StateSpace
    member: np.ndarray

    def __post_init__(self):
        m = np.array(self.member, dtype=bool).reshape(-1)
        if m.shape[0] != self.space.size:
            raise ValueError("member length does not match space size")
        m.flags.writeable = False
        object.__setattr__(self, "member", m)

    @classmethod
    def full(cls, space: StateSpace) -> "SubsetMask":
        return cls(space, np.ones(space.size, dtype=bool))

    @classmethod
    def from_indices(cls, space: StateSpace, indices) -> "SubsetMask":
        m = np.zeros(space.size, dtype=bool)
        m[np.asarray(indices, dtype=int)] = True
        return cls(space, m)

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.member)

    @property
    def count(self) -> int:
        return int(self.member.sum())


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """Nonnegative kernel on a StateSpace.

    Entry (i, j) is the density of mass sent from point i to point j times
    ref_weight(j), so the row action on a function is a plain weighted sum.
    """

    space: StateSpace
    kernel: np.ndarray

    def __post_init__(self):
        k = np.array(self.kernel, dtype=float)
        n = self.space.size
        if k.shape != (n, n):
            raise ValueError(f"kernel must be ({n}, {n}), got {k.shape}")
        if not np.all(np.isfinite(k)):
            bad = tuple(np.argwhere(~np.isfinite(k))[0].tolist())
            raise NonFiniteError(
                f"kernel has a non-finite entry at {bad}", index=bad[0]
            )
        if np.any(k < 0.0):
            bad = tuple(np.argwhere(k < 0.0)[0].tolist())
            raise ValueError(f"kernel has a negative entry at {bad}")
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)


def apply(P: TransferOperator, f: WeightedFunction) -> WeightedFunction:
    """Row action of the operator: ``out(i) = sum_j kernel(i, j) f(j)``.

    Linear and monotone in f; raises NonFiniteError with the offending row
    index if the product overflows.
    """
    _check_same_space(P, f)
    out = next(islice(orbit(P.kernel, f.values), 1, None))
    return WeightedFunction(P.space, out)


def orbit(kernel: np.ndarray, v: np.ndarray, divisor=1.0, left: bool = False):
    """Yield v, then each image ``kernel @ v / divisor`` (``v @ kernel`` if left).

    ``v`` is a vector or a matrix whose columns (rows, if left) move
    together. ``divisor`` is a constant or a function of the undivided image,
    so a caller can renormalize each step. The orbit is endless; callers take
    what they need (``itertools.islice``). Raises NonFiniteError naming the
    step and the first offending index (for a matrix, its row) at the first
    iterate holding inf or NaN.
    """
    divide = divisor if callable(divisor) else lambda _image: divisor
    rescale = callable(divisor) or divisor != 1.0  # x / 1.0 == x: skip the pass
    for step in count():
        if not np.all(np.isfinite(v)):
            idx = int(np.argwhere(~np.isfinite(v))[0, 0])
            raise NonFiniteError(
                f"orbit step {step} is non-finite at index {idx}", idx, step
            )
        yield v
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = v @ kernel if left else kernel @ v
            if rescale:
                v /= divide(v)


def weighted_norm(f: WeightedFunction, psi1: WeightedFunction) -> float:
    """Weighted supremum norm: max over points of |f| / psi1."""
    _check_same_space(f, psi1)
    if np.any(psi1.values <= 0.0):
        idx = int(np.argmax(psi1.values <= 0.0))
        raise ValueError(f"weight function must be positive; entry {idx} is not")
    return float(np.max(np.abs(f.values) / psi1.values))


def restrict_space(space: StateSpace, member: np.ndarray) -> StateSpace:
    """Sub-space spanned by the masked points (weights kept as-is)."""
    member = np.asarray(member, dtype=bool)
    if not member.any():
        raise ValueError("cannot restrict to an empty subset")
    return StateSpace(space.points[member], space.ref_weights[member])
