"""Dirichlet grid states on the unit interval.

Used by the divergence-form models: values live on M uniformly spaced
interior points of (0, 1) with zero boundary conditions, and norms are
the discrete L2 norm with cell weight h = 1/(M+1).  The sampled sine
modes are exact eigenvectors of the standard second-difference operator,
with eigenvalue -(2/h^2) (1 - cos(k pi h)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import GRID_TAG

__all__ = [
    "GridState",
    "sine_mode",
    "laplace_eigenvalue",
]


@dataclass(frozen=True, eq=False)
class GridState:
    """Interior values of a function on (0, 1) with implicit zero boundary.

    With ``batched`` the values have shape (P, M): P states on one grid.
    """

    values: np.ndarray
    basis_tag: str = GRID_TAG
    batched: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 + self.batched or v.shape[-1] < 1:
            shape = "(P, M)" if self.batched else "non-empty 1-D"
            raise ValueError(f"grid values must be a {shape} array")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def M(self) -> int:
        return self.values.shape[-1]

    @property
    def batch(self) -> tuple:
        """Leading path shape: () for one state, (P,) for P states."""
        return self.values.shape[:-1]

    @property
    def h(self) -> float:
        return 1.0 / (self.M + 1)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(1, self.M + 1) * self.h

    @classmethod
    def zero(cls, m: int) -> "GridState":
        return cls(np.zeros(m))

    @classmethod
    def of(cls, values) -> "GridState":
        """One state for 1-D values, a batch for (P, M) values."""
        return cls(values, batched=np.ndim(values) == 2)

    @classmethod
    def combine(cls, terms) -> "GridState":
        """Sum of weight * state over (state, weight) pairs, in order;
        a weight is a scalar or a per-path (P,) vector."""
        acc = None
        for state, weight in terms:
            w = float(weight) if np.ndim(weight) == 0 else np.asarray(weight, dtype=float)[..., None]
            v = state.values * w
            acc = v if acc is None else acc + v
        return cls.of(acc)

    def _binary(self, other, sign):
        if not isinstance(other, GridState):
            return NotImplemented
        if other.M != self.M:
            raise ValueError("grid size mismatch")
        return GridState.of(self.values + sign * other.values)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        if np.ndim(scalar) == 0:
            return GridState(self.values * float(scalar), batched=self.batched)
        return GridState.of(self.values * np.asarray(scalar, dtype=float)[..., None])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def sine_mode(m: int, k: int, normalize: bool = True) -> GridState:
    """Sampled sine mode sin(k pi x) on the interior grid.

    With ``normalize`` the discrete L2 norm is one.
    """
    if not 1 <= k <= m:
        raise ValueError(f"mode number must be in 1..{m}, got {k}")
    xs = np.arange(1, m + 1) / (m + 1.0)
    v = np.sin(k * math.pi * xs)
    if normalize:
        v = v * math.sqrt(2.0)  # h * sum sin^2 = 1/2 on this grid
    return GridState(v)


def laplace_eigenvalue(m: int, k: int) -> float:
    """Eigenvalue of the second-difference operator for the k-th sine mode."""
    h = 1.0 / (m + 1)
    return -(2.0 / h**2) * (1.0 - math.cos(k * math.pi * h))
