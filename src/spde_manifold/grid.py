"""Dirichlet grid states on the unit interval.

Used by the divergence-form models: values live on M uniformly spaced
interior points of (0, 1) with zero boundary conditions, and norms are
the discrete L2 norm with cell weight h = 1/(M+1).  The sampled sine
modes are exact eigenvectors of the standard second-difference operator,
with eigenvalue -(2/h^2) (1 - cos(k pi h)).

``GridState`` is a thin type over the shared array-state core of
``hermite``: its arithmetic, ``combine`` and ``rows`` are those of
every state, and grids of different sizes never meet
(``ValueError("grid size mismatch")``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import ArrayState

__all__ = [
    "GridState",
    "sine_mode",
    "laplace_eigenvalue",
]


@dataclass(frozen=True, eq=False)
class GridState(ArrayState):
    """Interior values of a function on (0, 1) with implicit zero boundary.

    1-D values are one state; (P, M) values are P states on one grid.
    """

    values: np.ndarray

    _core_ndim = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] < 1:
            raise ValueError("grid values must be a non-empty (M,) or (P, M) array")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def array(self) -> np.ndarray:
        return self.values

    def _like(self, v: np.ndarray) -> "GridState":
        return type(self)(v)

    @staticmethod
    def _aligned(states) -> list:
        if any(s.M != states[0].M for s in states):
            raise ValueError("grid size mismatch")
        return [s.values for s in states]

    @property
    def M(self) -> int:
        return self.values.shape[-1]

    @property
    def h(self) -> float:
        return 1.0 / (self.M + 1)

    @property
    def xs(self) -> np.ndarray:
        return np.arange(1, self.M + 1) * self.h

    @classmethod
    def zero(cls, m: int) -> "GridState":
        return cls(np.zeros(m))


def sine_mode(m: int, k: int) -> GridState:
    """Sampled sine mode sin(k pi x) on the interior grid, of discrete L2 norm one."""
    if not 1 <= k <= m:
        raise ValueError(f"mode number must be in 1..{m}, got {k}")
    xs = np.arange(1, m + 1) / (m + 1.0)
    return GridState(np.sin(k * math.pi * xs) * math.sqrt(2.0))  # h * sum sin^2 = 1/2 on this grid


def laplace_eigenvalue(m: int, k: int) -> float:
    """Eigenvalue of the second-difference operator for the k-th sine mode."""
    h = 1.0 / (m + 1)
    return -(2.0 / h**2) * (1.0 - math.cos(k * math.pi * h))
