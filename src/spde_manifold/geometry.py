"""Flat coefficient views and inner products shared by charts and checkers.

A geometry binds a state family to one concrete Hilbert inner product
(the mid norm of the scale for spectral states, discrete L2 for grid
states) and to a declared working order.  Differential operators push
spectral states above the working order; that out-of-band mass cannot
be matched by any tangent frame held at the working order, so it is
tracked explicitly as "spill" rather than silently dropped.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import GridState
from .hermite import (
    DEFAULT_SCALE,
    NormScale,
    SpectralState,
    hermite_weights,
    order_grid,
)

__all__ = ["HermiteGeometry", "GridGeometry", "stack_states", "unstack_states", "take_rows"]


def _value(total):
    """A float for one state, the (P,) array for a batch."""
    return float(total) if np.ndim(total) == 0 else total


def _sqrt(total):
    return _value(np.sqrt(np.maximum(total, 0.0)))


def stack_states(states):
    """One batched state from single states (spectral ones padded to a common order)."""
    first = states[0]
    if isinstance(first, GridState):
        return GridState.of(np.stack([s.values for s in states]))
    n = max(s.N for s in states)
    return SpectralState(first.d, n, np.stack([s.padded(n).coeffs for s in states]))


def unstack_states(state) -> list:
    """The single states of a batched state, one per path."""
    if isinstance(state, GridState):
        return [GridState(v) for v in state.values]
    return [SpectralState(state.d, state.N, c) for c in state.coeffs]


@lru_cache(maxsize=None)
def _outband_mask(d: int, order: int, work_order: int) -> np.ndarray:
    """Flat mask of the indices above the working order."""
    out = (order_grid(d, order) > work_order).ravel()
    out.setflags(write=False)
    return out


def take_rows(state, rows):
    """The given paths of a batched state; a single state is returned as is."""
    if not state.batch:
        return state
    if isinstance(state, GridState):
        return GridState.of(state.values[rows])
    return SpectralState(state.d, state.N, state.coeffs[rows])


class HermiteGeometry:
    """Spectral states of dimension d at working order N under the mid norm.

    Every method also takes a batch of states and then returns one value
    per path.
    """

    kind = "hermite"

    def __init__(self, d: int, work_order: int, scale: NormScale = DEFAULT_SCALE):
        self.d = int(d)
        self.work_order = int(work_order)
        self.scale = scale

    def embed_order(self, states) -> int:
        return max([self.work_order] + [s.N for s in states])

    def flat(self, state: SpectralState, order: int | None = None) -> np.ndarray:
        c = state.padded(state.N if order is None else order).coeffs
        return c.reshape(-1) if c.ndim == self.d else c.reshape(c.shape[0], -1)

    def weight_vector(self, order: int, q: float | None = None) -> np.ndarray:
        q = self.scale.q_mid if q is None else q
        return hermite_weights(self.d, order, q).ravel()

    def _mass(self, f: np.ndarray, order: int) -> np.ndarray:
        return np.sum(self.weight_vector(order) * f * f, axis=-1)

    def norm_mid(self, state: SpectralState):
        return _sqrt(self._mass(self.flat(state), state.N))

    def inner(self, u: SpectralState, v: SpectralState):
        order = max(u.N, v.N)
        w = self.weight_vector(order)
        return _value(np.sum(w * self.flat(u, order) * self.flat(v, order), axis=-1))

    def norm_diff(self, u: SpectralState, v: SpectralState):
        """norm_mid(u - v) without building the intermediate state."""
        if u.N == v.N:
            diff = u.coeffs - v.coeffs
            f = diff.reshape(diff.shape[: diff.ndim - self.d] + (-1,))
            return _sqrt(self._mass(f, u.N))
        return self.norm_mid(u - v)

    def spill_ratio(self, state: SpectralState):
        """Relative mid-norm mass beyond the working order."""
        if state.N <= self.work_order:
            return np.zeros(state.batch) if state.batch else 0.0
        f = self.flat(state)
        wff = self.weight_vector(state.N) * f * f
        total = wff.sum(-1)
        out = wff[..., _outband_mask(self.d, state.N, self.work_order)].sum(-1)
        if not state.batch:
            return math.sqrt(out / total) if total else 0.0
        # a zero state has no mass beyond the working order either
        return np.sqrt(out / np.where(total == 0.0, 1.0, total))

    def truncate_to_work(self, state: SpectralState) -> SpectralState:
        return state.truncated(self.work_order)

    def state_from_flat(self, vec: np.ndarray, order: int) -> SpectralState:
        vec = np.asarray(vec)
        return SpectralState(self.d, order, vec.reshape(vec.shape[:-1] + (order + 1,) * self.d))

    def zero_state(self, order: int | None = None) -> SpectralState:
        return SpectralState.zero(self.d, self.work_order if order is None else order)


class GridGeometry:
    """Grid states of M interior points under the discrete L2 inner product."""

    kind = "grid"

    def __init__(self, m: int):
        self.M = int(m)
        self.h = 1.0 / (self.M + 1)
        self.work_order = None

    def embed_order(self, states) -> None:
        for s in states:
            if s.M != self.M:
                raise ValueError("grid size mismatch")
        return None

    def flat(self, state: GridState, order=None) -> np.ndarray:
        return state.values

    def weight_vector(self, order=None, q=None) -> np.ndarray:
        return np.full(self.M, self.h)

    def norm_mid(self, state: GridState):
        return _sqrt(self.h * np.sum(state.values * state.values, axis=-1))

    def inner(self, u: GridState, v: GridState):
        return _value(self.h * np.sum(u.values * v.values, axis=-1))

    def norm_diff(self, u: GridState, v: GridState):
        diff = u.values - v.values
        return _sqrt(self.h * np.sum(diff * diff, axis=-1))

    def spill_ratio(self, state: GridState):
        return np.zeros(state.batch) if state.batch else 0.0

    def truncate_to_work(self, state: GridState) -> GridState:
        return state

    def state_from_flat(self, vec: np.ndarray, order=None) -> GridState:
        return GridState.of(vec)

    def zero_state(self, order=None) -> GridState:
        return GridState.zero(self.M)
