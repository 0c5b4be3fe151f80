"""Flat coefficient views and inner products shared by charts and checkers.

A geometry binds a state family to one concrete Hilbert inner product
(the mid norm of the scale for spectral states, discrete L2 for grid
states) and to a declared working order.  Differential operators push
spectral states above the working order; that out-of-band mass cannot
be matched by any tangent frame held at the working order, so it is
tracked explicitly as "spill" rather than silently dropped.

States come from the shared array-state core (``hermite.ArrayState``):
a geometry reads their arrays, flat, with the path axis in front when
they are a batch, and batches are sliced by the states' own ``rows``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridState
from .hermite import (
    DEFAULT_SCALE,
    NormScale,
    SpectralState,
    _mask_simplex,
    _pad_tensor,
    _same_paths,
    hermite_weights,
    order_grid,
)

__all__ = ["HermiteGeometry", "GridGeometry"]


def _sqrt(total):
    """Root of a mass: a float for one state, the (P,) array for a batch."""
    root = np.sqrt(np.maximum(total, 0.0))
    return float(root) if np.ndim(root) == 0 else root


def spill_ratios(out, total):
    """Relative mid-norm mass beyond the working order, from the weighted-square
    sums beyond it and in all; a zero state has none."""
    return np.sqrt(out / np.where(total == 0.0, 1.0, total))


@lru_cache(maxsize=None)
def _outband(d: int, order: int, work_order: int):
    """The flat indices above the working order: a suffix slice at d = 1, a mask otherwise."""
    if d == 1:
        return slice(work_order + 1, None)
    out = (order_grid(d, order) > work_order).ravel()
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _mass_split(d: int, order: int, work_order: int, q: float) -> np.ndarray:
    """Flat (order + 1)^d by 2: the norm weights of the indices kept at the working
    order in the first column, of those beyond it in the second."""
    w = hermite_weights(d, order, q).ravel()
    beyond = (order_grid(d, order) > work_order).ravel()
    out = np.stack([np.where(beyond, 0.0, w), np.where(beyond, w, 0.0)], axis=1)
    out.setflags(write=False)
    return out


class HermiteGeometry:
    """Spectral states of dimension d at working order N under the mid norm.

    Every method also takes a batch of states and then returns one value
    per path.
    """

    def __init__(self, d: int, work_order: int, scale: NormScale = DEFAULT_SCALE):
        self.d = int(d)
        self.work_order = int(work_order)
        self.scale = scale

    def embed_order(self, states) -> int:
        return max([self.work_order] + [s.N for s in states])

    def flat(self, state: SpectralState, order: int | None = None) -> np.ndarray:
        c = state.coeffs if order is None else _pad_tensor(state.coeffs, self.d, state.N, order)
        return c.reshape(c.shape[: c.ndim - self.d] + (-1,))

    def weight_vector(self, order: int, q: float | None = None) -> np.ndarray:
        q = self.scale.q_mid if q is None else q
        return hermite_weights(self.d, order, q).ravel()

    def _mass(self, f: np.ndarray, order: int) -> np.ndarray:
        return np.sum(self.weight_vector(order) * f * f, axis=-1)

    def norm_mid(self, state: SpectralState):
        return _sqrt(self._mass(self.flat(state), state.N))

    def norm_diff(self, u: SpectralState, v: SpectralState):
        """norm_mid(u - v) without building the intermediate state."""
        _same_paths([u.batch, v.batch])
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
        wff, add = self.weight_vector(state.N) * f * f, np.add.reduce
        ratio = spill_ratios(add(wff[..., _outband(self.d, state.N, self.work_order)], -1), add(wff, -1))
        return ratio if state.batch else float(ratio)

    def truncate_to_work(self, state: SpectralState) -> SpectralState:
        return state.truncated(self.work_order)

    def truncate_rows(self, c: np.ndarray):
        """Coefficient tensors projected onto the working order, as ``truncate_to_work``,
        flat, with the mid norm of what is kept per row and, where c reaches above
        the working order, the weighted-square sums per row (P, 2), kept and beyond
        it, from one product (else None); ``spill_ratios`` of the second over their
        total is the relative mass cut off."""
        order, lead = c.shape[-1] - 1, c.shape[: c.ndim - self.d]
        f = c.reshape(lead + (-1,))
        if order <= self.work_order:
            return f, _sqrt((self.weight_vector(order) * f * f).sum(-1)), None
        masses = (f * f) @ _mass_split(self.d, order, self.work_order, self.scale.q_mid)
        if self.d == 1:
            kept = f[..., : self.work_order + 1]
        else:  # the working-order block, masked as a state at that order is
            kept = c[(Ellipsis,) + (slice(0, self.work_order + 1),) * self.d]
            kept = _mask_simplex(kept, self.d, self.work_order).reshape(lead + (-1,))
        return kept, np.sqrt(masses[..., 0]), masses

    def tensor(self, f: np.ndarray, order: int) -> np.ndarray:
        """Flat coefficient rows at ``order`` as the states' arrays (a view)."""
        return f.reshape(f.shape[:-1] + (order + 1,) * self.d)

    def state_from_flat(self, vec: np.ndarray, order: int) -> SpectralState:
        return SpectralState(self.d, order, self.tensor(np.asarray(vec), order))

    def zero_state(self, order: int | None = None) -> SpectralState:
        return SpectralState.zero(self.d, self.work_order if order is None else order)


class GridGeometry:
    """Grid states of M interior points under the discrete L2 inner product."""

    def __init__(self, m: int):
        self.M = int(m)
        self.h = 1.0 / (self.M + 1)
        self.work_order = None

    def embed_order(self, states) -> None:
        if any(s.M != self.M for s in states):
            raise ValueError("grid size mismatch")

    def flat(self, state: GridState, order=None) -> np.ndarray:
        return state.values

    def weight_vector(self, order=None, q=None) -> np.ndarray:
        return np.full(self.M, self.h)

    def norm_mid(self, state: GridState):
        return _sqrt(self.h * np.sum(state.values * state.values, axis=-1))

    def norm_diff(self, u: GridState, v: GridState):
        """norm_mid(u - v) without building the intermediate state."""
        _same_paths([u.batch, v.batch])
        diff = u.values - v.values
        return _sqrt(self.h * np.sum(diff * diff, axis=-1))

    def spill_ratio(self, state: GridState):
        return np.zeros(state.batch) if state.batch else 0.0

    def truncate_to_work(self, state: GridState) -> GridState:
        return state

    def truncate_rows(self, v: np.ndarray):
        """The rows as they are, their norm, and no spill."""
        return v, _sqrt(self.h * np.sum(v * v, axis=-1)), None

    def tensor(self, v: np.ndarray, order=None) -> np.ndarray:
        return v

    def state_from_flat(self, vec: np.ndarray, order=None) -> GridState:
        return GridState(vec)

    def zero_state(self, order=None) -> GridState:
        return GridState.zero(self.M)
