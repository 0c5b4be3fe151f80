"""Truncated Hermite-function calculus on a weighted regularity scale.

A state is a finite coefficient tensor over the orthonormal Hermite
functions of R^d, kept for total order ``|n| <= N``.  Regularity of
order ``q`` is measured by the weighted coefficient norm with weight
``(2|n| + d)**(2q)`` on squared coefficients.  This module provides the
coefficient-level operators the rest of the package builds on: dual
pairings, ladder derivatives, shifts realised as the matrix exponential
of the truncated derivative generator, embedding checks along a
three-norm scale, and pointwise evaluation.

It also holds the array-state core, ``ArrayState``: every state and dual
of the package (``SpectralState``, ``DualField`` and the grid's
``GridState``) is one frozen array with at most one leading path axis,
and they share one arithmetic (sums, scaling, ``combine``, ``rows``).
Spectral types meet at a common order by zero padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

__all__ = [
    "ArrayState",
    "MultiIndex",
    "SpectralState",
    "DualField",
    "NormScale",
    "DEFAULT_SCALE",
    "EmbeddingReport",
    "norm_at",
    "pair",
    "derivative",
    "second_derivative",
    "derivative_coeffs",
    "second_derivative_coeffs",
    "ladder_stack",
    "derivative_stack",
    "add_block",
    "weighted_sum",
    "translate",
    "check_embedding",
    "hermite_values",
    "gauss_hermite_rule",
    "evaluate",
    "top_band_ratio",
    "hermite_weights",
    "ladder_matrix",
    "order_grid",
]


class MultiIndex(tuple):
    """A d-tuple of non-negative integers; ``order`` is the entry sum."""

    def __new__(cls, entries):
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError(f"multi-index entries must be non-negative, got {entries}")
        if not entries:
            raise ValueError("multi-index needs at least one entry")
        return super().__new__(cls, entries)

    @property
    def order(self) -> int:
        return sum(self)


@lru_cache(maxsize=None)
def order_grid(d: int, n: int) -> np.ndarray:
    """Tensor of total orders |n| over the full index grid of shape (n+1,)^d."""
    out = np.indices((n + 1,) * d).sum(axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def hermite_weights(d: int, n: int, q: float) -> np.ndarray:
    """Norm weights (2|n| + d)^(2q) over the full (n+1,)^d index grid."""
    out = (2.0 * order_grid(d, n) + d) ** (2.0 * q)
    out.setflags(write=False)
    return out


def _mask_simplex(c: np.ndarray, d: int, n: int) -> np.ndarray:
    if d == 1:
        return c
    return np.where(order_grid(d, n) <= n, c, 0.0)


def _pad_tensor(c: np.ndarray, d: int, n_from: int, n_to: int) -> np.ndarray:
    """Zero-pad the trailing d axes from order n_from to n_to."""
    if n_to < n_from:
        raise ValueError("cannot pad to a smaller order")
    if n_to == n_from:
        return c
    out = np.zeros(c.shape[: c.ndim - d] + (n_to + 1,) * d)
    out[(Ellipsis,) + tuple(slice(0, n_from + 1) for _ in range(d))] = c
    return out


def _per_row(scalar, trailing: int):
    """A scalar, or a per-path vector shaped to broadcast over ``trailing`` axes."""
    if isinstance(scalar, float) or np.ndim(scalar) == 0:
        return float(scalar)
    s = np.asarray(scalar, dtype=float)
    return s.reshape(s.shape + (1,) * trailing)


def add_block(acc: np.ndarray, c: np.ndarray, core_ndim: int) -> np.ndarray:
    """acc + c with ``core_ndim`` axes per state, added into the array ``acc``
    (which the caller owns), grown first where c has a larger order or a path
    axis that acc lacks: arrays of different orders meet in the leading block
    of the largest, as they would zero padded.  A state's axes all have one
    length (its order + 1), so the last axis tells the order."""
    if c.shape == acc.shape:
        return np.add(acc, c, out=acc)
    k, size = core_ndim, c.shape[-1]
    if c.ndim > acc.ndim or size > acc.shape[-1]:
        lead = (c if c.ndim > acc.ndim else acc).shape[:-k]
        grown = np.zeros(lead + (max(size, acc.shape[-1]),) * k)
        grown[(Ellipsis,) + (slice(0, acc.shape[-1]),) * k] = acc
        acc = grown
    block = acc[(Ellipsis,) + (slice(0, size),) * k]
    np.add(block, c, out=block)
    return acc


def weighted_sum(terms, core_ndim: int) -> np.ndarray:
    """``ArrayState.combine`` on arrays: the sum of array * weight over (array,
    weight) pairs, in order, with ``core_ndim`` axes per state, by ``add_block``."""
    acc = None
    for c, weight in terms:
        c = c * _per_row(weight, core_ndim)
        acc = c if acc is None else add_block(acc, c, core_ndim)
    return acc


def _same_paths(batches) -> None:
    """Raise unless the batch shapes that meet agree; () meets anything."""
    if len(set(batches) - {()}) > 1:
        raise ValueError(f"path count mismatch: {sorted(set(batches) - {()})}")


class ArrayState:
    """A state as one frozen float array, and the arithmetic every state shares.

    The trailing ``_core_ndim`` axes of ``array`` hold one state; one
    leading axis, when present, holds P states of the same order, and
    every operation acts on each path (per-path scalars are (P,) vectors);
    batches that meet agree on P, and a single state or scalar meets any.
    A subclass says only how an array becomes a state of its kind
    (``_like``) and how several of its arrays are brought to one common
    order (``_aligned``); each operation builds one result state.
    """

    @property
    def batch(self) -> tuple:
        """Leading path shape: () for one state, (P,) for P states."""
        return self.array.shape[: self.array.ndim - self._core_ndim]

    @classmethod
    def combine(cls, terms):
        """Sum of weight * state over (state, weight) pairs, in order.

        A weight is a scalar or a per-path (P,) vector.  One state is
        built instead of one per operation: ``weighted_sum`` of the arrays
        at their common order, or state * weight for a single term.
        """
        first = terms[0][0]
        if len(terms) == 1:
            return first * terms[0][1]
        _same_paths([s.batch for s, _ in terms] + [getattr(w, "shape", ()) for _, w in terms])
        arrays = first._aligned([s for s, _ in terms])
        return first._like(weighted_sum(zip(arrays, (w for _, w in terms)), first._core_ndim))

    def rows(self, rows):
        """The given paths of a batch; a single state is returned as is."""
        return self._like(self.array[rows]) if self.batch else self

    def _binary(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        _same_paths([self.batch, other.batch])
        a, b = self._aligned([self, other])
        return self._like(a + sign * b)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __mul__(self, scalar):
        _same_paths([self.batch, getattr(scalar, "shape", ())])
        return self._like(self.array * _per_row(scalar, self._core_ndim))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


class _CoeffTensor(ArrayState):
    """Hermite coefficient tensors: arrays of shape ``(P,)? + (N + 1,) * d``,
    brought to a common order by zero padding."""

    def __post_init__(self):
        if self.d < 1 or self.N < 0:
            raise ValueError("need d >= 1 and N >= 0")
        c = np.asarray(self.coeffs, dtype=float)
        tensor = (self.N + 1,) * self.d
        lead = c.ndim - self.d
        if c.shape[lead:] != tensor or lead not in (0, 1):
            raise ValueError(f"coefficient tensor must have shape {tensor}, got {c.shape}")
        c = _mask_simplex(c, self.d, self.N).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def array(self) -> np.ndarray:
        return self.coeffs

    @property
    def _core_ndim(self) -> int:
        return self.d

    def _like(self, c: np.ndarray):
        return type(self)(self.d, c.shape[-1] - 1, c)

    @classmethod
    def zero(cls, d: int, n: int = 0):
        return cls(d, n, np.zeros((n + 1,) * d))

    @staticmethod
    def _aligned(states) -> list:
        d = states[0].d
        if any(s.d != d for s in states):
            raise ValueError("dimension mismatch")
        n = max(s.N for s in states)
        return [_pad_tensor(s.coeffs, d, s.N, n) for s in states]

    def truncated(self, n: int):
        """Project onto |index| <= n (array resized to order min(N, n))."""
        if n >= self.N:
            return self
        sl = (Ellipsis,) + tuple(slice(0, n + 1) for _ in range(self.d))
        return self._like(self.coeffs[sl])


@dataclass(frozen=True, eq=False)
class SpectralState(_CoeffTensor):
    """Coefficient tensor of a function over the Hermite basis, order <= N."""

    d: int
    N: int
    coeffs: np.ndarray

    # its own entry, where bench/tracer.py counts the states built
    __post_init__ = _CoeffTensor.__post_init__

    @cached_property
    def _shift_tables(self):
        """(lam, F_cos, F_sin) with exp(-x D) p = cos(x lam) F_cos + sin(x lam) F_sin
        for this single d=1 state p: rows l of E * (E^H p)_l, real and imaginary
        parts, each +-lambda pair folded into one row (cos is even, sin odd) and
        the zero mode of even N last, at lam = 0; built once per shifted profile."""
        evals, evecs = _shift_eig(self.N)
        m = (evecs * (self.coeffs @ evecs.conj())).T
        lo = np.arange((self.N + 1) // 2)
        hi = self.N - lo
        zero = m.real[lo.size : self.N + 1 - lo.size]  # the middle row for even N, none for odd
        lam = np.append(0.5 * (evals[hi] - evals[lo]), np.zeros(len(zero)))
        t_cos = np.vstack([m.real[hi] + m.real[lo], zero])
        t_sin = np.vstack([m.imag[lo] - m.imag[hi], np.zeros_like(zero)])
        for t in (lam, t_cos, t_sin):
            t.setflags(write=False)
        return lam, t_cos, t_sin

    @classmethod
    def basis(cls, index, n: int | None = None) -> "SpectralState":
        """Unit coefficient on one multi-index (order defaults to |index|)."""
        index = MultiIndex(index)
        n = index.order if n is None else int(n)
        if n < index.order:
            raise ValueError("truncation below the requested index")
        c = np.zeros((n + 1,) * len(index))
        c[index] = 1.0
        return cls(len(index), n, c)


@dataclass(frozen=True, eq=False)
class DualField(_CoeffTensor):
    """Coefficients of a continuous linear functional against the basis."""

    d: int
    N: int
    coeffs: np.ndarray

    @classmethod
    def dirac(cls, z, n: int) -> "DualField":
        """Point-evaluation functional truncated at order n: entries h_k(z_i)."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        d = z.size
        tables = [hermite_values(n, z[i]) for i in range(d)]
        c = reduce(np.multiply.outer, tables)
        return cls(d, n, _mask_simplex(c, d, n))

    @classmethod
    def constant(cls, d: int, n: int, value: float = 1.0) -> "DualField":
        """Integration functional y -> value * integral of y."""
        marg = _basis_integrals(n)
        c = reduce(np.multiply.outer, [marg] * d) * float(value)
        return cls(d, n, _mask_simplex(c, d, n))


@lru_cache(maxsize=None)
def _basis_integrals(n: int) -> np.ndarray:
    """Integrals of the first n+1 basis functions over the real line.

    Integrating the ladder derivative identity gives the two-step
    recurrence I_{k+1} = sqrt(k / (k+1)) I_{k-1} with I_0 = sqrt(2) pi^(1/4)
    and I_1 = 0.
    """
    out = np.zeros(n + 1)
    out[0] = math.sqrt(2.0) * math.pi ** 0.25
    for k in range(1, n):
        out[k + 1] = math.sqrt(k / (k + 1.0)) * out[k - 1]
    out.setflags(write=False)
    return out


def _require_hermite(state, opname: str):
    if not isinstance(state, SpectralState):
        raise TypeError(f"{opname} is defined for hermite states, got {type(state).__name__}")


# -- norms and pairings -----------------------------------------------------


def norm_at(state: SpectralState, q: float) -> float:
    """Weighted coefficient norm of regularity order q."""
    _require_hermite(state, "norm_at")
    w = hermite_weights(state.d, state.N, q)
    return float(np.sqrt(np.sum(w * state.coeffs**2)))


def pair(dual: DualField, state: SpectralState):
    """Duality pairing: plain coefficient contraction, bilinear and symmetric.

    A scalar for one state, a (P,) vector for a batch of P states.
    """
    _require_hermite(state, "pair")
    if dual.d != state.d:
        raise ValueError(f"dimension mismatch: dual d={dual.d}, state d={state.d}")
    n = max(dual.N, state.N)
    a = _pad_tensor(dual.coeffs, dual.d, dual.N, n)
    b = _pad_tensor(state.coeffs, state.d, state.N, n)
    flat = b.reshape(b.shape[: b.ndim - state.d] + (-1,))
    return (flat @ a.ravel())[()]


@dataclass(frozen=True)
class NormScale:
    """Three regularity orders, strong >= mid >= weak.

    States live at the strong order, projections and noise integrands use
    the mid order, drift values are controlled at the weak order.
    """

    q_strong: float
    q_mid: float
    q_weak: float

    def __post_init__(self):
        if not (self.q_strong >= self.q_mid >= self.q_weak):
            raise ValueError(
                f"norm scale must be ordered strong >= mid >= weak, got "
                f"({self.q_strong}, {self.q_mid}, {self.q_weak})"
            )

    @classmethod
    def half_step(cls, base: float) -> "NormScale":
        """The ladder (base + 1, base + 1/2, base)."""
        return cls(base + 1.0, base + 0.5, base)


DEFAULT_SCALE = NormScale.half_step(0.0)


@dataclass(frozen=True)
class EmbeddingReport:
    ratios: np.ndarray  # (n_states, 2): weak/mid and mid/strong norm ratios
    max_ratio: float
    passed: bool


def check_embedding(scale: NormScale, states, tol: float = 1e-12) -> EmbeddingReport:
    """Verify the norm ordering weak <= mid <= strong on concrete states.

    The scale has embedding constant one, so every ratio must be <= 1 up
    to rounding slack.
    """
    rows = []
    for s in states:
        nw = norm_at(s, scale.q_weak)
        nm = norm_at(s, scale.q_mid)
        ns = norm_at(s, scale.q_strong)
        rows.append(
            (nw / nm if nm > 0.0 else 0.0, nm / ns if ns > 0.0 else 0.0)
        )
    ratios = np.array(rows).reshape(len(rows), 2)
    max_ratio = float(ratios.max()) if len(rows) else 0.0
    return EmbeddingReport(ratios, max_ratio, bool(max_ratio <= 1.0 + tol))


# -- differential operators -------------------------------------------------


def derivative_coeffs(c: np.ndarray, d: int, n: int, axis: int) -> np.ndarray:
    """Coefficient tensor of the derivative along one axis of the order-n
    tensor ``c`` (one state or a batch): order n + 1, by the ladder recurrence."""
    if d == 1:
        return c @ ladder_matrix(n, 1).T
    up, down = _ladder_factors(n)
    src = _pad_tensor(c, d, n, n + 1)
    out = np.zeros_like(src)
    a = np.moveaxis(src, axis - d, -1)
    o = np.moveaxis(out, axis - d, -1)
    o[..., :-1] += up * a[..., 1:]
    o[..., 1:] -= down * a[..., :-1]
    return _mask_simplex(out, d, n + 1)


def _check_axis(state: SpectralState, axis: int) -> None:
    if not 0 <= axis < state.d:
        raise ValueError(f"axis {axis} out of range for d={state.d}")


def derivative(state: SpectralState, axis: int = 0) -> SpectralState:
    """Partial derivative along one axis via the ladder recurrence.

    Output truncation is N + 1; the top band is kept, not dropped.
    """
    _require_hermite(state, "derivative")
    _check_axis(state, axis)
    d, n = state.d, state.N
    return SpectralState(d, n + 1, derivative_coeffs(state.coeffs, d, n, axis))


@lru_cache(maxsize=None)
def _ladder_factors(n: int):
    m = np.arange(n + 2)
    up = np.sqrt((m[:-1] + 1.0) / 2.0)
    down = np.sqrt(m[1:] / 2.0)
    up.setflags(write=False)
    down.setflags(write=False)
    return up, down


@lru_cache(maxsize=None)
def ladder_matrix(n: int, order: int = 1) -> np.ndarray:
    """Dense d=1 derivative of the given order (>= 1), from order n to n + order.

    Shape (n + order + 1, n + 1); order 2 is the product of two ladder
    steps.  Built on first use and cached per (n, order).
    """
    up, down = _ladder_factors(n + order - 1)
    k = np.arange(n + order)
    out = np.zeros((n + order + 1, n + order))
    out[k[:-1], k[1:]] = up[:-1]
    out[k + 1, k] = -down
    if order > 1:
        out = out @ ladder_matrix(n, order - 1)
    out.setflags(write=False)
    return out


def second_derivative_coeffs(c: np.ndarray, d: int, n: int, axes) -> np.ndarray:
    """Coefficient tensor of the mixed second derivative of the order-n
    tensor ``c``: order n + 2, axes applied in sorted order."""
    if d == 1:
        return c @ ladder_matrix(n, 2).T
    i, j = sorted(int(a) for a in axes)
    return derivative_coeffs(derivative_coeffs(c, d, n, i), d, n + 1, j)


@lru_cache(maxsize=None)
def ladder_stack(n: int) -> np.ndarray:
    """The d=1 identity, first and second derivatives from order n to n + 2, side
    by side: c @ this is [c, D c, D^2 c], each at order n + 2, for rows c.  Shape
    (n + 1, 3 (n + 3)); built on first use and cached per n."""
    out = np.zeros((3, n + 3, n + 1))
    out[0, : n + 1] = np.eye(n + 1)
    out[1, : n + 2] = ladder_matrix(n, 1)
    out[2] = ladder_matrix(n, 2)
    out = out.reshape(-1, n + 1).T.copy()
    out.setflags(write=False)
    return out


def derivative_stack(c: np.ndarray, d: int, n: int) -> np.ndarray:
    """The batch of order-n tensors c, its first derivatives d_i c, then its second
    derivatives d_i d_l c for i <= l (lexicographic), each flat at order n + 2:
    shape (P, 1 + d + d (d + 1) / 2, (n + 3)^d), by the ladder recurrence.  At d = 1
    it is c @ ``ladder_stack`` (n), up to rounding."""
    rows = c.shape[0]
    firsts = [derivative_coeffs(c, d, n, i) for i in range(d)]
    seconds = [derivative_coeffs(firsts[i], d, n + 1, l) for i in range(d) for l in range(i, d)]
    terms = [_pad_tensor(c, d, n, n + 2)] + [_pad_tensor(t, d, n + 1, n + 2) for t in firsts] + seconds
    return np.stack([t.reshape(rows, -1) for t in terms], axis=1)


def second_derivative(state: SpectralState, axes=(0, 0)) -> SpectralState:
    """Mixed second derivative; axes are applied in sorted order so the
    (i, j) and (j, i) results are identical arrays."""
    _require_hermite(state, "second_derivative")
    for axis in sorted(int(a) for a in axes):
        _check_axis(state, axis)
    d, n = state.d, state.N
    return SpectralState(d, n + 2, second_derivative_coeffs(state.coeffs, d, n, axes))


@lru_cache(maxsize=None)
def _shift_eig(n: int):
    """Eigendecomposition of i * (derivative generator) at order n.

    The truncated generator is skew-symmetric and banded, so i*D is
    Hermitian; the shift group exp(-x D) is then a unitary conjugation
    with pure phases, which keeps repeated shifts well conditioned.
    """
    m = np.arange(n)
    dmat = np.zeros((n + 1, n + 1))
    up = np.sqrt((m + 1) / 2.0)
    dmat[m, m + 1] = up
    dmat[m + 1, m] = -up
    evals, evecs = np.linalg.eigh(1j * dmat)
    evals.setflags(write=False)
    return evals, evecs


def translate(state: SpectralState, shift) -> SpectralState:
    """Shift the represented function by ``shift`` (argument translation).

    Implemented as exp(-sum_i x_i D_i) with D_i the truncated derivative
    generator; a zero shift returns the input unchanged.  For d >= 2 the
    result is projected back onto the total-order simplex.  A (P, d)
    shift gives the batch of P shifted states; a batched state is shifted
    path by path.
    """
    _require_hermite(state, "translate")
    d = state.d
    x = np.asarray(shift, dtype=float)
    x = x.reshape(d) if x.ndim < 2 and x.size == d else x
    if x.shape[-1:] != (d,) or x.ndim > 2:
        raise ValueError(f"shift must have {d} entries, got shape {x.shape}")
    unshifted = (x == 0.0).all(-1)
    if unshifted.ndim == 0 and unshifted:
        return state
    if d == 1 and not state.batch:
        lam, t_cos, t_sin = state._shift_tables
        angle = x[..., :1] * lam
        c = np.cos(angle) @ t_cos + np.sin(angle) @ t_sin
    else:
        evals, evecs = _shift_eig(state.N)
        c = state.coeffs.astype(complex)
        if x.ndim == 2 and not state.batch:
            c = np.broadcast_to(c, x.shape[:1] + c.shape)
        for axis in range(d):
            if np.all(x[..., axis] == 0.0):
                continue
            phase = np.exp(1j * x[..., axis, None] * evals)
            phase = phase.reshape(phase.shape[:-1] + (1,) * (d - 1) + evals.shape)
            a = np.moveaxis(c, axis - d, -1)
            a = (phase * (a @ evecs.conj())) @ evecs.T
            c = np.moveaxis(a, -1, axis - d)
    c = c.real
    if unshifted.any():
        # paths with a zero shift keep their state exactly
        c = np.where(unshifted.reshape(unshifted.shape + (1,) * d), state.coeffs, c)
    return SpectralState(d, state.N, _mask_simplex(c, d, state.N))


def top_band_ratio(state: SpectralState, q: float = 0.0):
    """Relative coefficient mass on the top-order band |n| == N.

    Used as a truncation-quality proxy: a represented function whose top
    band carries visible mass is not resolved at this truncation.  A
    batch of states gives one ratio per path.
    """
    _require_hermite(state, "top_band_ratio")
    w = hermite_weights(state.d, state.N, q)
    mass = (w * state.coeffs**2).reshape(state.batch + (-1,))
    total = np.sqrt(mass.sum(-1))
    top = np.sqrt(mass[..., (order_grid(state.d, state.N) == state.N).ravel()].sum(-1))
    # a zero state has no top band either
    ratio = top / np.where(total == 0.0, 1.0, total)
    return float(ratio) if ratio.ndim == 0 else ratio


# -- evaluation and quadrature ---------------------------------------------


def hermite_values(n_max: int, x) -> np.ndarray:
    """Table of orthonormal Hermite function values, shape (n_max+1,) + x.shape.

    Uses the stable three-term recurrence on the normalised functions.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1,) + x.shape)
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    out[0] = h0
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * h0
    for k in range(1, n_max):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


@lru_cache(maxsize=None)
def gauss_hermite_rule(n_nodes: int):
    """Gauss-Hermite nodes with weights for plain dx integration.

    The returned weights absorb the Gaussian factor (Christoffel form
    1 / sum_k h_k(t)^2), which stays finite for large rules where the
    textbook weights underflow.  Exact for products of basis functions
    with combined degree <= 2*n_nodes - 1.
    """
    nodes, _ = np.polynomial.hermite.hermgauss(n_nodes)
    table = hermite_values(n_nodes - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def evaluate(state: SpectralState, points) -> np.ndarray:
    """Pointwise values of the represented function.

    For d == 1 ``points`` is any float array; for d >= 2 it must have
    trailing dimension d.
    """
    _require_hermite(state, "evaluate")
    pts = np.asarray(points, dtype=float)
    if state.d == 1:
        x = np.atleast_1d(pts)
        table = hermite_values(state.N, x.ravel())
        vals = state.coeffs @ table
        return vals.reshape(x.shape) if pts.ndim else float(vals[0])
    if pts.shape[-1] != state.d:
        raise ValueError(f"points must have trailing dimension {state.d}")
    flat_pts = pts.reshape(-1, state.d)
    vals = np.empty(flat_pts.shape[0])
    for k, p in enumerate(flat_pts):
        acc = state.coeffs
        for axis in range(state.d):
            acc = np.tensordot(hermite_values(state.N, p[axis]), acc, axes=(0, 0))
        vals[k] = acc
    return vals.reshape(pts.shape[:-1])
