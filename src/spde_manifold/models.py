"""Concrete drift/diffusion models.

Two families share one small protocol (``geometry``, ``n_noise``,
``drift``, ``diffusion``, optional ``diffusion_derivative`` and
``drift_and_diffusion``).  Each callable takes one state or a batch of
states (one row per path) and returns states with the same leading path
axis, or single states that hold on every path (constant noise fields).
``drift_and_diffusion`` is the array form of the first two, coefficient
arrays in and out.  The families:

* transport models whose coefficients are dual pairings against the
  state, with quadratic transport drift and linear transport noise;
* a divergence-form grid model with exponent p >= 2 on the unit
  interval (p == 2 reduces exactly to the second-difference operator).

Each family computes on arrays once, in its kernel pieces (the
transport model's stacked pairings and paired fields over ladder
derivatives, the grid model's flux differences); its state methods only
wrap arrays into states at the edge.

The Stratonovich-style drift correction sum_j DA^j(y) A^j(y) is
available analytically where the model supplies the derivative and by
directional central differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import GridGeometry, HermiteGeometry
from .grid import GridState
from .hermite import (
    DEFAULT_SCALE,
    NormScale,
    SpectralState,
    _pad_tensor,
    derivative_coeffs,
    second_derivative_coeffs,
    weighted_sum,
)

__all__ = [
    "ItoTypeModel",
    "PLaplaceModel",
    "StratCorrection",
    "stratonovich_correction",
]

DA_MODES = ("auto", "analytic", "fd")
FD_STEP_DA = 1e-4  # step of the directional difference of the diffusion fields


# -- transport model with pairing coefficients -------------------------------


@dataclass(frozen=True, eq=False)
class ItoTypeModel:
    """Transport drift/diffusion with coefficients paired against the state.

    ``b`` holds one dual per space direction; ``sigma[j][i]`` is the dual
    for noise component j and direction i.  ``extra_fields`` appends
    constant (state-independent) diffusion components, which is the
    simplest way to build a deliberately off-tangent variant.
    """

    d: int
    J: int
    N: int
    b: tuple
    sigma: tuple
    extra_fields: tuple = ()
    scale: NormScale = DEFAULT_SCALE

    def __post_init__(self):
        if len(self.b) != self.d:
            raise ValueError(f"need {self.d} drift duals, got {len(self.b)}")
        if len(self.sigma) != self.J:
            raise ValueError(f"need {self.J} sigma rows, got {len(self.sigma)}")
        for row in self.sigma:
            if len(row) != self.d:
                raise ValueError("each diffusion row needs one dual per direction")
        for dual in list(self.b) + [s for row in self.sigma for s in row]:
            if dual.d != self.d:
                raise ValueError("dual dimension mismatch")
        for f in self.extra_fields:
            if f.d != self.d:
                raise ValueError("extra field dimension mismatch")

    @property
    def geometry(self) -> HermiteGeometry:
        return HermiteGeometry(self.d, self.N, self.scale)

    @property
    def n_noise(self) -> int:
        return self.J + len(self.extra_fields)

    @cached_property
    def _dual_stacks(self) -> dict:
        """State order -> (n, the coefficients of b then sigma (j-major) at order n,
        one (K, 1) matrix per dual), n the larger of the state's and the duals' orders."""
        return {}

    def _coeffs(self, y: SpectralState) -> np.ndarray:
        """y's coefficient tensor; a state of another dimension would read as a batch."""
        if y.d != self.d:
            raise ValueError(f"dimension mismatch: model d={self.d}, state d={y.d}")
        return y.coeffs

    def drift(self, y: SpectralState) -> SpectralState:
        return _state(self.d, self.drift_and_diffusion(self._coeffs(y))[0])

    def drift_and_diffusion(self, c: np.ndarray):
        """``drift`` and ``diffusion`` on arrays: the coefficient tensor of one
        state, or a batch, to the drift's and every noise field's, each at its
        own order.  The drift is half the pairing covariance against second
        derivatives minus the paired first-order transport term; a term whose
        weight vanishes on every path is skipped."""
        d, n = self.d, c.shape[-1] - 1
        b, s = _pairings(self, c, n)
        cov = s.swapaxes(-1, -2) @ s  # (..., d, d)
        partials = [derivative_coeffs(c, d, n, i) for i in range(d)]
        terms = []
        for i in range(d):
            for j in range(i, d):
                w = 0.5 * cov[..., i, j] if i == j else cov[..., i, j]
                if np.count_nonzero(w):
                    terms.append((second_derivative_coeffs(c, d, n, (i, j)), w))
        for i in range(d):
            if np.count_nonzero(b[..., i]) or not terms:
                terms.append((partials[i], -b[..., i]))
        fields = _paired_fields(partials, s, d)
        return weighted_sum(terms, d), fields + [f.coeffs for f in self.extra_fields]

    def diffusion(self, y: SpectralState) -> list:
        """Every noise field at y: the paired transport fields, then the constants."""
        d, n, c = self.d, y.N, self._coeffs(y)
        partials = [derivative_coeffs(c, d, n, i) for i in range(d)]
        fields = _paired_fields(partials, _pairings(self, c, n)[1], d)
        return [_state(d, f) for f in fields] + list(self.extra_fields)

    def diffusion_derivative(self, y: SpectralState, u: SpectralState, j: int) -> SpectralState:
        """Derivative of component j at y applied to u (exact product rule):
        -sum_i (<sigma[j][i], u> d_i y + <sigma[j][i], y> d_i u)."""
        if j >= self.J:
            return SpectralState.zero(self.d, 0)  # constant extras
        d, terms = self.d, []
        cy, cu = self._coeffs(y), self._coeffs(u)
        sy, su = (_pairings(self, c, c.shape[-1] - 1)[1][..., j, :] for c in (cy, cu))
        for i in range(d):
            terms.append((derivative_coeffs(cy, d, y.N, i), -su[..., i]))
            terms.append((derivative_coeffs(cu, d, u.N, i), -sy[..., i]))
        return _state(d, weighted_sum(terms, d))


def _pairings(model: ItoTypeModel, c: np.ndarray, n: int):
    """Pairings of the order-n coefficient tensors c (one or a batch) with b,
    shape (..., d), and with sigma, shape (..., J, d): row j pairs sigma[j].

    One product against the stacked duals, at the order of the state or
    of the longest dual; it makes one matrix-vector product per dual, so
    each pairing rounds as ``hermite.pair`` does."""
    d = model.d
    got = model._dual_stacks.get(n)
    if got is None:
        duals = model.b + tuple(s for row in model.sigma for s in row)
        top = max([n] + [g.N for g in duals])
        rows = [_pad_tensor(g.coeffs, g.d, g.N, top).reshape(-1, 1) for g in duals]
        got = model._dual_stacks[n] = (top, np.stack(rows))
    top, stack = got
    c = _pad_tensor(c, d, n, top)
    p = np.matmul(c.reshape(c.shape[: c.ndim - d] + (-1,)), stack)[..., 0].T
    return p[..., :d], p[..., d:].reshape(p.shape[:-1] + (model.J, d))


def _paired_fields(partials: list, s: np.ndarray, d: int) -> list:
    """Noise field j = -sum_i s[..., j, i] d_i y, from the first derivatives d_i y."""
    return [
        weighted_sum([(p, -s[..., j, i]) for i, p in enumerate(partials)], d)
        for j in range(s.shape[-2])
    ]


def _state(d: int, c: np.ndarray) -> SpectralState:
    return SpectralState(d, c.shape[-1] - 1, c)


# -- divergence-form grid model ----------------------------------------------


@dataclass(frozen=True, eq=False)
class PLaplaceModel:
    """Divergence of |grad y|^(p-2) grad y on (0, 1) with Dirichlet ends.

    Face-centred gradients on the uniform interior grid; for p == 2 the
    scheme is exactly the second-difference operator.
    """

    p_exponent: float
    M: int
    fields: tuple = ()

    def __post_init__(self):
        if self.p_exponent < 2.0:
            raise ValueError("exponent must satisfy p >= 2")
        if self.M < 2:
            raise ValueError("need at least two interior grid points")
        for f in self.fields:
            if f.M != self.M:
                raise ValueError(f"diffusion field grid size mismatch: M={f.M}, needs M={self.M}")

    @property
    def geometry(self) -> GridGeometry:
        return GridGeometry(self.M)

    @property
    def n_noise(self) -> int:
        return len(self.fields)

    def drift(self, y: GridState) -> GridState:
        if y.M != self.M:
            raise ValueError("grid size mismatch")
        return GridState(_plaplace(self, y.values))

    def drift_and_diffusion(self, v: np.ndarray):
        """``drift`` and ``diffusion`` on arrays: grid values, one state or a batch."""
        return _plaplace(self, v), [f.values for f in self.fields]

    def diffusion(self, y: GridState) -> list:
        return list(self.fields)

    def diffusion_derivative(self, y: GridState, u: GridState, j: int) -> GridState:
        return GridState.zero(self.M)


def _plaplace(model: PLaplaceModel, v: np.ndarray) -> np.ndarray:
    h = 1.0 / (model.M + 1)
    wall = np.zeros(v.shape[:-1] + (1,))
    g = np.diff(np.concatenate((wall, v, wall), -1), axis=-1) / h  # M + 1 face slopes
    flux = np.abs(g) ** (model.p_exponent - 2.0) * g
    return np.diff(flux, axis=-1) / h


# -- Stratonovich-style drift correction --------------------------------------


@dataclass
class StratCorrection:
    """For a batch of states ``value`` is batched and ``step_disagreement`` is (P,)."""

    value: object
    mode: str
    step_disagreement: float


def stratonovich_correction(model, y, *, da_mode: str = "auto") -> StratCorrection:
    """sum_j DA^j(y) A^j(y) for the model's diffusion components.

    ``da_mode``: "analytic" uses the model's derivative, "fd" uses
    directional central differences of the diffusion map (step
    ``FD_STEP_DA`` / (1 + |A^j(y)|)), "auto" prefers analytic.  The
    finite-difference mode re-evaluates at half step and reports the
    relative disagreement.  A batch of states is corrected path by path:
    each path has its own step and its own disagreement.
    """
    if da_mode not in DA_MODES:
        raise ValueError(f"da_mode must be one of {'/'.join(DA_MODES)}, got {da_mode!r}")
    geo = model.geometry
    fields = model.diffusion(y)
    if da_mode == "auto":
        da_mode = "analytic" if hasattr(model, "diffusion_derivative") else "fd"
    total = None
    disagreement = np.zeros(y.batch) if y.batch else 0.0
    for j, u in enumerate(fields):
        norm_u = geo.norm_mid(u)
        if not np.any(norm_u):
            continue
        if da_mode == "analytic":
            term = model.diffusion_derivative(y, u, j)
        else:
            def directional(eps):
                plus = model.diffusion(y + u * eps)[j]
                minus = model.diffusion(y - u * eps)[j]
                return (plus - minus) * (0.5 / eps)

            eps = FD_STEP_DA / (1.0 + norm_u)
            term = directional(eps)
            check = directional(0.5 * eps)
            denom = np.maximum(geo.norm_mid(term), 1e-30)
            disagreement = np.maximum(disagreement, geo.norm_mid(term - check) / denom)
        total = term if total is None else total + term
    if total is None:
        total = geo.zero_state()
    return StratCorrection(total, da_mode, disagreement)
