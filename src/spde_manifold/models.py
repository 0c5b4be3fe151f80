"""Concrete drift/diffusion models.

Two families share one small protocol (``geometry``, ``n_noise``,
``drift``, ``diffusion``, optional ``diffusion_derivative``).  Each
callable takes one state or a batch of states (one row per path) and
returns states with the same leading path axis, or single states that
hold on every path (constant noise fields).  The families:

* transport models whose coefficients are dual pairings against the
  state, with quadratic transport drift and linear transport noise;
* a divergence-form grid model with exponent p >= 2 on the unit
  interval (p == 2 reduces exactly to the second-difference operator).

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
    derivative,
    derivative_coeffs,
    pair,
    second_derivative_coeffs,
    weighted_sum,
)

__all__ = [
    "ItoTypeModel",
    "PLaplaceModel",
    "ito_drift",
    "ito_diffusion",
    "sigma_pairings",
    "ito_diffusion_from_pairings",
    "plaplace_drift",
    "StratCorrection",
    "stratonovich_correction",
]

DA_MODES = ("auto", "analytic", "fd")


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

    def drift(self, y: SpectralState) -> SpectralState:
        return ito_drift(self, y)

    def diffusion(self, y: SpectralState) -> list:
        return ito_diffusion(self, y)

    def diffusion_derivative(self, y: SpectralState, u: SpectralState, j: int) -> SpectralState:
        """Derivative of component j at y applied to u (exact product rule)."""
        if j >= self.J:
            return SpectralState.zero(self.d, 0)  # constant extras
        out = None
        for i in range(self.d):
            term = derivative(y, axis=i) * (-pair(self.sigma[j][i], u))
            term = term + derivative(u, axis=i) * (-pair(self.sigma[j][i], y))
            out = term if out is None else out + term
        return out


def _pairings(model: ItoTypeModel, y: SpectralState) -> np.ndarray:
    """Pairings of y with b then sigma (j-major), shape (..., d + J d).

    One product against the stacked duals, at the order of the state or
    of the longest dual; it makes one matrix-vector product per dual, so
    each pairing rounds as ``pair`` does."""
    if y.d != model.d:
        raise ValueError(f"dimension mismatch: dual d={model.d}, state d={y.d}")
    got = model._dual_stacks.get(y.N)
    if got is None:
        duals = model.b + tuple(s for row in model.sigma for s in row)
        n = max([y.N] + [g.N for g in duals])
        rows = [_pad_tensor(g.coeffs, g.d, g.N, n).reshape(-1, 1) for g in duals]
        got = model._dual_stacks[y.N] = (n, np.stack(rows))
    n, stack = got
    c = _pad_tensor(y.coeffs, y.d, y.N, n)
    return np.matmul(c.reshape(c.shape[: c.ndim - y.d] + (-1,)), stack)[..., 0].T


def sigma_pairings(model: ItoTypeModel, y: SpectralState) -> np.ndarray:
    """Matrix of noise pairings, shape (d, J); entry (i, j) pairs sigma[j][i].

    A batch of P states gives shape (P, d, J).
    """
    p = _pairings(model, y)
    return p[..., model.d :].reshape(p.shape[:-1] + (model.J, model.d)).swapaxes(-1, -2)


def _state_of(terms, d: int) -> SpectralState:
    """The weighted sum of coefficient tensors, padded to their highest order."""
    n = max(c.shape[-1] for c, _ in terms) - 1
    padded = [(_pad_tensor(c, d, c.shape[-1] - 1, n), w) for c, w in terms]
    return SpectralState(d, n, weighted_sum(padded, d))


def ito_drift(model: ItoTypeModel, y: SpectralState) -> SpectralState:
    """Transport drift: half the pairing covariance against second
    derivatives minus the paired first-order transport term.

    A term whose weight vanishes on every path is skipped (``count_nonzero``
    is ``any`` without the reduction machinery).
    """
    d, n, c = y.d, y.N, y.coeffs
    pairings = _pairings(model, y)
    s = pairings[..., d:].reshape(pairings.shape[:-1] + (model.J, d))  # row j pairs sigma[j]
    cov = s.swapaxes(-1, -2) @ s  # (..., d, d)
    terms = []
    for i in range(d):
        for j in range(i, d):
            w = 0.5 * cov[..., i, j] if i == j else cov[..., i, j]
            if np.count_nonzero(w):
                terms.append((second_derivative_coeffs(c, d, n, (i, j)), w))
    for i in range(d):
        bi = pairings[..., i]
        if np.count_nonzero(bi) or not terms:
            terms.append((derivative_coeffs(c, d, n, i), -bi))
    return _state_of(terms, d)


def ito_diffusion_from_pairings(
    model: ItoTypeModel, pairings: np.ndarray, y: SpectralState
) -> list:
    """Noise fields for a frozen pairing matrix: linear in y by construction."""
    d, n = y.d, y.N
    partials = [derivative_coeffs(y.coeffs, d, n, i) for i in range(d)]
    return [
        _state_of([(partials[i], -pairings[..., i, j]) for i in range(d)], d)
        for j in range(model.J)
    ]


def ito_diffusion(model: ItoTypeModel, y: SpectralState) -> list:
    """All noise fields at y: paired transport components plus constants."""
    fields = ito_diffusion_from_pairings(model, sigma_pairings(model, y), y)
    fields.extend(model.extra_fields)
    return fields


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
        return plaplace_drift(self, y)

    def diffusion(self, y: GridState) -> list:
        return list(self.fields)

    def diffusion_derivative(self, y: GridState, u: GridState, j: int) -> GridState:
        return GridState.zero(self.M)


def plaplace_drift(model: PLaplaceModel, y: GridState) -> GridState:
    if y.M != model.M:
        raise ValueError("grid size mismatch")
    h = y.h
    v = y.values
    wall = np.zeros(v.shape[:-1] + (1,))
    g = np.diff(np.concatenate((wall, v, wall), -1), axis=-1) / h  # M + 1 face slopes
    flux = np.abs(g) ** (model.p_exponent - 2.0) * g
    return GridState(np.diff(flux, axis=-1) / h)


# -- Stratonovich-style drift correction --------------------------------------


@dataclass
class StratCorrection:
    """For a batch of states ``value`` is batched and ``step_disagreement`` is (P,)."""

    value: object
    mode: str
    step_disagreement: float


def stratonovich_correction(
    model,
    y,
    *,
    da_mode: str = "auto",
    h_fd: float = 1e-4,
) -> StratCorrection:
    """sum_j DA^j(y) A^j(y) for the model's diffusion components.

    ``da_mode``: "analytic" uses the model's derivative, "fd" uses
    directional central differences of the diffusion map, "auto" prefers
    analytic.  The finite-difference mode re-evaluates at half step and
    reports the relative disagreement.  A batch of states is corrected
    path by path: each path has its own step and its own disagreement.
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

            eps = h_fd / (1.0 + norm_u)
            term = directional(eps)
            check = directional(0.5 * eps)
            denom = np.maximum(geo.norm_mid(term), 1e-30)
            disagreement = np.maximum(disagreement, geo.norm_mid(term - check) / denom)
        total = term if total is None else total + term
    if total is None:
        total = geo.zero_state()
    return StratCorrection(total, da_mode, disagreement)
