"""Concrete drift/diffusion models.

Three families share one small protocol (``geometry``, ``n_noise``,
``drift``, ``diffusion``, optional ``diffusion_derivative``).  Models
whose ``batched`` attribute is true also accept a batch of states (one
row per path) in ``drift`` and ``diffusion``; ``as_batched`` wraps any
other model so it is called row by row.  The families:

* transport models whose coefficients are dual pairings against the
  state, with quadratic transport drift and linear transport noise;
* a divergence-form grid model with exponent p >= 2 on the unit
  interval (p == 2 reduces exactly to the second-difference operator);
* a generic linear operator with declared eigenpairs.

The Stratonovich-style drift correction sum_j DA^j(y) A^j(y) is
available analytically where the model supplies the derivative and by
directional central differences otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import GridGeometry, HermiteGeometry, stack_states, unstack_states
from .grid import GridState
from .hermite import (
    DEFAULT_SCALE,
    DualField,
    NormScale,
    SpectralState,
    derivative,
    pair,
    second_derivative,
)

__all__ = [
    "ItoTypeModel",
    "PLaplaceModel",
    "LinearEigenModel",
    "ito_drift",
    "ito_diffusion",
    "sigma_pairings",
    "ito_diffusion_from_pairings",
    "plaplace_drift",
    "linear_drift",
    "StratCorrection",
    "stratonovich_correction",
    "as_batched",
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

    batched = True

    def __post_init__(self):
        if len(self.b) != self.d:
            raise ValueError(f"need {self.d} drift duals, got {len(self.b)}")
        if len(self.sigma) != self.J:
            raise ValueError(f"need {self.J} diffusion rows, got {len(self.sigma)}")
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

    @property
    def sigma_sq_sum(self) -> float:
        """Summability proxy: total squared coefficient mass of the noise duals."""
        return float(sum(s.l2() ** 2 for row in self.sigma for s in row))

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


def sigma_pairings(model: ItoTypeModel, y: SpectralState) -> np.ndarray:
    """Matrix of noise pairings, shape (d, J); entry (i, j) pairs sigma[j][i].

    A batch of P states gives shape (P, d, J).
    """
    out = np.empty(y.batch + (model.d, model.J))
    for j in range(model.J):
        for i in range(model.d):
            out[..., i, j] = pair(model.sigma[j][i], y)
    return out


def ito_drift(model: ItoTypeModel, y: SpectralState) -> SpectralState:
    """Transport drift: half the pairing covariance against second
    derivatives minus the paired first-order transport term.

    A term whose weight vanishes on every path is skipped.
    """
    s = sigma_pairings(model, y)
    cov = s @ np.swapaxes(s, -1, -2)  # (..., d, d)
    terms = []
    for i in range(model.d):
        for j in range(i, model.d):
            w = 0.5 * cov[..., i, j] if i == j else cov[..., i, j]
            if w.any():
                terms.append((second_derivative(y, (i, j)), w))
    for i in range(model.d):
        bi = pair(model.b[i], y)
        if bi.any() or not terms:
            terms.append((derivative(y, axis=i), -bi))
    return SpectralState.combine(terms)


def ito_diffusion_from_pairings(
    model: ItoTypeModel, pairings: np.ndarray, y: SpectralState
) -> list:
    """Noise fields for a frozen pairing matrix: linear in y by construction."""
    partials = [derivative(y, axis=i) for i in range(model.d)]
    fields = []
    for j in range(model.J):
        f = None
        for i in range(model.d):
            term = partials[i] * (-pairings[..., i, j])
            f = term if f is None else f + term
        fields.append(f)
    return fields


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

    batched = True

    def __post_init__(self):
        if self.p_exponent < 2.0:
            raise ValueError("exponent must satisfy p >= 2")
        if self.M < 2:
            raise ValueError("need at least two interior grid points")
        for f in self.fields:
            if f.M != self.M:
                raise ValueError("diffusion field grid size mismatch")

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
    return GridState.of(np.diff(flux, axis=-1) / h)


# -- generic linear operator with eigenpairs ----------------------------------


@dataclass(frozen=True, eq=False)
class LinearEigenModel:
    """A linear drift operator validated against declared eigenpairs.

    ``operator`` maps one state, so batches go through ``as_batched``.
    """

    operator: Callable
    eigenpairs: tuple  # ((state, eigenvalue), ...)
    fields: tuple = ()
    geometry: object = None
    eigen_tol: float = 1e-8

    def __post_init__(self):
        if self.geometry is None:
            raise ValueError("linear model needs an explicit geometry")
        for v, lam in self.eigenpairs:
            resid = self.operator(v) - v * float(lam)
            denom = self.geometry.norm_mid(v)
            if denom == 0.0:
                raise ValueError("eigenvector must be nonzero")
            rel = self.geometry.norm_mid(resid) / denom
            if rel > self.eigen_tol:
                raise ValueError(
                    f"declared eigenpair fails: relative residual {rel:.3e} "
                    f"for eigenvalue {lam}"
                )

    @property
    def n_noise(self) -> int:
        return len(self.fields)

    def drift(self, y):
        return linear_drift(self, y)

    def diffusion(self, y) -> list:
        return list(self.fields)

    def diffusion_derivative(self, y, u, j: int):
        return self.geometry.zero_state() * 0.0


def linear_drift(model: LinearEigenModel, y):
    return model.operator(y)


# -- Stratonovich-style drift correction --------------------------------------


@dataclass
class StratCorrection:
    value: object
    mode: str
    step_disagreement: float
    warnings: list = field(default_factory=list)


def stratonovich_correction(
    model,
    y,
    *,
    da_mode: str = "auto",
    h_fd: float = 1e-4,
    sensitivity_tol: float = 1e-5,
) -> StratCorrection:
    """sum_j DA^j(y) A^j(y) for the model's diffusion components.

    ``da_mode``: "analytic" uses the model's derivative, "fd" uses
    directional central differences of the diffusion map, "auto" prefers
    analytic.  The finite-difference mode re-evaluates at half step and
    reports the relative disagreement.
    """
    if da_mode not in DA_MODES:
        raise ValueError(f"da_mode must be one of {'/'.join(DA_MODES)}, got {da_mode!r}")
    geo = model.geometry
    fields = model.diffusion(y)
    if da_mode == "auto":
        da_mode = "analytic" if hasattr(model, "diffusion_derivative") else "fd"
    total = None
    disagreement = 0.0
    warnings = []
    for j, u in enumerate(fields):
        norm_u = geo.norm_mid(u)
        if norm_u == 0.0:
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
            denom = max(geo.norm_mid(term), 1e-30)
            disagreement = max(disagreement, geo.norm_mid(term - check) / denom)
        total = term if total is None else total + term
    if total is None:
        total = geo.zero_state()
    if da_mode == "fd" and disagreement > sensitivity_tol:
        warnings.append(
            f"directional difference is step-sensitive: halving the step moved "
            f"the correction by a relative {disagreement:.3e}"
        )
    return StratCorrection(total, da_mode, disagreement, warnings)


# -- per-row adapter ------------------------------------------------------------


class _RowwiseModel:
    """Calls a single-state model once per path of a batched state."""

    batched = True

    def __init__(self, model):
        self.model = model
        self.geometry = model.geometry
        self.n_noise = model.n_noise

    def drift(self, y):
        if not y.batch:
            return self.model.drift(y)
        return stack_states([self.model.drift(row) for row in unstack_states(y)])

    def diffusion(self, y) -> list:
        if not y.batch:
            return self.model.diffusion(y)
        per_row = [self.model.diffusion(row) for row in unstack_states(y)]
        return [stack_states(list(fields)) for fields in zip(*per_row)]


def as_batched(model):
    """The model itself when it takes batched states, else a per-row adapter."""
    return model if getattr(model, "batched", False) else _RowwiseModel(model)
