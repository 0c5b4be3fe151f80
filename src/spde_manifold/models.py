"""Concrete drift/diffusion models.

Two families share one small protocol (``geometry``, ``n_noise``,
``drift``, ``diffusion``, optional ``diffusion_derivative`` and
``euler_sum``).  Each callable takes one state or a batch of states (one
row per path) and returns states with the same leading path axis, or
single states that hold on every path (constant noise fields).
``euler_sum`` is the array kernel the full-space Euler loop calls: the
live paths' coefficient arrays and increments in, the step's sum
y + drift dt + sum_j A^j dW^j out, written into one buffer.  The families:

* transport models whose coefficients are dual pairings against the
  state, with quadratic transport drift and linear transport noise;
* a divergence-form grid model with exponent p >= 2 on the unit
  interval (p == 2 reduces exactly to the second-difference operator).

Each family computes on arrays once, in its kernel pieces (the
transport model's stacked pairings, drift and paired fields over ladder
derivatives, the grid model's flux differences); its state methods only
wrap arrays into states at the edge, and ``euler_sum`` adds the same
terms into its buffer, with the same roundings.

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
    add_block,
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
        c = self._coeffs(y)
        return _state(self.d, _drift(self, c, _pairings(self, c, y.N))[0])

    def euler_sum(self, c: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
        """One Euler step on arrays: c + drift dt + sum_j A^j dW^j for the order-n
        coefficient tensors c of P paths and their increments dw, shape
        (P, n_noise), written into one buffer at the largest order of its terms
        in this order: drift dt, then c, then each noise field times its
        increment.  A noise term is skipped where its increments or its field
        vanish on every path."""
        d = self.d
        p = _pairings(self, c, c.shape[-1] - 1)
        acc, partials = _drift(self, c, p)
        acc *= dt
        acc = add_block(acc, c, d)
        for j in range(self.n_noise):
            w = dw[:, j]
            if not np.count_nonzero(w):
                continue
            if j < self.J:
                field = _paired_field(partials, p[d + j * d : d + j * d + d])
            else:
                field = self.extra_fields[j - self.J].coeffs
            if np.count_nonzero(field):
                acc = add_block(acc, field * _rows(w, d), d)
        return acc

    def diffusion(self, y: SpectralState) -> list:
        """Every noise field at y: the paired transport fields, then the constants."""
        d, n, c = self.d, y.N, self._coeffs(y)
        partials = [derivative_coeffs(c, d, n, i) for i in range(d)]
        p = _pairings(self, c, n)
        fields = [_paired_field(partials, p[d + j * d : d + j * d + d]) for j in range(self.J)]
        return [_state(d, f) for f in fields] + list(self.extra_fields)

    def diffusion_derivative(self, y: SpectralState, u: SpectralState, j: int) -> SpectralState:
        """Derivative of component j at y applied to u (exact product rule):
        -sum_i (<sigma[j][i], u> d_i y + <sigma[j][i], y> d_i u)."""
        if j >= self.J:
            return SpectralState.zero(self.d, 0)  # constant extras
        d, terms = self.d, []
        cy, cu = self._coeffs(y), self._coeffs(u)
        row = d + j * d  # sigma[j][0]'s pairing
        sy, su = (_pairings(self, c, c.shape[-1] - 1)[row : row + d] for c in (cy, cu))
        for i in range(d):
            terms.append((derivative_coeffs(cy, d, y.N, i), -su[i]))
            terms.append((derivative_coeffs(cu, d, u.N, i), -sy[i]))
        return _state(d, weighted_sum(terms, d))


def _pairings(model: ItoTypeModel, c: np.ndarray, n: int) -> np.ndarray:
    """Pairings of the order-n coefficient tensors c (one or a batch) with
    b[0..d-1], then sigma[j][i] j-major: shape (d + J d,) + c's path shape, one
    row per dual.

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
    if d > 1:  # flat coefficient rows
        c = c.reshape(c.shape[: c.ndim - d] + (-1,))
    return np.matmul(c, stack)[..., 0]


def _rows(w, d: int):
    """A per-path weight (P,), or a scalar, shaped to scale d-axis tensors."""
    return w.reshape(w.shape + (1,) * d)


def _covariance(model: ItoTypeModel, p: np.ndarray) -> np.ndarray:
    """The sigma pairings' covariance sum_j <sigma[j][i], y> <sigma[j][k], y>,
    shape (..., d, d), from the pairings p."""
    d = model.d
    s_t = p[d:].reshape((model.J, d) + p.shape[1:]).T  # (..., d, J): s_t[..., i, j] pairs sigma[j][i]
    return s_t @ s_t.swapaxes(-1, -2)


def _drift(model: ItoTypeModel, c: np.ndarray, p: np.ndarray):
    """The transport drift of the order-n tensors c from their pairings p, in a
    new array, and the first derivatives it used.  Half the pairing covariance
    against second derivatives minus the paired first-order transport term; a
    term whose weight vanishes on every path is skipped."""
    d, n = model.d, c.shape[-1] - 1
    cov = _covariance(model, p)
    partials = [derivative_coeffs(c, d, n, i) for i in range(d)]
    acc = None
    for i in range(d):
        for j in range(i, d):
            w = 0.5 * cov[..., i, j] if i == j else cov[..., i, j]
            if np.count_nonzero(w):
                term = second_derivative_coeffs(c, d, n, (i, j)) * _rows(w, d)
                acc = term if acc is None else add_block(acc, term, d)
    for i in range(d):
        if np.count_nonzero(p[i]) or acc is None:
            term = partials[i] * _rows(-p[i], d)
            acc = term if acc is None else add_block(acc, term, d)
    return acc, partials


def _paired_field(partials: list, s: np.ndarray) -> np.ndarray:
    """The noise field -sum_i s[i] d_i y of one sigma row, from the first
    derivatives d_i y and that row's pairings s[i]."""
    d = len(partials)
    field = partials[0] * _rows(-s[0], d)
    for i in range(1, d):
        field += partials[i] * _rows(-s[i], d)
    return field


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

    def euler_sum(self, v: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
        """One Euler step on arrays, as ``ItoTypeModel.euler_sum``: v + drift dt +
        sum_j field_j dW^j for the grid values v of P paths, in one buffer."""
        acc = _plaplace(self, v)
        acc *= dt
        acc += v
        for j, f in enumerate(self.fields):
            w = dw[:, j]
            if np.count_nonzero(w) and np.count_nonzero(f.values):
                acc += f.values * w[:, None]
        return acc

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
