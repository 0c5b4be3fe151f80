"""Concrete drift/diffusion models.

Two families share one small protocol (``geometry``, ``n_noise``,
``drift``, ``diffusion``, optional ``diffusion_derivative`` and
``step_sum``).  Each callable takes one state or a batch of states (one
row per path) and returns states with the same leading path axis, or
single states that hold on every path (constant noise fields).
``step_sum`` is the array kernel the full-space loop calls: the live
paths' coefficient arrays and increments in, the commutative-form
Milstein step y + drift dt + sum_j A^j dW^j
+ 1/2 sum_jk DA^k(y)[A^j(y)] (dW^j dW^k - delta_jk dt) out, in one buffer.
The families:

* transport models whose coefficients are dual pairings against the
  state, with quadratic transport drift and linear transport noise; their
  step is one weighted sum of the state's first and second derivatives and
  of the constant fields and their first derivatives, with per-row weights
  from one pairing product;
* a divergence-form grid model with exponent p >= 2 on the unit
  interval (p == 2 reduces exactly to the second-difference operator),
  whose additive noise has no Milstein term.

Each family computes on arrays once, in its kernel pieces (the
transport model's stacked pairings, drift and paired fields over ladder
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
    add_block,
    derivative_coeffs,
    derivative_stack,
    ladder_stack,
    pair,
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

    @cached_property
    def _step_tables(self) -> dict:
        """(state order, step) -> ``_StepTables`` of the Milstein step, built on first use."""
        return {}

    def step_sum(self, c: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
        """One Milstein step on arrays for the order-n coefficient tensors c of P
        paths and their increments dw, shape (P, n_noise), in one new buffer at
        the largest order of its terms:

            c + sum_i alpha_i d_i c + sum_{i<=l} gamma_il d_i d_l c
              + sum_e (dW_e f_e + sum_i eps_ie d_i f_e),

        f_e the constant fields.  With s_ji = <sigma[j][i], y>, S_i = sum_j
        s_ji dW_j, q_kil = <sigma[k][i], d_l y> and H_jk = dW_j dW_k - delta_jk dt:
        alpha_i = -<b_i, y> dt - S_i + 1/2 sum_jkl s_jl q_kil H_jk
        - 1/2 sum_ke <sigma[k][i], f_e> dW_k dW_e, gamma the products S_i S_l / 2
        (summed over both orders off the diagonal), and eps_ie = -S_i dW_e / 2.
        Every weight is a quadratic form in the products v (x) pp of
        v = (dW, 1) and pp = (1, pairings): per row the product of v (x) pp with
        a fixed tensor, contracted with v (x) pp again.  The sum is one weighted
        contraction of c and its derivatives (``derivative_stack``), plus the
        forcing by the constant fields.  At d = 1 the pairings and the
        derivatives come from one product."""
        d, n, rows = self.d, c.shape[-1] - 1, c.shape[0]
        tables = self._step_tables.get((n, dt))
        if tables is None:
            tables = self._step_tables[n, dt] = _StepTables.build(self, n, dt)
        n_noise = dw.shape[1]
        prod = c.reshape(rows, -1) @ tables.matrix
        u = np.concatenate((dw, np.ones((rows, 1)), prod[:, : tables.n_pairs]), axis=1)
        vp = (u[:, : n_noise + 1, None] * u[:, None, n_noise:]).reshape(rows, 1, -1)  # v (x) pp
        w = vp @ (vp[:, 0] @ tables.weights).reshape(rows, vp.shape[-1], -1)  # (P, 1, terms)
        terms = tables.n_derivs
        x = prod[:, tables.n_pairs :].reshape(rows, terms, -1) if d == 1 else derivative_stack(c, d, n)
        acc = (w[..., :terms] @ x).reshape((rows,) + (n + 3,) * d)
        if tables.fields is not None:
            forced = (w[:, 0, terms:] @ tables.fields).reshape((rows,) + tables.field_shape)
            acc = add_block(acc, forced, d)
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


def _to_order(c: np.ndarray, d: int, n_from: int, n_to: int) -> np.ndarray:
    """The order-n_from tensor c cut or zero padded to order n_to."""
    if n_from >= n_to:
        return c[(Ellipsis,) + (slice(0, n_to + 1),) * d]
    return _pad_tensor(c, d, n_from, n_to)


@dataclass(frozen=True)
class _StepTables:
    """The fixed arrays of ``ItoTypeModel.step_sum`` at one state order and step.

    The first ``n_pairs`` columns of ``matrix`` (flat coefficients by
    columns) pair an order-n state with b_i, then sigma[j][i] (j-major), then
    -d_l sigma[k][i] ((k, i, l)-major), whose pairing is <sigma[k][i], d_l y>;
    each dual is cut or padded to order n, since the state has no coefficient
    above it.  At d = 1 ``ladder_stack`` follows, so that one product gives
    the pairings and ``derivative_stack``.  ``weights`` holds, for each pair
    of products v_f pp_a and v_g pp_b (flat f-major, by rows and then by
    blocks of columns), the coefficient of v_f pp_a v_g pp_b in the weight
    of each term: the ``n_derivs`` arrays of ``derivative_stack``, then the
    constant fields f_e and their first derivatives d_i f_e (i-major), whose
    flat coefficients ``fields`` holds (None without constant fields).  Here
    v is the increments and 1, and pp is 1 and the pairings."""

    matrix: np.ndarray
    n_pairs: int
    weights: np.ndarray
    n_derivs: int
    fields: np.ndarray | None
    field_shape: tuple

    @classmethod
    def build(cls, model: ItoTypeModel, n: int, dt: float) -> "_StepTables":
        d, J, fixed = model.d, model.J, model.extra_fields
        E, n_noise = len(fixed), model.n_noise
        sigma = [dual for row in model.sigma for dual in row]
        columns = [_to_order(g.coeffs, d, g.N, n) for g in model.b + tuple(sigma)]
        for g in sigma:
            columns += [_to_order(-derivative_coeffs(g.coeffs, d, g.N, l), d, g.N + 1, n) for l in range(d)]
        duals = np.stack([col.reshape(-1) for col in columns], axis=1)
        matrix = np.ascontiguousarray(np.hstack([duals, ladder_stack(n)]) if d == 1 else duals)

        n_pairs, one = duals.shape[1], n_noise  # the v index of the constant 1
        pairs = [(i, l) for i in range(d) for l in range(i, d)]
        n_derivs = 1 + d + len(pairs)
        w = np.zeros(((n_noise + 1) * (n_pairs + 1),) * 2 + (n_derivs + E + d * E,))

        def add(left, right, term, value):
            """Add value to the coefficient of the monomial v_f pp_a v_g pp_b, left = (f, a)
            and right = (g, b), in the weight of the term."""
            w[left[0] * (n_pairs + 1) + left[1], right[0] * (n_pairs + 1) + right[1], term] += value

        def s(j, i):  # the pp index of <sigma[j][i], y>
            return 1 + d + j * d + i

        def q(k, i, l):  # the pp index of <sigma[k][i], d_l y>
            return 1 + d + J * d + (k * d + i) * d + l

        add((one, 0), (one, 0), 0, 1.0)  # c itself
        for i in range(d):  # alpha_i, the weight of d_i c
            add((one, 0), (one, 1 + i), 1 + i, -dt)
            for j in range(J):
                add((j, s(j, i)), (one, 0), 1 + i, -1.0)
                for k in range(J):
                    for l in range(d):
                        add((j, s(j, l)), (k, q(k, i, l)), 1 + i, 0.5)
                        if j == k:
                            add((one, s(j, l)), (one, q(k, i, l)), 1 + i, -0.5 * dt)
                for e, f in enumerate(fixed):
                    add((j, 0), (J + e, 0), 1 + i, -0.5 * pair(model.sigma[j][i], f))
                    add((j, s(j, i)), (J + e, 0), n_derivs + E + i * E + e, -0.5)
        for col, (i, l) in enumerate(pairs, start=1 + d):
            for j in range(J):
                for k in range(J):
                    add((j, s(j, i)), (k, s(k, l)), col, 0.5 if i == l else 1.0)
        for e in range(E):
            add((J + e, 0), (one, 0), n_derivs + e, 1.0)
        fields, top = None, max([f.N + 1 for f in fixed], default=0)
        if fixed:
            forced = [f.coeffs for f in fixed] + [
                derivative_coeffs(f.coeffs, d, f.N, i) for i in range(d) for f in fixed
            ]
            fields = np.stack([_pad_tensor(t, d, t.shape[-1] - 1, top).reshape(-1) for t in forced])
        return cls(matrix, n_pairs, w.reshape(w.shape[0], -1), n_derivs, fields, (top + 1,) * d)


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

    def step_sum(self, v: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
        """One step on arrays, as ``ItoTypeModel.step_sum``: v + drift dt +
        sum_j field_j dW^j for the grid values v of P paths, in one buffer; the
        fields are constant, so the Milstein term vanishes."""
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
