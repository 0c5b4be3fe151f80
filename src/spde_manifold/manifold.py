"""Charts for finite-dimensional manifolds of states and their tangent data.

A parametrization maps an m-dimensional chart box into the state space.
Tangent frames are the (possibly finite-difference) chart derivatives,
held at the geometry's working order; projections onto the frame use the
mid inner product, and whatever a frame cannot match, including spectral
mass above the working order, lands in the reported normal residual.

Points may come as a (P, m) batch: charts then return batched states,
frames hold one factorization per path, and the distance solve advances
every path at once with per-path convergence and backtracking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import stack_states, take_rows
from .hermite import SpectralState, derivative, second_derivative, translate

__all__ = [
    "DegenerateChartError",
    "Parametrization",
    "TangentFrame",
    "ProjectionResult",
    "DistanceResult",
    "jacobian",
    "tangent_coordinates",
    "bracket",
    "distance_to_manifold",
    "translation_chart",
    "linear_span_chart",
]

FD_STEP_JACOBIAN = 1e-4
FD_STEP_HESSIAN = 1e-3
JAC_MODES = ("auto", "analytic", "fd")


class DegenerateChartError(RuntimeError):
    """Chart derivative lost full column rank at the probed point.

    For a batch of points, ``rows`` is the (P,) mask of degenerate paths.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


def _points(param, x) -> np.ndarray:
    """One chart point as shape (m,), or a (P, m) batch as given."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x.reshape(param.m)


def _stack_nested(rows: list, depth: int):
    if depth == 0:
        return stack_states(rows)
    return [_stack_nested(list(items), depth - 1) for items in zip(*rows)]


def _rowwise(fn, depth: int):
    """Adapter for a single-point chart callable: a (P, m) batch is evaluated
    row by row and the results (nested ``depth`` lists deep) are stacked."""

    @functools.wraps(fn)
    def call(x):
        x = np.asarray(x, dtype=float)
        if x.ndim < 2:
            return fn(x)
        return _stack_nested([fn(row) for row in x], depth)

    return call


@dataclass
class Parametrization:
    """Smooth map from an m-dimensional box of chart coordinates to states.

    ``eval`` is required; ``jac`` and ``hess`` are optional analytic
    derivatives (list of m column states, and m x m nested list of
    states).  When absent, central finite differences are used.  With
    ``batched`` the callables also map a (P, m) batch of points to
    batched states; otherwise they are wrapped to run row by row.
    """

    m: int
    domain: np.ndarray  # shape (m, 2) rows (lo, hi)
    eval: Callable[[np.ndarray], object]
    jac: Optional[Callable[[np.ndarray], list]] = None
    hess: Optional[Callable[[np.ndarray], list]] = None
    kind_tag: str = "custom"
    name: str = ""
    batched: bool = False

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float).reshape(self.m, 2)
        if np.any(dom[:, 0] >= dom[:, 1]):
            raise ValueError("chart domain rows must satisfy lo < hi")
        self.domain = dom
        if not self.batched:
            self.eval = _rowwise(self.eval, 0)
            if self.jac is not None:
                self.jac = _rowwise(self.jac, 1)
            if self.hess is not None:
                self.hess = _rowwise(self.hess, 2)
            self.batched = True

    def contains(self, x, margin: float = 0.0):
        """Whether x lies in the box shrunk by margin; one flag per path for a batch."""
        x = np.asarray(x, dtype=float)
        inside = np.all(
            (x >= self.domain[:, 0] + margin) & (x <= self.domain[:, 1] - margin), axis=-1
        )
        return bool(inside) if inside.ndim == 0 else inside


@dataclass
class ProjectionResult:
    """Per-path arrays (leading axis P) when the frame or the field is batched."""

    coords: np.ndarray
    residual: float  # mid norm of the component off the frame span
    rel_residual: float  # residual / field norm, with 0/0 -> 0
    field_norm: float
    spill: float  # relative mass of the field above the working order


def _factor(b: np.ndarray):
    """Thin QR of weighted columns (..., n, m); one column is just normalized."""
    if b.shape[-1] == 1:
        r = np.sqrt((b * b).sum(-2, keepdims=True))
        if (r > 0.0).all():
            return b / r, r
    return np.linalg.qr(b)


def _solve_r(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve r c = v for upper-triangular r (..., m, m) and v (..., m)."""
    if r.shape[-1] == 1:
        return v / r[..., 0]
    if v.ndim == 1:
        return np.linalg.solve(r, v)
    return np.linalg.solve(r, v[..., None])[..., 0]


def _vecmat(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row vectors v (..., k) times matrices a (k, j) or (..., k, j)."""
    return v @ a if a.ndim == 2 else (v[..., None, :] @ a)[..., 0, :]


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.sqrt((v * v).sum(-1))


@dataclass
class TangentFrame:
    """Chart derivative columns at one point, ready for mid-norm projections.

    At a (P, m) batch of points the columns are batched states and every
    factor carries a leading path axis.
    """

    x: np.ndarray
    columns: list
    geometry: object
    base_order: object
    singular_values: np.ndarray
    cond: float
    warnings: list = field(default_factory=list)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return len(self.columns)

    @property
    def gram(self) -> np.ndarray:
        """Mid-norm Gram matrix of the columns, (m, m) per path."""
        b = self._factors(self.base_order, qr=False)[1]
        return np.swapaxes(b, -1, -2) @ b

    def _factors(self, order, qr: bool = True):
        """sqrt(w), the weighted columns and (with ``qr``) their thin QR at one order."""
        got = self._cache.get(order)
        if got is None:
            sw = np.sqrt(self.geometry.weight_vector(order))
            got = (sw, _weighted_columns(sw, self.geometry, self.columns, order), None, None)
        if qr and got[2] is None:
            got = got[:2] + _factor(got[1])
        self._cache[order] = got
        return got

    def _solve(self, fw: np.ndarray) -> np.ndarray:
        """Coordinates of a weighted flat field held at the frame's order."""
        _, _, q, r = self._factors(self.base_order)
        return _solve_r(r, _vecmat(fw, q))

    def _weighted_in_band(self, field_state) -> np.ndarray:
        geo = self.geometry
        sw = self._factors(self.base_order, qr=False)[0]
        return sw * geo.flat(geo.truncate_to_work(field_state), self.base_order)

    def coordinates(self, field_state) -> np.ndarray:
        """Mid-norm least-squares coordinates of a field on the frame.

        The columns live at the working order, so mass above it cannot
        move the coordinates: the field is truncated there and solved
        against the one factorization the frame keeps.
        """
        return self._solve(self._weighted_in_band(field_state))

    def project(self, field_state) -> ProjectionResult:
        geo = self.geometry
        order = geo.embed_order([field_state] + self.columns)
        sw, b, _, _ = self._factors(order, qr=False)
        fw = sw * geo.flat(field_state, order)
        coords = self._solve(fw if order == self.base_order else self._weighted_in_band(field_state))
        field_norm = _row_norm(fw)
        spill = geo.spill_ratio(field_state)
        residual = _row_norm(fw - _vecmat(coords, np.swapaxes(b, -1, -2)))
        if residual.ndim == 0:
            residual, field_norm = float(residual), float(field_norm)
            rel = residual / field_norm if field_norm > 0.0 else 0.0
        else:
            # a zero field has a zero residual: 0/0 reads as 0
            rel = residual / np.where(field_norm > 0.0, field_norm, 1.0)
        return ProjectionResult(coords, residual, rel, field_norm, spill)


def _weighted_columns(sw, geometry, columns, order) -> np.ndarray:
    """sqrt(w) times the stacked flat columns, shape (..., n, m)."""
    if len(columns) == 1:
        return (sw * geometry.flat(columns[0], order))[..., None]
    return sw[:, None] * np.stack([geometry.flat(c, order) for c in columns], axis=-1)


def _fd_columns(param: Parametrization, x: np.ndarray, h: float) -> list:
    cols = []
    for k in range(param.m):
        e = np.zeros(param.m)
        e[k] = h
        plus = param.eval(x + e)
        minus = param.eval(x - e)
        cols.append((plus - minus) * (0.5 / h))
    return cols


def jacobian(
    param: Parametrization,
    x,
    geometry,
    *,
    mode: str = "auto",
    h_fd: float = FD_STEP_JACOBIAN,
    rank_floor: float = 1e-10,
    cond_warn: float = 1e12,
) -> TangentFrame:
    """Tangent frame at a chart point, or one frame per row of a (P, m) batch.

    ``mode`` is "auto" (analytic when the chart supplies it), "analytic",
    or "fd".  Columns are truncated to the geometry's working order; the
    frame raises for rank collapse (with the mask of degenerate paths for
    a batch) and attaches a warning when the Gram matrix is badly
    conditioned.
    """
    if mode not in JAC_MODES:
        raise ValueError(f"jacobian mode must be one of {'/'.join(JAC_MODES)}, got {mode!r}")
    x = _points(param, x)
    if mode == "analytic" and param.jac is None:
        raise ValueError("chart has no analytic jacobian")
    use_analytic = param.jac is not None if mode == "auto" else mode == "analytic"
    raw = param.jac(x) if use_analytic else _fd_columns(param, x, h_fd)
    cols = [geometry.truncate_to_work(c) for c in raw]
    order = geometry.embed_order(cols)
    sw = np.sqrt(geometry.weight_vector(order))
    b = _weighted_columns(sw, geometry, cols, order)
    if b.shape[-1] == 1:
        q, r = _factor(b)
        sv = np.abs(r[..., 0])
    else:
        q = r = None  # factored on first use
        sv = np.linalg.svd(b, compute_uv=False)
    lo, hi = sv[..., -1], sv[..., 0]
    bad = lo <= rank_floor * np.maximum(1.0, hi)
    if bad.any():
        bad = np.broadcast_to(bad, x.shape[:-1])
        k = np.flatnonzero(bad)[0] if bad.ndim else ()
        raise DegenerateChartError(
            f"chart derivative is rank deficient at x={x[k].tolist()}: "
            f"singular values {sv[k if sv.ndim > 1 else ()].tolist()}",
            rows=bad if bad.ndim else None,
        )
    cond = (hi / lo) ** 2
    warnings = []
    if cond.max() > cond_warn:
        warnings = [
            f"ill-conditioned tangent Gram matrix at x={x[k].tolist()}: cond={c:.3e}"
            for k, c in np.ndenumerate(np.broadcast_to(cond, x.shape[:-1]))
            if c > cond_warn
        ]
    cache = {order: (sw, b, q, r)}
    cond = float(cond) if cond.ndim == 0 else cond
    return TangentFrame(x, cols, geometry, order, sv, cond, warnings, cache)


def tangent_coordinates(frame: TangentFrame, field_state) -> ProjectionResult:
    """Least-squares coordinates of a field value on the frame, mid norm."""
    return frame.project(field_state)


def _hessian_states(param: Parametrization, x: np.ndarray, h: float) -> list:
    if param.hess is not None:
        return param.hess(x)
    m = param.m
    base = param.eval(x)
    out = [[None] * m for _ in range(m)]
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = h
        out[k][k] = (param.eval(x + ek) + param.eval(x - ek) - 2.0 * base) * (1.0 / h**2)
        for l in range(k + 1, m):
            el = np.zeros(m)
            el[l] = h
            mixed = (
                param.eval(x + ek + el)
                - param.eval(x + ek - el)
                - param.eval(x - ek + el)
                + param.eval(x - ek - el)
            ) * (0.25 / h**2)
            out[k][l] = mixed
            out[l][k] = mixed
    return out


def bracket(
    param: Parametrization,
    x,
    coords_a: np.ndarray,
    coords_b: np.ndarray,
    *,
    h_fd: float = FD_STEP_HESSIAN,
) -> object:
    """Second chart derivative contracted with two tangent coordinate vectors.

    Symmetric and bilinear in the coordinate arguments; uses the analytic
    chart Hessian when available, otherwise central differences.  At a
    (P, m) batch of points the coordinates are (P, m) as well.
    """
    x = _points(param, x)
    ca = _points(param, coords_a)
    cb = _points(param, coords_b)
    hmat = _hessian_states(param, x, h_fd)
    out = None
    for k in range(param.m):
        term = hmat[k][k] * (ca[..., k] * cb[..., k])
        out = term if out is None else out + term
    for k in range(param.m):
        for l in range(k + 1, param.m):
            weight = ca[..., k] * cb[..., l] + ca[..., l] * cb[..., k]
            out = out + hmat[k][l] * weight
    return out


@dataclass
class DistanceResult:
    """Closest chart point and distance; per-path arrays for a batch.

    ``converged`` is true when every path converged and ``iterations``
    is summed over paths; ``path_converged`` holds the per-path flags.
    """

    x: np.ndarray
    distance: float
    converged: bool
    iterations: int
    path_converged: np.ndarray


def distance_to_manifold(
    param: Parametrization,
    y,
    x0,
    geometry,
    *,
    max_iter: int = 50,
    step_tol: float = 1e-10,
    h_fd: float = FD_STEP_JACOBIAN,
) -> DistanceResult:
    """Mid-norm distance from a state to the chart image via Gauss-Newton.

    Deterministic damped iteration: full step, halved until the cost
    decreases, capped backtracking.  Hitting the iteration cap without
    meeting the step tolerance is reported as non-converged.  A batched
    ``y`` (or a (P, m) start) solves every path at once: each path keeps
    its own iterate, step halving and stopping decision, and a path whose
    frame degenerates stops there, not converged.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim < 2 and not y.batch
    paths = y.batch[0] if y.batch else (1 if x0.ndim < 2 else x0.shape[0])
    x = np.array(np.broadcast_to(x0.reshape(-1, param.m), (paths, param.m)))

    def cost_at(xp, target):
        n = geometry.norm_diff(param.eval(xp), target)
        return 0.5 * n * n, n

    cost, dist = cost_at(x, y)
    converged = np.zeros(paths, dtype=bool)
    iterations = np.zeros(paths, dtype=int)
    stall_tol = math.sqrt(np.finfo(float).eps)
    act = np.arange(paths)
    for it in range(max_iter):
        iterations[act] = it + 1
        frame = None
        while act.size and frame is None:
            try:
                frame = jacobian(param, x[act], geometry, h_fd=h_fd)
            except DegenerateChartError as err:
                act = act[~err.rows]
        if frame is None:
            break
        x_act = x[act]
        y_act = y if act.size == paths else take_rows(y, act)
        state_x = param.eval(x_act)
        order = geometry.embed_order(frame.columns + [state_x, y_act])
        sw, b, q, r = frame._factors(order)
        fw = sw * (geometry.flat(state_x, order) - geometry.flat(y_act, order))
        step = -_solve_r(r, _vecmat(fw, q))
        step_norm = _row_norm(step)
        # the full step first; a sub-tolerance step is taken too when it
        # helps, otherwise the reported distance carries an O(step_tol) offset
        small = step_norm <= step_tol * (1.0 + _row_norm(x_act))
        trial = x_act + step
        c_trial, d_trial = cost_at(trial, y_act)
        accepted = c_trial < cost[act]
        won = act[accepted]
        x[won], cost[won], dist[won] = trial[accepted], c_trial[accepted], d_trial[accepted]
        # then halve the step until the cost decreases, 29 more times at most
        pending = ~accepted & ~small
        alpha = 1.0
        for _ in range(29):
            if not pending.any():
                break
            alpha *= 0.5
            rows = np.flatnonzero(pending)
            trial = x_act[rows] + alpha * step[rows]
            c_trial, d_trial = cost_at(trial, take_rows(y_act, rows))
            ok = c_trial < cost[act[rows]]
            won = act[rows[ok]]
            x[won], cost[won], dist[won] = trial[ok], c_trial[ok], d_trial[ok]
            accepted[rows[ok]] = True
            pending[rows[ok]] = False
        # full stall: cost differences are below float resolution, so
        # treat the iterate as converged when the pending step is tiny
        stalled = ~small & ~accepted
        converged[act[small]] = True
        if stalled.any():
            converged[act[stalled]] = step_norm[stalled] <= stall_tol * (
                1.0 + _row_norm(x[act[stalled]])
            )
        act = act[~(small | stalled)]
        if not act.size:
            break
    if single:
        return DistanceResult(x[0], float(dist[0]), bool(converged[0]), int(iterations[0]), converged)
    return DistanceResult(x, dist, bool(converged.all()), int(iterations.sum()), converged)


# -- built-in charts ---------------------------------------------------------


def translation_chart(profile: SpectralState, domain) -> Parametrization:
    """Chart x -> profile shifted by x, with analytic ladder derivatives.

    The tangent columns are minus the partial derivatives of the shifted
    profile, and the chart Hessian is the matrix of second derivatives.
    """
    d = profile.d
    cache: dict = {}

    def _base(x):
        # memoize the shifted profile; eval/jac/hess at one point (or one
        # batch of points) share it
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        got = cache.get(key)
        if got is None:
            if len(cache) >= 256:
                cache.clear()
            got = cache[key] = translate(profile, x)
        return got

    def _eval(x):
        return _base(x)

    def _jac(x):
        base = _base(x)
        return [-derivative(base, axis=k) for k in range(d)]

    def _hess(x):
        base = _base(x)
        out = [[None] * d for _ in range(d)]
        for k in range(d):
            for l in range(k, d):
                s = second_derivative(base, (k, l))
                out[k][l] = s
                out[l][k] = s
        return out

    return Parametrization(
        m=d, domain=domain, eval=_eval, jac=_jac, hess=_hess,
        kind_tag="translation", name="translation", batched=True,
    )


def linear_span_chart(vectors: Sequence, domain) -> Parametrization:
    """Chart x -> sum_k x_k v_k with exact constant derivatives."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("linear span needs at least one vector")
    m = len(vectors)

    def _eval(x):
        x = np.asarray(x, dtype=float)
        out = vectors[0] * x[..., 0]
        for k in range(1, m):
            out = out + vectors[k] * x[..., k]
        return out

    def _jac(x):
        return list(vectors)

    def _hess(x):
        zero = vectors[0] * 0.0
        return [[zero for _ in range(m)] for _ in range(m)]

    return Parametrization(
        m=m, domain=domain, eval=_eval, jac=_jac, hess=_hess,
        kind_tag="linear_span", name="linear_span", batched=True,
    )
