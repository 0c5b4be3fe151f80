"""Charts for finite-dimensional manifolds of states and their tangent data.

A parametrization maps an m-dimensional chart box into the state space.
Tangent frames are the (possibly finite-difference) chart derivatives,
held at the geometry's working order with the one thin QR of their
weighted columns at that order: coordinates, projections (mid inner
product) and the distance step all solve a field's in-band part against
it, and whatever a frame cannot match, including spectral mass above the
working order, lands in the reported normal residual.

Points may come as a (P, m) batch: charts then return batched states,
frames hold one factorization per path, and the distance solve advances
every path at once with per-path convergence and backtracking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .hermite import SpectralState, derivative, second_derivative, translate

__all__ = [
    "DegenerateChartError",
    "Parametrization",
    "TangentFrame",
    "ProjectionResult",
    "DistanceResult",
    "rank_deficient",
    "jacobian",
    "block_frame",
    "bracket",
    "distance_to_manifold",
    "translation_chart",
    "linear_span_chart",
]

FD_STEP_JACOBIAN = 1e-4
FD_STEP_HESSIAN = 1e-3
RANK_FLOOR = 1e-10  # relative singular value at or below which a frame is degenerate
NEWTON_FLOOR = 0.1  # a Newton step needs J'WJ + S above this multiple of J'WJ
JAC_MODES = ("auto", "analytic", "fd")


class DegenerateChartError(RuntimeError):
    """Chart derivative lost full column rank at the probed point.

    For a batch of points, ``rows`` is the (P,) mask of degenerate paths
    and ``messages`` holds the single-point message of each, in row order.
    """

    def __init__(self, message: str, rows=None, messages=None):
        super().__init__(message)
        self.rows = rows
        self.messages = [message] if messages is None else messages


def _points(param, x) -> np.ndarray:
    """One chart point as shape (m,), or a (P, m) batch as given."""
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 2 else x.reshape(param.m)


@dataclass
class Parametrization:
    """Smooth map from an m-dimensional box of chart coordinates to states.

    ``eval`` is required; ``jac`` and ``hess`` are optional analytic
    derivatives (list of m column states, and m x m nested list of
    states).  When absent, central finite differences are used.  Each
    callable takes one point (m,) or a (P, m) batch of points, reading
    coordinate k as ``x[..., k]``, and returns states with the same
    leading path axis, or single states that hold at every point.
    """

    m: int
    domain: np.ndarray  # shape (m, 2) rows (lo, hi)
    eval: Callable[[np.ndarray], object]
    jac: Optional[Callable[[np.ndarray], list]] = None
    hess: Optional[Callable[[np.ndarray], list]] = None

    def __post_init__(self):
        dom = np.asarray(self.domain, dtype=float)
        if dom.shape != (self.m, 2) or not np.isfinite(dom).all() or (dom[:, 0] >= dom[:, 1]).any():
            raise ValueError(f"chart domain must have shape ({self.m}, 2), finite rows and lo < hi")
        self.domain = dom

    def contains(self, x):
        """Whether x lies in the box; one flag per path for a batch."""
        x = np.asarray(x, dtype=float)
        inside = ((x >= self.domain[:, 0]) & (x <= self.domain[:, 1])).all(axis=-1)
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


def _solve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve a c = v for square a (..., m, m) and v (..., m)."""
    if a.shape[-1] == 1:
        return v / a[..., 0]
    return np.linalg.solve(a, v[..., None])[..., 0]


def _vecmat(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row vectors v (..., k) times matrices a (k, j) or (..., k, j)."""
    return v @ a if a.ndim == 2 else (v[..., None, :] @ a)[..., 0, :]


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis."""
    return np.sqrt((v * v).sum(-1))


def rank_deficient(sv: np.ndarray) -> np.ndarray:
    """Whether singular values (..., m), largest first, mark a degenerate frame:
    the smallest is at most ``RANK_FLOOR`` times max(1, the largest)."""
    return sv[..., -1] <= RANK_FLOOR * np.maximum(1.0, sv[..., 0])


@dataclass(frozen=True)
class TangentFrame:
    """Chart derivative columns at one point, held at the geometry's working
    order: ``sqrt_w`` is sqrt of the weight vector there, ``weighted`` the
    columns times it, shape (..., n, m), and ``q``, ``r`` their one thin QR,
    computed once by ``jacobian``.  ``image`` is the chart state phi(x) at
    the frame's point, evaluated once there, untruncated.

    At a (P, m) batch of points the image and the columns are batched states
    and every factor carries a leading path axis.
    """

    x: np.ndarray
    image: object
    columns: list
    geometry: object
    singular_values: np.ndarray
    cond: float
    sqrt_w: np.ndarray
    weighted: np.ndarray
    q: np.ndarray
    r: np.ndarray

    @property
    def m(self) -> int:
        return len(self.columns)

    def coordinates(self, field_state) -> np.ndarray:
        """Mid-norm least-squares coordinates of a field on the frame.

        The columns live at the working order, so mass above it cannot
        move the coordinates: the field is truncated there and solved
        against the one factorization the frame keeps.
        """
        geo = self.geometry
        flat = geo.flat(geo.truncate_to_work(field_state), geo.work_order)
        return _solve(self.r, _vecmat(self.sqrt_w * flat, self.q))

    def project(self, field_state) -> ProjectionResult:
        """``coordinates`` of a field with its normal residual, norm and spill."""
        geo = self.geometry
        order = geo.embed_order([field_state])
        fw = np.sqrt(geo.weight_vector(order)) * geo.flat(field_state, order)
        coords = self.coordinates(field_state)
        # the fit lives at the working order: zero-padded, the field's mass above it stays residual
        fit = _vecmat(coords, np.swapaxes(self.weighted, -1, -2))
        fit = geo.flat(geo.state_from_flat(fit, geo.work_order), order)
        residual = _row_norm(fw - fit)
        field_norm = _row_norm(fw)
        # a zero field has a zero residual: 0/0 reads as 0
        rel = residual / np.where(field_norm > 0.0, field_norm, 1.0)
        return ProjectionResult(coords, residual, rel, field_norm, geo.spill_ratio(field_state))


def _fd_columns(param: Parametrization, x: np.ndarray, h: float) -> list:
    cols = []
    for k in range(param.m):
        e = np.zeros(param.m)
        e[k] = h
        plus = param.eval(x + e)
        minus = param.eval(x - e)
        cols.append((plus - minus) * (0.5 / h))
    return cols


def jacobian(param: Parametrization, x, geometry, *, mode: str = "auto") -> TangentFrame:
    """Tangent frame at a chart point, or one frame per row of a (P, m) batch.

    ``mode`` is "auto" (analytic when the chart supplies it), "analytic",
    or "fd" (central differences at step ``FD_STEP_JACOBIAN``).  Columns
    are truncated to the geometry's working order and factorized once
    there; the frame raises for rank collapse (with the mask of degenerate
    paths for a batch) and reports the Gram condition number per point in
    ``cond``.  Only a frame that passes the rank test evaluates the chart
    image it carries.
    """
    if mode not in JAC_MODES:
        raise ValueError(f"jacobian mode must be one of {'/'.join(JAC_MODES)}, got {mode!r}")
    x = _points(param, x)
    if mode == "analytic" and param.jac is None:
        raise ValueError("chart has no analytic jacobian")
    use_analytic = param.jac is not None if mode == "auto" else mode == "analytic"
    raw = param.jac(x) if use_analytic else _fd_columns(param, x, FD_STEP_JACOBIAN)
    cols = [geometry.truncate_to_work(c) for c in raw]
    order = geometry.work_order
    sw = np.sqrt(geometry.weight_vector(order))
    b = sw[:, None] * np.stack([geometry.flat(c, order) for c in cols], axis=-1)
    # one factorization serves the rank test and every later projection:
    # Q is orthonormal, so the columns share their singular values with R
    q, r = _factor(b)
    sv = np.abs(r[..., 0]) if r.shape[-1] == 1 else np.linalg.svd(r, compute_uv=False)
    bad = rank_deficient(sv)
    if bad.any():
        batch = x.shape[:-1]
        bad = np.broadcast_to(bad, batch)
        sv = np.broadcast_to(sv, batch + sv.shape[-1:])
        messages = [
            f"chart derivative is rank deficient at x={x[k].tolist()}: "
            f"singular values {sv[k].tolist()}"
            for k in np.ndindex(batch)
            if bad[k]
        ]
        raise DegenerateChartError(messages[0], rows=bad if batch else None, messages=messages)
    cond = (sv[..., 0] / sv[..., -1]) ** 2
    cond = float(cond) if cond.ndim == 0 else cond
    return TangentFrame(x, param.eval(x), cols, geometry, sv, cond, sw, b, q, r)


def block_frame(param: Parametrization, x: np.ndarray, geometry, *, mode: str = "auto"):
    """Frame at the non-degenerate rows of a (B, m) batch of points.

    A degenerate row is dropped and the frame retried on the rest, so it
    costs no other row its frame.  Returns the kept row indices, their
    frame (None when every row is degenerate) and the rank message of
    each dropped row, keyed by row.
    """
    kept = np.arange(x.shape[0])
    dropped = {}
    while kept.size:
        try:
            return kept, jacobian(param, x[kept], geometry, mode=mode), dropped
        except DegenerateChartError as err:
            dropped.update(zip(kept[err.rows], err.messages))
            kept = kept[~err.rows]
    return kept, None, dropped


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
) -> object:
    """Second chart derivative contracted with two tangent coordinate vectors.

    Symmetric and bilinear in the coordinate arguments; uses the analytic
    chart Hessian when available, otherwise central differences.  At a
    (P, m) batch of points the coordinates are (P, m) as well.
    """
    x = _points(param, x)
    ca = _points(param, coords_a)
    cb = _points(param, coords_b)
    hmat = _hessian_states(param, x, FD_STEP_HESSIAN)
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
    """Closest chart points ``x`` (P, m) and distances (P,) of a batch of P states.

    ``path_converged`` holds the per-path flags and ``converged`` is true when
    every path converged; ``iterations``, ``newton_steps`` (iterations on the
    Newton step) and ``backtracks`` (step halvings) are summed over paths.
    """

    x: np.ndarray
    distance: np.ndarray
    converged: bool
    iterations: int
    path_converged: np.ndarray
    newton_steps: int
    backtracks: int


def _curvature(hess: list, frame: TangentFrame, resid: np.ndarray) -> np.ndarray:
    """S_kl = <d_kl phi, r>_W per row, from the chart Hessian's states and the weighted
    residual rows at the working order; a Hessian that holds at every point broadcasts."""
    geo, w_resid = frame.geometry, frame.sqrt_w * resid  # W r
    s = [[(geo.flat(geo.truncate_to_work(h), geo.work_order) * w_resid).sum(-1) for h in row]
         for row in hess]
    return np.moveaxis(np.array(s), (0, 1), (-2, -1))


def distance_to_manifold(
    param: Parametrization,
    y,
    x0,
    geometry,
    *,
    max_iter: int = 50,
    step_tol: float = 1e-10,
) -> DistanceResult:
    """Mid-norm distance from each state of a batch ``y`` to the chart image.

    Deterministic damped iteration: full step, halved until the cost
    decreases, capped backtracking.  The step is Newton's, -(J'WJ + S)^-1 J'Wr
    with S_kl = <d_kl phi, r>_W from the chart Hessian, on each row where S is
    nonzero and J'WJ + S exceeds ``NEWTON_FLOOR`` times J'WJ, and Gauss-Newton's
    elsewhere.  Hitting the iteration cap without meeting the step tolerance is
    reported as non-converged.  All paths are solved at once, from (P, m) starts
    or one start for all: each keeps its own iterate, step halving and stopping
    decision, and a path whose frame degenerates stops there, not converged.
    """
    (paths,) = y.batch  # one state alone, with no path axis, raises ValueError here
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (paths, param.m)))
    y_work = geometry.flat(geometry.truncate_to_work(y), geometry.work_order)

    def cost_at(xp, target):
        n = geometry.norm_diff(param.eval(xp), target)
        return 0.5 * n * n, n

    cost, dist = cost_at(x, y)
    converged = np.zeros(paths, dtype=bool)
    iterations = np.zeros(paths, dtype=int)
    newton_steps = backtracks = 0
    stall_tol = math.sqrt(np.finfo(float).eps)
    act = np.arange(paths)
    for it in range(max_iter):
        iterations[act] = it + 1
        kept, frame, _ = block_frame(param, x[act], geometry)
        act = act[kept]
        if not act.size:
            break
        x_act = x[act]
        y_act = y if act.size == paths else y.rows(act)
        fit = geometry.flat(geometry.truncate_to_work(frame.image), geometry.work_order)
        resid = frame.sqrt_w * (fit - y_work[act])
        grad = _vecmat(resid, frame.q)  # R^-T J'Wr
        step = -_solve(frame.r, grad)
        if param.hess is not None:
            curv = _curvature(param.hess(x_act), frame, resid)
            gram = np.swapaxes(frame.r, -1, -2) @ frame.r
            margin = curv + (1.0 - NEWTON_FLOOR) * gram
            lowest = margin[..., 0, 0] if param.m == 1 else np.linalg.eigvalsh(margin)[..., 0]
            newton = curv.any((-2, -1)) & (lowest > 0.0)
            step[newton] = -_solve((gram + curv)[newton], _vecmat(grad, frame.r)[newton])
            newton_steps += int(newton.sum())
        step_norm = _row_norm(step)
        # the full step first, then halved until the cost decreases, 29 more
        # times at most; a sub-tolerance step is taken too when it helps,
        # otherwise the reported distance carries an O(step_tol) offset
        small = step_norm <= step_tol * (1.0 + _row_norm(x_act))
        accepted = np.zeros(act.size, dtype=bool)
        rows, alpha = np.arange(act.size), 1.0
        for _ in range(30):
            backtracks += rows.size if alpha < 1.0 else 0
            trial = x_act[rows] + alpha * step[rows]
            c_trial, d_trial = cost_at(trial, y_act if rows.size == act.size else y_act.rows(rows))
            ok = c_trial < cost[act[rows]]
            won = act[rows[ok]]
            x[won], cost[won], dist[won] = trial[ok], c_trial[ok], d_trial[ok]
            accepted[rows[ok]] = True
            rows = rows[~ok & ~small[rows]]
            if not rows.size:
                break
            alpha *= 0.5
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
    done = bool(converged.all())
    return DistanceResult(x, dist, done, int(iterations.sum()), converged, newton_steps, backtracks)


# -- built-in charts ---------------------------------------------------------


def translation_chart(profile: SpectralState, domain) -> Parametrization:
    """Chart x -> profile shifted by x, with analytic ladder derivatives.

    The tangent columns are minus the partial derivatives of the shifted
    profile, and the chart Hessian is the matrix of second derivatives.
    The chart keeps its last point (or batch of points) and shifted
    profile, so eval/jac/hess at one batch share one ``translate``.
    """
    d = profile.d
    key = state = None

    def shifted(x):
        nonlocal key, state
        x = np.asarray(x, dtype=float)
        seen = (x.shape, x.tobytes())
        if seen != key:
            key, state = seen, translate(profile, x)
        return state

    def _jac(x):
        base = shifted(x)
        return [-derivative(base, axis=k) for k in range(d)]

    def _hess(x):
        base = shifted(x)
        out = [[None] * d for _ in range(d)]
        for k in range(d):
            for l in range(k, d):
                s = second_derivative(base, (k, l))
                out[k][l] = s
                out[l][k] = s
        return out

    return Parametrization(m=d, domain=domain, eval=shifted, jac=_jac, hess=_hess)


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

    return Parametrization(m=m, domain=domain, eval=_eval, jac=_jac, hess=_hess)
