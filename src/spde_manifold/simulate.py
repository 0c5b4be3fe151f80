"""Milstein simulation, full-space and chart-reduced, plus coupling.

Both integrators take the same scheme: the commutative-form Milstein step
(Kloeden & Platen, 1992, section 10.3), or Euler-Maruyama for a custom
model that has neither ``step_sum`` nor ``diffusion_derivative``; the
scheme is of strong order 1 where the noise commutes, and of order 1/2
otherwise (no Levy areas are drawn).  Both consume the same counter-based
noise table (Philox, one stream per seed, path and component), so a
full-space path and its reduced counterpart can be driven by identical
increments.  Given a sequence of path indices, each integrator steps that
whole ensemble at once: the live paths form one batch, so every drift,
diffusion, frame and distance evaluation covers all of them.  A full step
is one call of the model's array kernel, which writes the step's sum into
one buffer; the spill it cuts off is taken from sums recorded per step
once the run ends.  The reduced run tabulates its step's outputs, which
depend on the chart coordinate alone, once per run on the chart box, and
certifies there when it can that no frame degenerates, so that a
certified step is one contraction of the Chebyshev basis against the
step's increment monomials; exits are settled from the recorded steps every
``SETTLE_STEPS`` steps.  The coupled comparison advances both, measures the
distance from the full state to the chart at every recorded step with one
damped Newton solve per row, started from the reduced coordinate or from
the nearest of a fixed set of chart images, and summarizes the ensemble.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import spill_ratios
from .hermite import weighted_sum
from .manifold import (
    RANK_FLOOR,
    Parametrization,
    block_frame,
    distance_to_manifold,
    rank_deficient,
)
from .tangency import (
    SamplingSpec,
    int_words,
    reduced_coefficients,
    repr_words,
    row_blocks,
    sample_points,
)

__all__ = [
    "SimConfig",
    "wiener_increments",
    "FullPath",
    "simulate_full",
    "ReducedTableError",
    "reduced_table",
    "ReducedPath",
    "simulate_reduced",
    "TrajectoryRecord",
    "coupled_compare",
]


@dataclass(frozen=True)
class SimConfig:
    horizon: float = 0.5
    dt: float = 1e-3
    paths: int = 1
    seed: int = 0
    record_distance: bool = True
    explosion_ceiling: float = 1e6

    def __post_init__(self):
        # each message starts with the field it rejects
        for name in ("horizon", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(f"horizon {self.horizon!r} over dt {self.dt!r} overflows the step count")
        if self.n_steps < 1:
            raise ValueError(f"horizon shorter than one step: {self.horizon!r} < dt {self.dt!r}")
        if abs(self.horizon / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ValueError(f"horizon {self.horizon!r} is not a whole number of steps of dt {self.dt!r}")
        if not self.explosion_ceiling > 0:
            raise ValueError(f"explosion_ceiling must be positive, got {self.explosion_ceiling!r}")
        # a bool is an Integral, and a float seed would key the stream of its integer part
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")
        if isinstance(self.paths, bool) or not (
            isinstance(self.paths, numbers.Integral) and self.paths >= 1
        ):
            raise ValueError(f"paths must be an integer of at least 1, got {self.paths!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _path_indices(paths) -> np.ndarray:
    """``paths`` as an array: each keys a Philox counter, so [1.5] or [True] would alias [1]."""
    arr = np.asarray(paths)
    bools = arr.ndim == 1 and any(isinstance(p, (bool, np.bool_)) for p in paths)  # [0, True] is int
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or (arr < 0).any() or bools:
        raise ValueError(f"paths must be a 1-D sequence of non-negative integers, got {paths!r}")
    return arr


def wiener_increments(seed: int, paths, n_steps: int, n_noise: int, dt: float) -> np.ndarray:
    """Deterministic increment table (P, n_steps, n_noise) of the path indices ``paths``.

    Entry (p, step, j) is normal draw ``step`` of the Philox stream keyed by
    ``seed`` from counter [0, paths[p], j, 0] (Salmon et al., SC'11): one
    stream per path and component, drawn in one call, so extending the run in
    steps, components or paths never perturbs values drawn before."""
    paths = _path_indices(paths)
    out = np.empty((paths.size, n_steps, n_noise))
    for p, path in enumerate(paths):
        for j in range(n_noise):
            bits = np.random.Philox(key=seed, counter=[0, path, j, 0])
            out[p, :, j] = np.random.Generator(bits).standard_normal(n_steps)
    out *= np.sqrt(dt)
    return out


def _scheme(model) -> str:
    """The scheme both runs of ``model`` take: "milstein" where the model has a
    ``step_sum`` (the Milstein step of its own family) or the derivative of its
    noise fields, ``diffusion_derivative``; "euler" otherwise."""
    milstein = hasattr(model, "step_sum") or hasattr(model, "diffusion_derivative")
    return "milstein" if milstein else "euler"


def _ensemble(paths, cfg: SimConfig, n_noise: int, increments):
    """Checked path indices, and the increments, drawn or checked, step-major: (n_steps, P, n_noise)."""
    paths = _path_indices(paths)
    shape = (paths.size, cfg.n_steps, n_noise)
    if increments is None:
        increments = wiener_increments(cfg.seed, paths, cfg.n_steps, n_noise, cfg.dt)
    elif np.shape(increments) != shape:
        raise ValueError(f"increments must have shape {shape}, got {np.shape(increments)}")
    return paths, np.ascontiguousarray(np.swapaxes(increments, 0, 1))


class _RecordedStates(Sequence):
    """A full run's state at each recorded step, read from its trajectory on access."""

    def __init__(self, path: "FullPath"):
        self._path = path

    def __len__(self) -> int:
        return len(self._path.ys)

    def __getitem__(self, step):
        path = self._path
        return path.geometry.state_from_flat(path.ys[operator.index(step)], path.order)


@dataclass
class FullPath:
    """P full paths: the trajectory ``ys`` (steps + 1, P, n), flat at the working order
    ``order``, and per path the flags, the step each stopped at (the run's step
    count where it ran to the end) and spills; ``states`` reads one batch state
    per recorded step from ``ys``."""

    times: np.ndarray
    ys: np.ndarray
    exploded: np.ndarray
    exit_step: np.ndarray
    max_spill: np.ndarray
    geometry: object
    order: Optional[int]

    @property
    def states(self) -> Sequence:
        return _RecordedStates(self)


def simulate_full(model, y0, cfg: SimConfig, paths, increments=None) -> FullPath:
    """Milstein paths of dY = L(Y) dt + sum_j A^j(Y) dW^j in the ambient space.

    The 1-D path indices ``paths`` are stepped at once from y0 (one state for
    every path, or a batch), on the given (P, n_steps, n_noise) increments or
    on ``wiener_increments``.  The trajectory is one array, flat at the working
    order.  Each step is one call of ``model.step_sum`` (or, for a model
    without it, of the state methods on one batch state, ``_state_sum``),
    which writes the live paths' step into one buffer, then the truncation
    back to the working order and the explosion test on that buffer.  The
    weighted-square sums that give the discarded relative mass are recorded
    per step; ``max_spill`` is taken from them once the loop ends.  A state
    whose norm passes the ceiling marks its path exploded and freezes it there.
    """
    geo = model.geometry
    n_steps = cfg.n_steps
    paths, noise = _ensemble(paths, cfg, model.n_noise, increments)
    y = geo.truncate_to_work(y0)
    order = geo.embed_order([y])
    step_sum = getattr(model, "step_sum", None) or functools.partial(
        _state_sum, model, order, _scheme(model) == "milstein"
    )
    flat = geo.flat(y, order)
    ys = np.empty((n_steps + 1, paths.size) + flat.shape[-1:])
    ys[0] = flat
    tensors = geo.tensor(ys, order)  # the same memory, as the kernels' arrays
    # per step and path, the weighted squares kept at the working order and beyond it,
    # from the first step that cuts any; zero where nothing was recorded: no spill
    masses = None
    exploded = np.zeros(paths.size, dtype=bool)
    exit_step = np.full(paths.size, n_steps)
    live = np.arange(paths.size)
    done, dt, ceiling = 0, cfg.dt, cfg.explosion_ceiling
    for step in range(n_steps):
        if not live.size:
            break
        rows = slice(None) if live.size == paths.size else live  # no gather while all live
        y_next, size, cut = geo.truncate_rows(step_sum(tensors[step, rows], dt, noise[step, rows]))
        if cut is not None:
            if masses is None:
                masses = np.zeros((n_steps, paths.size, 2))
            masses[step, rows] = cut
        if live.size < paths.size:
            ys[step + 1] = ys[step]  # exploded paths stay frozen
        ys[step + 1, rows] = y_next
        done = step + 1
        kept = size <= ceiling  # not NaN sizes either
        if np.count_nonzero(kept) < live.size:
            gone = live[~kept]
            exploded[gone], exit_step[gone] = True, step + 1
            live = live[kept]
    max_spill = np.zeros(paths.size)
    if masses is not None:
        kept, beyond = np.moveaxis(masses[:done], -1, 0)
        max_spill = np.maximum(max_spill, spill_ratios(beyond, kept + beyond).max(axis=0))
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: done + 1]
    return FullPath(times, ys[: done + 1], exploded, exit_step, max_spill, geo, order)


def _state_sum(model, order, milstein: bool, c: np.ndarray, dt: float, dw: np.ndarray) -> np.ndarray:
    """``step_sum`` for a model without it: ``drift`` and ``diffusion`` called on
    one batch state of the rows c, and with ``milstein`` the term
    1/2 sum_jk DA^k(y)[A^j(y)] (dW_j dW_k - delta_jk dt) from
    ``diffusion_derivative``; a term that vanishes on every path is skipped."""
    y = model.geometry.state_from_flat(c.reshape(c.shape[:1] + (-1,)), order)
    fields = model.diffusion(y)
    terms = [(model.drift(y).array, dt), (c, 1.0)]
    for j, a_field in enumerate(fields):
        if np.count_nonzero(dw[:, j]) and np.count_nonzero(a_field.array):
            terms.append((a_field.array, dw[:, j]))
    for j, a_field in enumerate(fields if milstein else ()):
        for k in range(len(fields)):
            term = model.diffusion_derivative(y, a_field, k).array
            if np.count_nonzero(term):
                terms.append((term, 0.5 * (dw[:, j] * dw[:, k] - (dt if j == k else 0.0))))
    return weighted_sum(terms, c.ndim - 1)


# The reduced run reads (a, beta) and the frame columns from a Chebyshev tensor interpolant on
# the chart box: K first-kind nodes per axis, doubled until each group's last two coefficient
# layers fall to TABLE_TAIL_TOL of its largest value (Trefethen, ATAP, 2013, ch. 8)
TABLE_FIRST_NODES = 8
TABLE_TAIL_TOL = 1e-13
# tensor nodes of the largest table tried, and points of the largest lattice certifying one
TABLE_NODE_BUDGET = 4096
# steps between the reduced run's settlements of exits: against a box test at every step,
# 16 to 128 save alike, a fifth of a reduced step at 4 paths and less at more (BENCH_25.json)
SETTLE_STEPS = 32


class ReducedTableError(RuntimeError):
    """The chart's reduced coefficients admit no Chebyshev table on its box."""


@dataclass
class ReducedTable:
    """Chebyshev coefficients (K,) * m + (F,) of a, beta and the weighted frame
    columns, and ``step``, (K,) * m + (S m,), of the reduced step's outputs
    against its S increment monomials (``_step_coeffs``); ``certified`` when no
    point of the box can fail ``rank_deficient`` on the interpolated columns
    (``_certified``)."""

    domain: np.ndarray
    coeffs: np.ndarray
    n_noise: int
    nodes: int
    step: np.ndarray
    certified: bool = False

    def __post_init__(self):
        m = self.domain.shape[0]
        # the columns and the step's outputs, contiguous, for ``columns`` and ``increment``;
        # the step's padded to two outputs at least, since einsum sums a lone output's
        # products in another order than those of several
        self._cols = np.ascontiguousarray(self.coeffs[..., (self.n_noise + 1) * m :])
        pad = np.zeros(self.step.shape[:-1] + (max(0, 2 - self.step.shape[-1]),))
        self._step = np.ascontiguousarray(np.concatenate([self.step, pad], axis=-1))
        self._orders = np.arange(self.coeffs.shape[0])
        lo, hi = self.domain.T
        if m == 1:  # numpy scalars broadcast as one-entry arrays do, at less cost per step
            lo, hi = lo[0], hi[0]
        self._lo, self._hi, self._width = lo, hi, hi - lo
        axes = "ABCDEFGHIJKL"[:m]
        bases = ",".join("p" + c for c in axes)
        self._spec = f"{bases},{axes}f->pf"

    def basis(self, x) -> np.ndarray:
        """The Chebyshev basis T_k at a (P, m) batch of points: (m, P, K), one (P, K)
        array per axis."""
        # the clip absorbs rounding at the box edge, and holds a path that has left the
        # box, stepped on until its exit is settled, at the edge
        u = np.minimum(np.maximum((2.0 * x - self._lo - self._hi) / self._width, -1.0), 1.0)
        return np.cos(np.arccos(u).T[..., None] * self._orders)

    def _values(self, t, coeffs):
        """The outputs of ``coeffs`` on the basis t."""
        # einsum without optimize: a row's rounding does not depend on the row count,
        # nor, among two outputs or more, on the others
        return np.einsum(self._spec, *t, coeffs)

    def __call__(self, x):
        """(a, beta, columns) at a (P, m) batch of points in the box."""
        (p, m), i = x.shape, self.n_noise * x.shape[1]
        v = self._values(self.basis(x), self.coeffs)
        a, beta, cols = v[:, :i], v[:, i : i + m], v[:, i + m :]
        return a.reshape(p, self.n_noise, m), beta, cols.reshape(p, cols.shape[1] // m, m)

    def columns(self, t):
        """The columns ``__call__`` gives, (P, n, m), on the basis t of ``basis``."""
        cols = self._values(t, self._cols)
        return cols.reshape(cols.shape[0], -1, self.domain.shape[0])

    def increment(self, t, monomials):
        """One reduced step's increment (P, m) on the basis t of ``basis``: the step's
        outputs there contracted with its (P, S) increment monomials (``_monomials``)."""
        outputs = self._values(t, self._step)
        if outputs.shape[1] > self.step.shape[-1]:  # the padding
            outputs = outputs[:, : self.step.shape[-1]]
        return (monomials[:, None, :] @ outputs.reshape(monomials.shape + (-1,)))[:, 0]


def _chebyshev_coeffs(values: np.ndarray, k: int, m: int) -> np.ndarray:
    """Chebyshev coefficients (k,) * m + (F,) of values (k^m, F) at the first-kind
    tensor nodes: c_k = (2/K) sum_j f_j T_k(u_j), c_0 halved, axis by axis, a DCT-II
    from the FFT of the values and their mirror image."""
    phase = np.exp(-0.5j * np.pi * np.arange(k) / k) / k
    phase[0] *= 0.5
    coeffs = values.reshape((k,) * m + (-1,))
    for axis in range(m):
        spectrum = np.fft.fft(np.concatenate([coeffs, np.flip(coeffs, axis)], axis), axis=axis)
        coeffs = (spectrum.take(range(k), axis) * phase.reshape((k,) + (1,) * (m - axis))).real
    return coeffs


def _monomials(noise: np.ndarray, dt: float, milstein: bool) -> np.ndarray:
    """The reduced step's increment monomials for increments (..., n): dt, each dW_j,
    and with ``milstein`` each dW_j dW_k (j-major), on a last axis."""
    parts = [np.full(noise.shape[:-1] + (1,), dt), noise]
    if milstein:
        parts.append((noise[..., :, None] * noise[..., None, :]).reshape(noise.shape[:-1] + (-1,)))
    return np.concatenate(parts, axis=-1)


def _step_coeffs(values, coeffs, domain, n_noise: int, milstein: bool) -> np.ndarray:
    """Chebyshev coefficients (k,) * m + (S m,) of what the reduced step contracts
    with ``_monomials``: beta - 1/2 sum_j (Da_j) a_j, each a_j and each 1/2 (Da_k) a_j,
    so that x + dt beta + sum_j a_j dW_j + 1/2 sum_jk (Da_k) a_j (dW_j dW_k - delta_jk dt)
    is one contraction; without ``milstein`` beta and each a_j.  Those of beta and a
    are the table's own, ``coeffs``; Da is their series differentiated term by term,
    read at the table nodes, where its products with a's ``values`` are fitted."""
    m, k = domain.shape[0], coeffs.shape[0]
    n_a = n_noise * m
    beta, a = coeffs[..., n_a : n_a + m], coeffs[..., :n_a]
    if not (milstein and n_noise):
        return np.concatenate([beta, a], axis=-1)
    # T_k and T_k' = k sin(k theta) / sin(theta) at the first-kind nodes cos(theta)
    theta = (2 * np.arange(k) + 1) * np.pi / (2 * k)
    at_nodes = np.cos(theta[:, None] * np.arange(k))
    slope_at_nodes = np.arange(k) * np.sin(theta[:, None] * np.arange(k)) / np.sin(theta)[:, None]
    slopes = []
    for axis in range(m):  # d a / d x_axis at the nodes
        v = a * (2.0 / (domain[axis, 1] - domain[axis, 0]))
        for ax in range(m):
            basis = slope_at_nodes if ax == axis else at_nodes
            v = np.moveaxis(np.tensordot(basis, v, axes=([1], [ax])), 0, ax)
        slopes.append(v.reshape(-1, n_noise, m))
    slopes = np.stack(slopes, axis=1)  # (nodes, axis l, j, i): d a_ji / d x_l
    half = 0.5 * np.einsum("nlki,njl->njki", slopes, values[:, :n_a].reshape(-1, n_noise, m))
    half = _chebyshev_coeffs(half.reshape(half.shape[0], -1), k, m)  # 1/2 (Da_k) a_j, (j, k, i)
    diagonal = half.reshape(half.shape[:-1] + (n_noise, n_noise, m)).diagonal(0, -3, -2).sum(-1)
    return np.concatenate([beta - diagonal, a, half], axis=-1)


def _singular_values(cols: np.ndarray) -> np.ndarray:
    """Singular values of (..., n, m) columns, largest first; one column's is its norm."""
    if cols.shape[-1] == 1:
        return np.sqrt((cols * cols).sum(-2))
    return np.linalg.svd(cols, compute_uv=False)


def _certified(cols: np.ndarray) -> bool:
    """Whether no point of the box can fail ``rank_deficient`` on the columns
    interpolated from their Chebyshev coefficients ``cols``, (K,) * m + (n, m).

    With C_k the coefficient matrix of multi-index k, sum_k |C_k|_F bounds every
    column matrix's largest singular value (|T_k| <= 1), and Markov's inequality
    |T_k'| <= k^2 (Trefethen, ATAP, 2013) bounds its change along axis a
    by L_a = sum_k k_a^2 |C_k|_F per unit of u_a.  By Weyl's inequality the
    smallest singular value then moves by at most sum_a L_a / (q - 1) from the
    nearest point of a lattice of q points per axis on [-1, 1]^m.  The lattice
    starts at K per axis and doubles within ``TABLE_NODE_BUDGET`` points while
    that slack alone keeps it from certifying.  The bound must clear twice the
    rank floor, which covers the rounding of evaluating the table."""
    m, k = cols.ndim - 2, cols.shape[0]
    size = np.sqrt((cols * cols).sum(axis=(-2, -1)))
    lip = sum((np.indices(size.shape)[a] ** 2 * size).sum() for a in range(m))
    floor = 2.0 * RANK_FLOOR * max(1.0, size.sum())
    q = k
    while q**m <= TABLE_NODE_BUDGET:
        t = np.cos(np.arccos(np.linspace(-1.0, 1.0, q))[:, None] * np.arange(k))
        v = cols
        for _ in range(m):  # contract the leading coefficient axis; its lattice axis goes last
            v = np.tensordot(v, t, axes=([0], [1]))
        v = np.moveaxis(v, (0, 1), (-2, -1)).reshape((-1,) + cols.shape[-2:])
        smallest = _singular_values(v)[:, -1].min()
        if smallest - lip / (q - 1) > floor:
            return True
        if smallest <= floor:
            return False
        q *= 2
    return False


def reduced_table(model, param: Parametrization) -> ReducedTable:
    """Tabulate (a, beta) and the frame columns over the chart box, from one
    ``reduced_coefficients`` call per row block of nodes, certify the columns'
    rank over the box, and tabulate the outputs of the model's scheme's step
    (``_step_coeffs``) from the same nodes.  A node whose frame degenerates, or a
    tail that does not decay within the node budget, raises ReducedTableError."""
    geo, m, (lo, hi) = model.geometry, param.m, param.domain.T
    n_a, k = model.n_noise * m, TABLE_FIRST_NODES
    while k > 4 and k**m > TABLE_NODE_BUDGET:  # 4 per axis still resolve a linear field
        k //= 2
    if k**m > TABLE_NODE_BUDGET:
        raise ReducedTableError(f"{m} coordinates need {k**m} table nodes, over {TABLE_NODE_BUDGET}")
    while k**m <= TABLE_NODE_BUDGET:
        theta = (2 * np.arange(k) + 1) * np.pi / (2 * k)
        grid = np.stack(np.meshgrid(*[np.cos(theta)] * m, indexing="ij"), axis=-1)
        x, values = lo + 0.5 * (hi - lo) * (grid.reshape(-1, m) + 1.0), []
        for idx in row_blocks(np.arange(x.shape[0]), geo):
            _, frame, dropped = block_frame(param, x[idx], geo)
            if dropped:
                note = next(iter(dropped.values()))
                raise ReducedTableError(f"frame degenerates at a table node: {note}")
            a, beta = reduced_coefficients(model, param, frame)
            cols = frame.weighted  # one (n, m) frame on a constant chart
            beta = np.broadcast_to(beta, (idx.size, m))
            cols = np.broadcast_to(cols, (idx.size,) + cols.shape[-2:])
            values.append(np.hstack([v.reshape(idx.size, -1) for v in (a, beta, cols)]))
        values = np.concatenate(values)
        coeffs = _chebyshev_coeffs(values, k, m)
        tail = np.abs(coeffs[np.indices((k,) * m).max(axis=0) >= k - 2]).max(axis=0)
        scale = np.abs(values).max(axis=0)
        groups = (slice(0, n_a), slice(n_a, n_a + m), slice(n_a + m, None))
        tails = [(tail[g].max(initial=0.0), scale[g].max(initial=0.0)) for g in groups]
        if all(t <= TABLE_TAIL_TOL * s for t, s in tails):
            certified = _certified(coeffs[..., n_a + m :].reshape(coeffs.shape[:-1] + (-1, m)))
            step = _step_coeffs(values, coeffs, param.domain, model.n_noise, _scheme(model) == "milstein")
            # .real is a strided view; every reduced step's einsum reads a contiguous copy faster
            return ReducedTable(param.domain, np.ascontiguousarray(coeffs), model.n_noise, k**m, step, certified)
        k *= 2
    raise ReducedTableError(
        f"no Chebyshev table of at most {TABLE_NODE_BUDGET} nodes ({k // 2} per axis) resolves the "
        f"reduced coefficients on the chart box {param.domain.tolist()}: they are not smooth enough"
    )


@dataclass
class ReducedPath:
    """P reduced paths: ``xs`` (steps + 1, P, m), and per path the flags (``degenerate``:
    stopped at a degenerate frame) and the step each stopped at (the run's step
    count where it ran to the end)."""

    times: np.ndarray
    xs: np.ndarray
    exited: np.ndarray
    exit_step: np.ndarray
    degenerate: np.ndarray
    table: ReducedTable


def simulate_reduced(
    model, param: Parametrization, x0, cfg: SimConfig, paths, increments=None
) -> ReducedPath:
    """Paths of the chart-coordinate equation dX = beta dt + a dW, in the scheme
    of the full run: the Milstein step x + beta dt + a dW
    + 1/2 sum_jk (Da_k) a_j (dW_j dW_k - delta_jk dt), or Euler's.

    The paths are stepped at once from x0 (one start for every path, or (P, m)
    starts), on increments as in ``simulate_full``.  Every live path reads its
    step from the table ``reduced_table`` builds once for the run, as one
    contraction of the Chebyshev basis at its point against the step's
    increment monomials, formed for the whole run before the loop.  A path
    stops, flagged as exited, where it leaves the chart domain or where
    the relative smallest singular value of its columns is at most
    ``RANK_FLOOR``, as in ``jacobian``; on a certified table no point can do
    the latter, so the run reads no columns.  The live
    paths take ``SETTLE_STEPS`` steps at a time, with the rank flags recorded
    per step where the table is not certified; then each path's first event
    in those steps, a degenerate frame before a step or a position outside
    the box after it, is settled, and the path is frozen there as if it had
    stopped at once.  The run ends when no path is left.  A start ``x0``
    outside the chart box raises ValueError.
    """
    n_steps, m = cfg.n_steps, param.m
    paths, noise = _ensemble(paths, cfg, model.n_noise, increments)
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (paths.size, m)))
    if not param.contains(x).all():
        raise ValueError(f"x0 must lie in the chart box {param.domain.tolist()}, got {x0!r}")
    table = reduced_table(model, param)
    monomials = _monomials(noise, cfg.dt, _scheme(model) == "milstein")
    traj = np.empty((n_steps + 1,) + x.shape)
    traj[0] = x
    exited = np.zeros(paths.size, dtype=bool)
    degenerate = np.zeros(paths.size, dtype=bool)
    exit_step = np.full(paths.size, n_steps)
    live = np.arange(paths.size)
    for start in range(0, n_steps, SETTLE_STEPS):
        stop = min(start + SETTLE_STEPS, n_steps)
        rows = slice(None) if live.size == paths.size else live  # no gather while all live
        bad = None if table.certified else np.zeros((stop - start, live.size), dtype=bool)
        for step in range(start, stop):
            t = table.basis(x)
            if bad is not None:
                bad[step - start] = rank_deficient(_singular_values(table.columns(t)))
            x = x + table.increment(t, monomials[step, rows])
            traj[step + 1, rows] = x
        # the first event of each path in these steps: a degenerate frame at a step
        # comes before that step's exit
        out = ~param.contains(traj[start + 1 : stop + 1, rows])
        hit = out.any(0) if bad is None else out.any(0) | bad.any(0)
        if not np.count_nonzero(hit):
            continue
        n = stop - start
        first_out = np.where(out.any(0), out.argmax(0), n)[hit]
        first_bad = n if bad is None else np.where(bad.any(0), bad.argmax(0), n)[hit]
        k = live[hit]
        exited[k] = True
        degenerate[k] = first_bad <= first_out
        exit_step[k] = start + np.where(degenerate[k], first_bad, first_out + 1)
        x, live = x[~hit], live[~hit]
        if not live.size:
            break
    done = exit_step.max()
    # a path stays where it stopped
    traj = traj[np.minimum(np.arange(done + 1)[:, None], exit_step), np.arange(paths.size)]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: done + 1]
    return ReducedPath(times, traj, exited, exit_step, degenerate, table)


# step tolerance of the recorded distances' solve: the distance error
# is quadratic in it, so 1e-5 keeps the recorded value good to ~1e-10
DIST_STEP_TOL = 1e-5
# chart points whose images can start a distance solve: a lattice of this
# many points on a 1-coordinate box, about as many on larger ones
DIST_SEED_POINTS = 161


@dataclass
class TrajectoryRecord:
    """The coupled ensemble of P paths over R recorded instants: ``times`` (R,), the
    reduced coordinates ``xs`` (R, P, m), and per row ``dist``, ``coupled_err`` and
    ``unconverged`` (R, P), each path's first ``recorded`` rows its own (later
    ones hold a NaN distance, a zero gap and no flag); per path the flags and the
    step it stopped at, as in ``ReducedPath`` where it exited and ``FullPath``
    otherwise."""

    times: np.ndarray
    xs: np.ndarray
    dist: np.ndarray
    coupled_err: np.ndarray
    unconverged: np.ndarray  # the row's distance solve did not converge
    recorded: np.ndarray
    exited: np.ndarray
    exploded: np.ndarray
    exit_step: np.ndarray
    summary: dict = field(default_factory=dict)
    table: Optional[ReducedTable] = None  # the reduced run's coefficient table

    def to_csv_rows(self):
        """Header and one row per path and recorded step, path by path; floats as
        ``repr_words`` text."""
        rows, n_paths, m = self.xs.shape
        header = ["path", "step", "time", *(f"x_{k}" for k in range(m)), "dist", "coupled_err"]
        times = np.broadcast_to(self.times[:, None, None], (rows, n_paths, 1))
        table = np.concatenate([times, self.xs, self.dist[..., None], self.coupled_err[..., None]], -1)
        own = np.arange(rows) < self.recorded[:, None]  # (P, R): path-major
        (cells,) = repr_words(table.swapaxes(0, 1)[own])
        paths = np.repeat(int_words(n_paths), self.recorded)
        steps = np.concatenate([int_words(n) for n in self.recorded])
        return header, np.column_stack([paths, steps, cells]).tolist()


def coupled_compare(
    model,
    param: Parametrization,
    x0,
    cfg: SimConfig,
) -> TrajectoryRecord:
    """Drive full and reduced dynamics with shared noise and compare.

    All ``cfg.paths`` paths are stepped together.  Then every recorded
    (step, path) row is known, and both measures are taken in row blocks:
    ``coupled_err`` is the mid-norm gap between the full state and the
    chart image of the reduced coordinates; ``dist`` is the distance from
    the full state to the chart itself, from one damped Newton solve per
    row.  The solve starts at the row's reduced coordinate, or at the
    nearest of ``DIST_SEED_POINTS`` chart points spread over the box
    (``tangency.sample_points``, images evaluated once per run) where that
    point's image is strictly closer to the full state; such rows are
    counted.  Rows whose solve did not converge are flagged and counted,
    and kept out of the maximum distance.  The ensemble summary keeps the
    maxima, the mean and standard error over paths of each path's largest
    gap, the path-iterations, Newton steps and step halvings of every block
    solve, the termination flags and the table's size.
    """
    geo = model.geometry
    n_steps = cfg.n_steps
    paths = np.arange(cfg.paths)
    x0 = np.asarray(x0, dtype=float)
    incr = wiener_increments(cfg.seed, paths, n_steps, model.n_noise, cfg.dt)
    reduced = simulate_reduced(model, param, x0, cfg, paths, incr)
    full = simulate_full(model, param.eval(x0), cfg, paths, incr)
    n_rec = np.minimum(reduced.exit_step, full.exit_step) + 1
    # every recorded (step, path) row is known now: work on them in blocks
    live = np.arange(n_rec.max())[:, None] < n_rec
    xs = reduced.xs[: live.shape[0]].reshape(live.size, -1)
    err = np.zeros(live.size)
    dist = np.full(live.size, np.nan)
    unconverged = np.zeros(live.size, dtype=bool)
    iterations = newton_steps = backtracks = seeded_starts = 0
    if cfg.record_distance:  # the seed images, flat at one order, and their weighted copies
        per_axis = round(DIST_SEED_POINTS ** (1.0 / min(param.m, 2)))  # Halton draws per_axis**2
        seeds = sample_points(SamplingSpec(per_axis, margin_frac=0.0), param.domain)
        images = param.eval(seeds)
        top = geo.embed_order([images])
        w_images = geo.weight_vector(top) * geo.flat(images, top)
        image_mass = geo.norm_mid(images) ** 2
    for idx in row_blocks(np.flatnonzero(live), geo):
        step, path = np.divmod(idx, paths.size)
        y = geo.state_from_flat(full.ys[step, path], full.order)
        err[idx] = geo.norm_diff(y, param.eval(xs[idx]))
        if not cfg.record_distance:
            continue
        # start from the nearest seed image where it is closer than the reduced coordinate's
        near = np.argmin(image_mass - 2.0 * geo.flat(y, top) @ w_images.T, axis=1)
        seeded = geo.norm_diff(y, images.rows(near)) < err[idx]
        start = np.where(seeded[:, None], seeds[near], xs[idx])
        res = distance_to_manifold(param, y, start, geo, step_tol=DIST_STEP_TOL)
        dist[idx], unconverged[idx] = res.distance, ~res.path_converged
        iterations += res.iterations
        newton_steps += res.newton_steps
        backtracks += res.backtracks
        seeded_starts += int(seeded.sum())
    err, dist, unconverged = (v.reshape(live.shape) for v in (err, dist, unconverged))
    # rows past a path's end hold a zero gap and a NaN distance
    path_err = err.max(axis=0)
    solved = live & ~unconverged
    summary = {
        "paths": cfg.paths,
        "steps": n_steps,
        "dt": cfg.dt,
        "max_distance": (
            float(dist[solved].max()) if cfg.record_distance and solved.any() else None
        ),
        "max_coupled_err": float(path_err.max()),
        "coupled_err_mean": float(path_err.mean()),
        "coupled_err_sem": (
            float(path_err.std(ddof=1) / np.sqrt(path_err.size)) if path_err.size > 1 else None
        ),
        "max_spill": float(full.max_spill.max()),
        "scheme": _scheme(model),
        "n_unconverged_distance": int(unconverged.sum()),
        "distance_iterations": iterations,
        "distance_newton_steps": newton_steps,
        "distance_backtracks": backtracks,
        "distance_seeded_starts": seeded_starts,
        "n_exited": int(reduced.exited.sum()),
        "n_degenerate_frame": int(np.sum(reduced.degenerate)),
        "n_exploded": int(full.exploded.sum()),
        "reduced_table_nodes": reduced.table.nodes,
        "reduced_table_certified": reduced.table.certified,
    }
    exit_step = np.where(reduced.exited, reduced.exit_step, full.exit_step)
    return TrajectoryRecord(
        reduced.times[: live.shape[0]], reduced.xs[: live.shape[0]], dist, err, unconverged,
        n_rec, reduced.exited, full.exploded, exit_step, summary, reduced.table,
    )
