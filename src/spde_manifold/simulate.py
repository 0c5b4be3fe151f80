"""Euler-Maruyama simulation, full-space and chart-reduced, plus coupling.

Both integrators consume the same counter-based noise stream (Philox,
keyed by seed and indexed by path/step/component), so a full-space path
and its reduced counterpart can be driven by identical increments.  Given
a sequence of path indices, each integrator steps that whole ensemble at
once: the live paths form one batch, so every drift, diffusion, frame and
distance evaluation covers all of them.  The reduced run tabulates its
coefficients, which depend on the chart coordinate alone, once per run on
the chart box.  The coupled comparison advances both, measures the
distance from the full state to the chart at every recorded step with one
damped Newton solve per row, started from the reduced coordinate or from
the nearest of a fixed set of chart images, and summarizes the ensemble.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hermite import weighted_sum
from .manifold import Parametrization, block_frame, distance_to_manifold, rank_deficient
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
    "PathRecord",
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
        if not self.explosion_ceiling > 0:
            raise ValueError(f"explosion_ceiling must be positive, got {self.explosion_ceiling!r}")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed!r}")
        if not (isinstance(self.paths, numbers.Integral) and self.paths >= 1):
            raise ValueError(f"paths must be an integer of at least 1, got {self.paths!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def wiener_increments(seed: int, path_index, n_steps: int, n_noise: int, dt: float) -> np.ndarray:
    """Deterministic increment table.

    Shape (n_steps, n_noise) for one path index, (P, n_steps, n_noise) for
    a sequence of P path indices.  Entry (path, step, j) is the first
    normal draw of the Philox stream keyed by ``seed`` at counter
    [0, path, step, j] (counter-based generation, Salmon et al., SC'11),
    so extending the run in steps, components or paths never perturbs
    previously drawn values.  One bit generator serves every entry; its
    counter is reset before each draw.
    """
    paths = np.atleast_1d(path_index)
    bits = np.random.Philox(key=seed)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state
    counter = state["state"]["counter"]
    out = np.empty((paths.size, n_steps, n_noise))
    for p, path in enumerate(paths):
        for step in range(n_steps):
            for j in range(n_noise):
                counter[1:] = (path, step, j)
                bits.state = state
                out[p, step, j] = normal()
    out *= np.sqrt(dt)
    return out if np.ndim(path_index) else out[0]


def _ensemble(path_index, cfg: SimConfig, n_noise: int, increments):
    """Path indices as an array, and the increments step-major: (n_steps, P, n_noise)."""
    paths = np.atleast_1d(path_index)
    if increments is None:
        increments = wiener_increments(cfg.seed, paths, cfg.n_steps, n_noise, cfg.dt)
    elif not np.ndim(path_index):
        increments = np.asarray(increments)[None]
    return paths, np.ascontiguousarray(np.swapaxes(increments, 0, 1))


def _recorded(exit_steps, n_steps: int) -> np.ndarray:
    """Recorded instants per path: up to the exit step, or the whole run."""
    return np.array([n_steps + 1 if k is None else k + 1 for k in exit_steps])


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
    """One path, or an ensemble: then the flags, exit steps and spills are per path.

    ``ys`` is the trajectory, flat at the working order ``order``:
    (steps + 1, P, n) for an ensemble, (steps + 1, n) for one path;
    ``states`` reads one (batched) state per recorded step from it.
    """

    times: np.ndarray
    ys: np.ndarray
    exploded: bool
    exit_step: Optional[int]
    max_spill: float
    geometry: object
    order: Optional[int]

    @property
    def states(self) -> Sequence:
        return _RecordedStates(self)


def simulate_full(model, y0, cfg: SimConfig, path_index=0, increments=None) -> FullPath:
    """Explicit Euler path of dY = L(Y) dt + sum_j A^j(Y) dW^j in the ambient space.

    A sequence of path indices steps that ensemble at once from y0 (one
    state for every path, or a batch).  The trajectory is one array, flat
    at the working order; each step takes the live paths' drift and noise
    fields as arrays, from ``model.drift_and_diffusion`` or else from one
    batch state passed to ``drift`` and ``diffusion``, and does the update,
    the truncation back to the working order and the explosion test on
    the arrays.  The discarded relative mass is tracked as ``max_spill``.
    A state whose norm passes the ceiling marks its path exploded and
    freezes it there.
    """
    geo = model.geometry
    n_steps = cfg.n_steps
    paths, noise = _ensemble(path_index, cfg, model.n_noise, increments)
    kernel = getattr(model, "drift_and_diffusion", None)
    y = geo.truncate_to_work(y0)
    order = geo.embed_order([y])
    flat = geo.flat(y, order)
    ys = np.empty((n_steps + 1, paths.size) + flat.shape[-1:])
    ys[0] = flat
    exploded = np.zeros(paths.size, dtype=bool)
    exit_step: list = [None] * paths.size
    max_spill = np.zeros(paths.size)
    live = np.arange(paths.size)
    done = 0
    for step in range(n_steps):
        if not live.size:
            break
        rows = slice(None) if live.size == paths.size else live  # no gather while all live
        f, dw = ys[step, rows], noise[step, rows]
        c = geo.tensor(f, order)
        if kernel is None:
            y = geo.state_from_flat(f, order)
            drift, fields = model.drift(y).array, [a.array for a in model.diffusion(y)]
        else:
            drift, fields = kernel(c)
        terms = [(drift, cfg.dt), (c, 1.0)]  # drift dt + y is y + drift dt: one addition commutes
        for j, a_field in enumerate(fields):
            if np.count_nonzero(dw[:, j]) and np.count_nonzero(a_field):
                terms.append((a_field, dw[:, j]))
        y_next, spill, size = geo.truncate_rows(weighted_sum(terms, c.ndim - 1))
        max_spill[rows] = np.maximum(max_spill[rows], spill)
        if live.size < paths.size:
            ys[step + 1] = ys[step]  # exploded paths stay frozen
        ys[step + 1, rows] = y_next
        done = step + 1
        blown = ~(size <= cfg.explosion_ceiling)  # NaN sizes too
        if np.count_nonzero(blown):
            for k in live[blown]:
                exploded[k], exit_step[k] = True, step + 1
            live = live[~blown]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: done + 1]
    ys = ys[: done + 1]
    if np.ndim(path_index):
        return FullPath(times, ys, exploded, exit_step, max_spill, geo, order)
    single = (bool(exploded[0]), exit_step[0], float(max_spill[0]))
    return FullPath(times, ys[:, 0], *single, geo, order)


# The reduced run reads (a, beta) and the frame columns from a Chebyshev tensor interpolant on
# the chart box: K first-kind nodes per axis, doubled until each group's last two coefficient
# layers fall to TABLE_TAIL_TOL of its largest value (Trefethen, ATAP, 2013, ch. 8)
TABLE_FIRST_NODES = 8
TABLE_TAIL_TOL = 1e-13
TABLE_NODE_BUDGET = 4096  # tensor nodes of the largest table tried


class ReducedTableError(RuntimeError):
    """The chart's reduced coefficients admit no Chebyshev table on its box."""


@dataclass
class ReducedTable:
    """Chebyshev coefficients (K,) * m + (F,) of a, beta and the weighted frame columns."""

    domain: np.ndarray
    coeffs: np.ndarray
    n_noise: int
    nodes: int

    def __call__(self, x):
        """(a, beta, columns) at a (P, m) batch of points in the box."""
        (p, m), i = x.shape, self.n_noise * x.shape[1]
        lo, hi = self.domain.T  # the clip absorbs rounding at the box edge only
        u = np.minimum(np.maximum((2.0 * x - lo - hi) / (hi - lo), -1.0), 1.0)
        t = np.cos(np.arccos(u)[..., None] * np.arange(self.coeffs.shape[0]))
        axes = "ABCDEFGHIJKL"[:m]
        spec = ",".join("p" + c for c in axes) + f",{axes}f->pf"
        # einsum without optimize: a row's rounding does not depend on the row count
        v = np.einsum(spec, *t.swapaxes(0, 1), self.coeffs)
        a, beta, cols = v[:, :i], v[:, i : i + m], v[:, i + m :]
        return a.reshape(p, self.n_noise, m), beta, cols.reshape(p, cols.shape[1] // m, m)


def reduced_table(model, param: Parametrization) -> ReducedTable:
    """Tabulate (a, beta) and the frame columns over the chart box, from one
    ``reduced_coefficients`` call per row block of nodes.  A node whose frame
    degenerates, or a tail that does not decay within the node budget,
    raises ReducedTableError."""
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
        # c_k = (2/K) sum_j f_j T_k(u_j), c_0 halved, axis by axis: a DCT-II,
        # from the FFT of the values and their mirror image
        phase = np.exp(-0.5j * np.pi * np.arange(k) / k) / k
        phase[0] *= 0.5
        coeffs = values.reshape((k,) * m + (-1,))
        for axis in range(m):
            spectrum = np.fft.fft(np.concatenate([coeffs, np.flip(coeffs, axis)], axis), axis=axis)
            coeffs = (spectrum.take(range(k), axis) * phase.reshape((k,) + (1,) * (m - axis))).real
        tail = np.abs(coeffs[np.indices((k,) * m).max(axis=0) >= k - 2]).max(axis=0)
        scale = np.abs(values).max(axis=0)
        groups = (slice(0, n_a), slice(n_a, n_a + m), slice(n_a + m, None))
        tails = [(tail[g].max(initial=0.0), scale[g].max(initial=0.0)) for g in groups]
        if all(t <= TABLE_TAIL_TOL * s for t, s in tails):
            # .real is a strided view; every reduced step's einsum reads a contiguous copy faster
            return ReducedTable(param.domain, np.ascontiguousarray(coeffs), model.n_noise, k**m)
        k *= 2
    raise ReducedTableError(
        f"no Chebyshev table of at most {TABLE_NODE_BUDGET} nodes ({k // 2} per axis) resolves the "
        f"reduced coefficients on the chart box {param.domain.tolist()}: they are not smooth enough"
    )


@dataclass
class ReducedPath:
    """One path, or an ensemble: then ``xs`` has shape (steps + 1, P, m) and the
    flags (``degenerate``: stopped at a degenerate frame) and exit steps are per path."""

    times: np.ndarray
    xs: np.ndarray
    exited: bool
    exit_step: Optional[int]
    degenerate: bool
    table: ReducedTable


def simulate_reduced(
    model, param: Parametrization, x0, cfg: SimConfig, path_index=0, increments=None
) -> ReducedPath:
    """Euler path of the chart-coordinate equation dX = beta dt + a dW.

    Every live path reads its coefficients and frame columns from the table
    ``reduced_table`` builds once for the run.  A path stops, flagged as
    exited, where it leaves the chart domain or where the relative smallest
    singular value of its columns is at most ``RANK_FLOOR``, as in ``jacobian``.
    A start ``x0`` outside the chart box raises ValueError.
    """
    n_steps, m = cfg.n_steps, param.m
    paths, noise = _ensemble(path_index, cfg, model.n_noise, increments)
    xs = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (paths.size, m)))
    if not param.contains(xs).all():
        raise ValueError(f"x0 must lie in the chart box {param.domain.tolist()}, got {x0!r}")
    table = reduced_table(model, param)
    traj = np.empty((n_steps + 1,) + xs.shape)
    traj[0] = xs
    exited = np.zeros(paths.size, dtype=bool)
    degenerate = np.zeros(paths.size, dtype=bool)
    exit_step: list = [None] * paths.size
    live = np.arange(paths.size)
    done = 0
    for step in range(n_steps):
        rows = slice(None) if live.size == paths.size else live  # no gather while all live
        a, beta, cols = table(xs[rows])
        # one column's only singular value is its norm, as in ``jacobian``
        sv = np.sqrt((cols * cols).sum(-2)) if m == 1 else np.linalg.svd(cols, compute_uv=False)
        bad = rank_deficient(sv)
        if np.count_nonzero(bad):
            for k in live[bad]:
                exited[k], degenerate[k], exit_step[k] = True, True, step
            a, beta, live = a[~bad], beta[~bad], live[~bad]
            rows = live
        if not live.size:
            break
        dw = noise[step, rows]
        xs[rows] = xs[rows] + beta * cfg.dt + (dw[:, None, :] @ a)[:, 0, :]
        traj[step + 1] = xs
        done = step + 1
        out = ~param.contains(xs[rows])
        if np.count_nonzero(out):
            for k in live[out]:
                exited[k], exit_step[k] = True, step + 1
            live = live[~out]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: done + 1]
    traj = traj[: done + 1]
    if np.ndim(path_index):
        return ReducedPath(times, traj, exited, exit_step, degenerate, table)
    return ReducedPath(times, traj[:, 0], bool(exited[0]), exit_step[0], bool(degenerate[0]), table)


# step tolerance of the recorded distances' solve: the distance error
# is quadratic in it, so 1e-5 keeps the recorded value good to ~1e-10
DIST_STEP_TOL = 1e-5
# chart points whose images can start a distance solve: a lattice of this
# many points on a 1-coordinate box, about as many on larger ones
DIST_SEED_POINTS = 161


@dataclass
class PathRecord:
    path_index: int
    times: np.ndarray
    xs: np.ndarray
    dist: np.ndarray
    coupled_err: np.ndarray
    exited: bool
    exploded: bool
    exit_step: Optional[int]
    unconverged: np.ndarray  # per recorded step: the distance solve did not converge


@dataclass
class TrajectoryRecord:
    records: list
    verdict: Optional[str]
    summary: dict = field(default_factory=dict)
    table: Optional[ReducedTable] = None  # the reduced run's coefficient table

    def to_csv_rows(self):
        """Header and one row per path and recorded step; floats as ``repr_words`` text."""
        recs = self.records
        m = recs[0].xs.shape[1]
        header = ["path", "step", "time", *(f"x_{k}" for k in range(m)), "dist", "coupled_err"]
        stacked = [np.column_stack([r.times, r.xs, r.dist, r.coupled_err]) for r in recs]
        (cells,) = repr_words(np.concatenate(stacked))
        counts = [len(r.times) for r in recs]
        paths = np.repeat([str(r.path_index) for r in recs], counts).astype(object)
        steps = np.concatenate([int_words(n) for n in counts])
        return header, np.column_stack([paths, steps, cells]).tolist()


def coupled_compare(
    model,
    param: Parametrization,
    x0,
    cfg: SimConfig,
    verdict: Optional[str] = None,
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
    n_rec = np.minimum(_recorded(reduced.exit_step, n_steps), _recorded(full.exit_step, n_steps))
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
    records = [
        PathRecord(
            int(p),
            reduced.times[:n],
            reduced.xs[:n, p],
            dist[:n, p],
            err[:n, p],
            bool(reduced.exited[p]),
            bool(full.exploded[p]),
            reduced.exit_step[p] if reduced.exited[p] else full.exit_step[p],
            unconverged[:n, p],
        )
        for p, n in zip(paths, n_rec)
    ]

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
        "n_unconverged_distance": int(unconverged.sum()),
        "distance_iterations": iterations,
        "distance_newton_steps": newton_steps,
        "distance_backtracks": backtracks,
        "distance_seeded_starts": seeded_starts,
        "n_exited": sum(r.exited for r in records),
        "n_degenerate_frame": int(np.sum(reduced.degenerate)),
        "n_exploded": sum(r.exploded for r in records),
        "reduced_table_nodes": reduced.table.nodes,
        "verdict": verdict,
    }
    return TrajectoryRecord(records, verdict, summary, reduced.table)
