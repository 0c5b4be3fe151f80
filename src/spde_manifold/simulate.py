"""Euler-Maruyama simulation, full-space and chart-reduced, plus coupling.

Both integrators consume the same counter-based noise stream (Philox,
keyed by seed and indexed by path/step/component), so a full-space path
and its reduced counterpart can be driven by identical increments.  Given
a sequence of path indices, each integrator steps that whole ensemble at
once: the live paths form one batch, so every drift, diffusion, frame and
distance evaluation covers all of them.  The coupled comparison advances
both, measures the distance from the full state to the chart at every
recorded step, and summarizes the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .manifold import Parametrization, block_frame, distance_to_manifold
from .tangency import reduced_coefficients, row_blocks

__all__ = [
    "SimConfig",
    "wiener_increments",
    "FullPath",
    "simulate_full",
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
    """Path indices as an array, and the (P, n_steps, n_noise) increments."""
    paths = np.atleast_1d(path_index)
    if increments is None:
        return paths, wiener_increments(cfg.seed, paths, cfg.n_steps, n_noise, cfg.dt)
    increments = np.asarray(increments)
    return paths, increments if np.ndim(path_index) else increments[None]


def _recorded(exit_steps, n_steps: int) -> np.ndarray:
    """Recorded instants per path: up to the exit step, or the whole run."""
    return np.array([n_steps + 1 if k is None else k + 1 for k in exit_steps])


@dataclass
class FullPath:
    """One path, or an ensemble: then ``states`` holds one batched state
    per recorded step and the flags, exit steps and spills are per path."""

    times: np.ndarray
    states: list
    exploded: bool
    exit_step: Optional[int]
    max_spill: float


def simulate_full(model, y0, cfg: SimConfig, path_index=0, increments=None) -> FullPath:
    """Explicit Euler path of dY = L(Y) dt + sum_j A^j(Y) dW^j in the ambient space.

    A sequence of path indices steps that ensemble at once from y0 (one
    state for every path, or a batch).  Every step re-truncates to the
    model's working order; the discarded relative mass is tracked as
    ``max_spill``.  A state whose norm passes the ceiling marks its path
    exploded and freezes it there.
    """
    geo = model.geometry
    n_steps = cfg.n_steps
    paths, increments = _ensemble(path_index, cfg, model.n_noise, increments)
    y = geo.truncate_to_work(y0)
    order = geo.embed_order([y])
    flat = geo.flat(y, order)
    ys = np.array(np.broadcast_to(flat, (paths.size,) + flat.shape[-1:]))
    ensemble = np.ndim(path_index) > 0

    def snapshot():  # the state of every path (or the one path) now
        return geo.state_from_flat(ys if ensemble else ys[0], order)

    states = [snapshot()]
    exploded = np.zeros(paths.size, dtype=bool)
    exit_step: list = [None] * paths.size
    max_spill = np.zeros(paths.size)
    live = np.arange(paths.size)
    for step in range(n_steps):
        if not live.size:
            break
        y = geo.state_from_flat(ys[live], order)
        dw = increments[live, step]
        terms = [(y, 1.0), (model.drift(y), cfg.dt)]
        for j, a_field in enumerate(model.diffusion(y)):
            if dw[:, j].any() and geo.flat(a_field).any():
                terms.append((a_field, dw[:, j]))
        y_next = type(y).combine(terms)
        max_spill[live] = np.maximum(max_spill[live], geo.spill_ratio(y_next))
        y = geo.truncate_to_work(y_next)
        ys[live] = geo.flat(y, order)
        states.append(snapshot())
        size = geo.norm_mid(y)
        blown = ~np.isfinite(size) | (size > cfg.explosion_ceiling)
        for k in live[blown]:
            exploded[k], exit_step[k] = True, step + 1
        live = live[~blown]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: len(states)]
    if ensemble:
        return FullPath(times, states, exploded, exit_step, max_spill)
    return FullPath(times, states, bool(exploded[0]), exit_step[0], float(max_spill[0]))


@dataclass
class ReducedPath:
    """One path, or an ensemble: then ``xs`` has shape (steps + 1, P, m)
    and the flags and exit steps are per path."""

    times: np.ndarray
    xs: np.ndarray
    exited: bool
    exit_step: Optional[int]


def simulate_reduced(
    model,
    param: Parametrization,
    x0,
    cfg: SimConfig,
    path_index=0,
    increments=None,
) -> ReducedPath:
    """Euler path of the chart-coordinate equation dX = beta dt + a dW.

    Coefficients come from projecting the model onto the moving tangent
    frame, for every live path of the ensemble at once.  Leaving the chart
    domain (or hitting a degenerate frame) stops that path and flags it.
    """
    n_steps = cfg.n_steps
    paths, increments = _ensemble(path_index, cfg, model.n_noise, increments)
    xs = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (paths.size, param.m)))
    rows = [xs.copy()]
    exited = np.zeros(paths.size, dtype=bool)
    exit_step: list = [None] * paths.size
    live = np.arange(paths.size)
    for step in range(n_steps):
        kept, frame, dropped = block_frame(param, xs[live], model.geometry)
        for k in live[list(dropped)]:
            exited[k], exit_step[k] = True, step
        live = live[kept]
        if not live.size:
            break
        a, beta = reduced_coefficients(model, param, frame)
        dw = increments[live, step]
        xs[live] = xs[live] + beta * cfg.dt + (dw[:, None, :] @ a)[:, 0, :]
        rows.append(xs.copy())
        out = ~param.contains(xs[live])
        for k in live[out]:
            exited[k], exit_step[k] = True, step + 1
        live = live[~out]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: len(rows)]
    if np.ndim(path_index):
        return ReducedPath(times, np.asarray(rows), exited, exit_step)
    return ReducedPath(times, np.asarray(rows)[:, 0], bool(exited[0]), exit_step[0])


# Gauss-Newton step tolerance of the recorded distances: the distance error
# is quadratic in it, so 1e-5 keeps the recorded value good to ~1e-10
DIST_STEP_TOL = 1e-5
# a chart point inside the box by at least this much can start the next row
CHAIN_MARGIN = 1e-9
# a row is solved again when its chain start moved by more than this,
# relative to the start it was solved from: well inside the step
# tolerance, so the solve ends where it would from the chain start
CHAIN_START_TOL = 0.1 * DIST_STEP_TOL


def _chained_distances(param, geo, full_rows, xs, live, x0):
    """Distance to the chart of every live (step, path) row, in row blocks.

    ``full_rows`` maps flat row indices (step * P + path) to the batched
    full states, ``xs`` (T, P, m) holds the reduced coordinates and
    ``live`` (T, P) the recorded rows.  The answer is that of the serial
    chain, where a row starts at the last earlier row of its path that
    converged inside the chart, or at ``x0``.  The first pass starts each
    row at its reduced coordinate instead (step 0 at ``x0``); each later
    pass computes the chain starts from the current results and solves
    again the rows whose start moved.  After pass k the first k rows of
    every path are final, so at most T + 1 passes run.  Returns the
    distances and the non-converged flags, both (T, P), and the summed
    Gauss-Newton path-iterations.
    """
    n_steps, n_paths, m = xs.shape
    steps = np.arange(n_steps)[:, None]
    start = xs.reshape(-1, m).copy()
    start[: n_paths] = x0
    x = np.zeros_like(start)
    dist = np.full(start.shape[0], np.nan)
    converged = np.zeros(start.shape[0], dtype=bool)
    rows = np.flatnonzero(live)
    todo, iterations = rows, 0
    while todo.size:
        for idx in row_blocks(todo, geo):
            res = distance_to_manifold(param, full_rows(idx), start[idx], geo, step_tol=DIST_STEP_TOL)
            x[idx], dist[idx], converged[idx] = res.x, res.distance, res.path_converged
            iterations += res.iterations
        keep = (converged & param.contains(x, margin=CHAIN_MARGIN)).reshape(n_steps, n_paths)
        last = np.maximum.accumulate(np.where(keep, steps, -1), axis=0)
        prev = np.vstack([np.full((1, n_paths), -1), last[:-1]])
        chain = np.where(
            (prev >= 0)[..., None], x.reshape(n_steps, n_paths, m)[prev, np.arange(n_paths)], x0
        ).reshape(-1, m)
        shift = np.sqrt(((chain - start) ** 2).sum(-1))
        moved = shift > CHAIN_START_TOL * (1.0 + np.sqrt((start * start).sum(-1)))
        todo = rows[moved[rows]]
        start[todo] = chain[todo]
    return dist.reshape(live.shape), live & ~converged.reshape(live.shape), iterations


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

    def to_csv_rows(self):
        m = self.records[0].xs.shape[1] if self.records else 0
        header = ["path", "step", "time", *(f"x_{k}" for k in range(m)), "dist", "coupled_err"]
        rows = []
        for rec in self.records:
            for step, t in enumerate(rec.times):
                rows.append(
                    [str(rec.path_index), str(step), f"{t:.17g}"]
                    + [f"{v:.17g}" for v in rec.xs[step]]
                    + [f"{rec.dist[step]:.17g}", f"{rec.coupled_err[step]:.17g}"]
                )
        return header, rows


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
    the full state to the chart itself, from Gauss-Newton solves whose
    starts follow the serial chain (a row starts at the last earlier row of
    its path that converged inside the chart, or at ``x0``).  Rows whose
    solve did not converge are flagged and counted, and kept out of the
    maximum distance.  The ensemble summary keeps the maxima, the mean and
    standard error over paths of each path's largest gap, the Gauss-Newton
    path-iterations of every block solve, and the per-path termination flags.
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
    order = geo.embed_order([full.states[0]])

    def full_rows(idx):  # the full states of flat rows step * P + path
        step, path = np.divmod(idx, paths.size)
        steps, at = np.unique(step, return_inverse=True)
        held = np.stack([geo.flat(full.states[k], order) for k in steps])
        return geo.state_from_flat(held[at, path], order)

    xs = reduced.xs[: live.shape[0]]
    flat_x = xs.reshape(live.size, -1)
    err = np.zeros(live.size)
    for idx in row_blocks(np.flatnonzero(live), geo):
        err[idx] = geo.norm_diff(full_rows(idx), param.eval(flat_x[idx]))
    err = err.reshape(live.shape)
    dist = np.full(live.shape, np.nan)
    unconverged = np.zeros(live.shape, dtype=bool)
    iterations = 0
    if cfg.record_distance:
        dist, unconverged, iterations = _chained_distances(param, geo, full_rows, xs, live, x0)
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
        "n_exited": sum(r.exited for r in records),
        "n_exploded": sum(r.exploded for r in records),
        "verdict": verdict,
    }
    return TrajectoryRecord(records, verdict, summary)
