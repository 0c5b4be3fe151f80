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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import take_rows
from .manifold import DegenerateChartError, Parametrization, distance_to_manifold
from .models import as_batched
from .tangency import reduced_coefficients

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

    @property
    def n_steps(self) -> int:
        steps = int(round(self.horizon / self.dt))
        if steps < 1:
            raise ValueError("horizon shorter than one step")
        return steps


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


def _is_zero_field(field) -> bool:
    data = field.coeffs if hasattr(field, "coeffs") else field.values
    return not data.any()


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
    model = as_batched(model)
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
            if dw[:, j].any() and not _is_zero_field(a_field):
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
        coeffs = None
        while live.size and coeffs is None:
            try:
                coeffs = reduced_coefficients(model, param, xs[live])
            except DegenerateChartError as err:
                for k in live[err.rows]:
                    exited[k], exit_step[k] = True, step
                live = live[~err.rows]
        if coeffs is None:
            break
        a, beta = coeffs
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

    All ``cfg.paths`` paths are stepped together.  ``coupled_err`` is the
    mid-norm gap between the full state and the chart image of the
    reduced coordinates; ``dist`` is the distance from the full state to
    the chart itself, from a Gauss-Newton solve warm-started per path.
    Steps whose solve did not converge are flagged and counted.  The
    ensemble summary keeps the maxima and the per-path termination flags.
    """
    model = as_batched(model)
    geo = model.geometry
    n_steps = cfg.n_steps
    paths = np.arange(cfg.paths)
    x0 = np.asarray(x0, dtype=float)
    incr = wiener_increments(cfg.seed, paths, n_steps, model.n_noise, cfg.dt)
    reduced = simulate_reduced(model, param, x0, cfg, paths, incr)
    full = simulate_full(model, param.eval(x0), cfg, paths, incr)
    n_rec = np.minimum(_recorded(reduced.exit_step, n_steps), _recorded(full.exit_step, n_steps))
    dist = np.full((paths.size, n_rec.max()), np.nan)
    err = np.zeros(dist.shape)
    unconverged = np.zeros(dist.shape, dtype=bool)
    x_guess = np.array(np.broadcast_to(x0, (paths.size, param.m)))
    for step in range(dist.shape[1]):
        live = np.flatnonzero(n_rec > step)
        y = full.states[step]
        if live.size < paths.size:
            y = take_rows(y, live)
        err[live, step] = geo.norm_diff(y, param.eval(reduced.xs[step, live]))
        if cfg.record_distance:
            # warm-started; the distance error is quadratic in the step
            # tolerance, so 1e-5 keeps the recorded value good to ~1e-10
            res = distance_to_manifold(param, y, x_guess[live], geo, step_tol=1e-5)
            dist[live, step] = res.distance
            unconverged[live, step] = ~res.path_converged
            keep = res.path_converged & param.contains(res.x, margin=1e-9)
            x_guess[live[keep]] = res.x[keep]
    records = [
        PathRecord(
            int(p),
            reduced.times[:n],
            reduced.xs[:n, p],
            dist[p, :n],
            err[p, :n],
            bool(reduced.exited[p]),
            bool(full.exploded[p]),
            reduced.exit_step[p] if reduced.exited[p] else full.exit_step[p],
            unconverged[p, :n],
        )
        for p, n in zip(paths, n_rec)
    ]

    if cfg.record_distance:
        max_dist = max(
            (float(np.nanmax(r.dist)) if r.dist.size else 0.0) for r in records
        )
    else:
        max_dist = None
    max_err = max((float(r.coupled_err.max()) if r.coupled_err.size else 0.0) for r in records)
    summary = {
        "paths": cfg.paths,
        "steps": n_steps,
        "dt": cfg.dt,
        "max_distance": max_dist,
        "max_coupled_err": max_err,
        "max_spill": float(full.max_spill.max()),
        "n_unconverged_distance": int(unconverged.sum()),
        "n_exited": sum(r.exited for r in records),
        "n_exploded": sum(r.exploded for r in records),
        "verdict": verdict,
    }
    return TrajectoryRecord(records, verdict, summary)
