"""Noise streams, Euler paths in both spaces, and the coupled comparison."""

import functools
import math

import numpy as np
import pytest

from spde_manifold import (
    DualField,
    ItoTypeModel,
    Parametrization,
    PLaplaceModel,
    SimConfig,
    SpectralState,
    build_manifold,
    build_model,
    coupled_compare,
    derivative,
    distance_to_manifold,
    linear_span_chart,
    load_config,
    second_derivative,
    simulate_full,
    simulate_reduced,
    translate,
    translation_chart,
    wiener_increments,
)
from spde_manifold.geometry import GridGeometry
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.models import plaplace_drift
from spde_manifold.tangency import reduced_coefficients


def dirac0(n):
    return DualField.dirac([0.0], n=n)


def transport_setup(n=24):
    model = ItoTypeModel(d=1, J=1, N=n, b=(dirac0(n),), sigma=((dirac0(n),),))
    chart = translation_chart(SpectralState.basis([0], n), [[-2.0, 2.0]])
    return model, chart


def zero_noise_setup(n=16):
    model = ItoTypeModel(
        d=1, J=1, N=n, b=(DualField.zero(1),), sigma=((DualField.zero(1),),)
    )
    chart = translation_chart(SpectralState.basis([0], n), [[-1.0, 1.0]])
    return model, chart


# -- noise stream -----------------------------------------------------------------


def test_increments_deterministic():
    a = wiener_increments(42, 3, 6, 2, 1e-3)
    b = wiener_increments(42, 3, 6, 2, 1e-3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 2)


def test_increments_distinct_across_seeds_and_paths():
    base = wiener_increments(42, 0, 6, 1, 1e-3)
    assert not np.array_equal(base, wiener_increments(43, 0, 6, 1, 1e-3))
    assert not np.array_equal(base, wiener_increments(42, 1, 6, 1, 1e-3))


def test_increments_stable_under_horizon_extension():
    short = wiener_increments(7, 0, 5, 2, 1e-3)
    long = wiener_increments(7, 0, 10, 2, 1e-3)
    np.testing.assert_array_equal(long[:5], short)


def test_increments_stable_under_component_extension():
    few = wiener_increments(7, 0, 5, 2, 1e-3)
    more = wiener_increments(7, 0, 5, 3, 1e-3)
    np.testing.assert_array_equal(more[:, :2], few)


def test_increment_variance_scales_with_dt():
    dt = 1e-3
    w = wiener_increments(7, 0, 2000, 2, dt)
    assert (w**2).mean() / dt == pytest.approx(1.0, abs=0.1)


def test_config_rejects_subsize_horizon():
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(horizon=1e-4, dt=1e-3).n_steps


# -- full-space paths ----------------------------------------------------------------


def test_full_path_constant_without_dynamics():
    model, _ = zero_noise_setup()
    y0 = SpectralState.basis([0], 16) * 0.3
    cfg = SimConfig(horizon=0.01, dt=1e-3, seed=1)
    path = simulate_full(model, y0, cfg)
    assert len(path.states) == 11
    assert not path.exploded and path.exit_step is None
    for st in path.states:
        np.testing.assert_array_equal(st.coeffs, y0.coeffs)
    assert path.max_spill == 0.0


def test_full_path_single_step_hand_check():
    m = 8
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1),))
    y0 = sine_mode(m, 2) * 0.5
    cfg = SimConfig(horizon=1e-3, dt=1e-3, seed=3)
    dw = wiener_increments(3, 0, 1, 1, 1e-3)[0, 0]
    path = simulate_full(model, y0, cfg)
    want = (
        y0.values * (1.0 + laplace_eigenvalue(m, 2) * 1e-3)
        + sine_mode(m, 1).values * dw
    )
    np.testing.assert_allclose(path.states[1].values, want, rtol=1e-14)


def test_full_path_geometric_decay_on_eigenvector():
    m = 16
    model = PLaplaceModel(2.0, m)
    y0 = sine_mode(m, 1)
    steps = 10
    cfg = SimConfig(horizon=steps * 1e-3, dt=1e-3, seed=0)
    path = simulate_full(model, y0, cfg)
    factor = (1.0 + laplace_eigenvalue(m, 1) * 1e-3) ** steps
    np.testing.assert_allclose(path.states[-1].values, factor * y0.values, rtol=1e-12)


def test_full_path_explosion_freezes_trajectory():
    m = 64
    model = PLaplaceModel(2.0, m)
    y0 = sine_mode(m, m) * 1e-8
    cfg = SimConfig(horizon=0.03, dt=1e-3, seed=0)
    path = simulate_full(model, y0, cfg)

    # pure stiff-mode growth rate is exact, so the exit step is predictable
    amp = abs(1.0 + laplace_eigenvalue(m, m) * cfg.dt)
    norm, expected_exit = GridGeometry(m).norm_mid(y0), 0
    while norm <= cfg.explosion_ceiling:
        norm *= amp
        expected_exit += 1

    assert path.exploded
    assert path.exit_step == expected_exit
    assert len(path.states) == expected_exit + 1
    assert len(path.times) == expected_exit + 1


# -- reduced paths ----------------------------------------------------------------------


def test_reduced_path_single_step_hand_check():
    model, chart = transport_setup(24)
    x0 = np.array([0.2])
    cfg = SimConfig(horizon=1e-3, dt=1e-3, seed=9)
    a, beta = reduced_coefficients(model, chart, x0)
    dw = wiener_increments(9, 0, 1, 1, 1e-3)[0]
    path = simulate_reduced(model, chart, x0, cfg)
    want = x0 + beta * 1e-3 + a.T @ dw
    np.testing.assert_allclose(path.xs[1], want, atol=1e-14)
    assert not path.exited


def test_reduced_path_exits_chart_domain():
    m = 16
    model = PLaplaceModel(2.0, m)
    chart = linear_span_chart([sine_mode(m, 1)], [[0.9, 2.0]])
    cfg = SimConfig(horizon=0.05, dt=1e-3, seed=0)
    path = simulate_reduced(model, chart, [1.0], cfg)

    lam = laplace_eigenvalue(m, 1)
    x, expected_exit = 1.0, 0
    while x >= 0.9:
        x *= 1.0 + lam * cfg.dt
        expected_exit += 1

    assert path.exited
    assert path.exit_step == expected_exit
    assert len(path.xs) == expected_exit + 1
    assert len(path.times) == len(path.xs)
    assert path.xs[-1, 0] < 0.9 <= path.xs[-2, 0]


# -- coupled comparison -------------------------------------------------------------------


def test_coupled_zero_dynamics_is_exact():
    model, chart = zero_noise_setup()
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=1)
    rec = coupled_compare(model, chart, [0.0], cfg, verdict="tangent")
    assert rec.summary["paths"] == 2
    assert rec.summary["max_coupled_err"] == 0.0
    assert rec.summary["max_distance"] <= 1e-12
    assert rec.summary["n_exited"] == 0
    assert rec.summary["n_exploded"] == 0
    assert rec.verdict == "tangent"


def test_coupled_distance_can_be_skipped():
    model, chart = zero_noise_setup()
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=1, seed=1, record_distance=False)
    rec = coupled_compare(model, chart, [0.0], cfg)
    assert rec.summary["max_distance"] is None
    assert np.isnan(rec.records[0].dist).all()


def test_coupled_runs_are_reproducible():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=12)
    rows1 = coupled_compare(model, chart, [0.2], cfg).to_csv_rows()[1]
    rows2 = coupled_compare(model, chart, [0.2], cfg).to_csv_rows()[1]
    assert rows1 == rows2


def test_coupled_error_shrinks_with_the_step():
    # pathwise strong convergence: halving dt should at least noticeably
    # shrink the worst coupled gap over a small ensemble
    model, chart = transport_setup(24)
    errs = {}
    for dt in (4e-3, 2e-3):
        cfg = SimConfig(horizon=0.1, dt=dt, paths=8, seed=5, record_distance=False)
        rec = coupled_compare(model, chart, [0.2], cfg)
        assert rec.summary["n_exited"] == 0
        errs[dt] = rec.summary["max_coupled_err"]
    assert errs[2e-3] <= 0.8 * errs[4e-3]


def test_trajectory_csv_layout():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=4e-3, dt=1e-3, paths=2, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    header, rows = rec.to_csv_rows()
    assert header == ["path", "step", "time", "x_0", "dist", "coupled_err"]
    assert len(rows) == 2 * 5  # two paths, five recorded instants each
    assert all(len(r) == len(header) for r in rows)
    float(rows[0][2])  # times parse back
    assert rows[0][:2] == ["0", "0"]
    assert rows[-1][0] == "1"


# -- batched ensemble against per-path runs -------------------------------------------


def _per_path(model, chart, x0, cfg, p):
    """One path of the coupled comparison, run through the single-path calls."""
    incr = wiener_increments(cfg.seed, p, cfg.n_steps, model.n_noise, cfg.dt)
    reduced = simulate_reduced(model, chart, x0, cfg, p, incr)
    full = simulate_full(model, chart.eval(np.asarray(x0, dtype=float)), cfg, p, incr)
    geo = model.geometry
    n_rec = min(len(reduced.times), len(full.times))
    err = np.zeros(n_rec)
    dist = np.full(n_rec, np.nan)
    unconverged = np.zeros(n_rec, dtype=bool)
    guess = np.asarray(x0, dtype=float)
    for step in range(n_rec):
        y = full.states[step]
        err[step] = geo.norm_diff(y, chart.eval(reduced.xs[step]))
        if cfg.record_distance:
            res = distance_to_manifold(chart, y, guess, geo, step_tol=1e-5)
            dist[step] = res.distance
            unconverged[step] = not res.converged
            if res.converged and chart.contains(res.x, margin=1e-9):
                guess = res.x
    exit_step = reduced.exit_step if reduced.exited else full.exit_step
    flags = (reduced.exited, full.exploded, exit_step)
    return reduced.xs[:n_rec], err, dist, unconverged, flags


def _assert_matches_per_path(model, chart, x0, cfg):
    rec = coupled_compare(model, chart, x0, cfg)
    assert len(rec.records) == cfg.paths
    for p, r in enumerate(rec.records):
        xs, err, dist, unconverged, flags = _per_path(model, chart, x0, cfg, p)
        assert (r.exited, r.exploded, r.exit_step) == flags
        assert r.xs.shape == xs.shape
        np.testing.assert_allclose(r.xs, xs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(r.coupled_err, err, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(r.dist, dist, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(r.unconverged, unconverged)
    return rec


def test_batched_transport_matches_per_path():
    cfg_dict = load_config("ito_translation_d1")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.05, dt=1e-3, paths=4, seed=2024)
    rec = _assert_matches_per_path(model, chart, [0.2], cfg)
    assert rec.summary["n_exited"] == 0 and rec.summary["n_exploded"] == 0


def test_batched_grid_span_with_exits_and_explosions_matches_per_path():
    m = 16
    s1, s2 = sine_mode(m, 1), sine_mode(m, 2)
    model = PLaplaceModel(2.0, m, fields=(s1 * 3.0, s2 * 0.5))
    chart = linear_span_chart([s1, s2], [[0.2, 2.0], [-2.0, 2.0]])
    cfg = SimConfig(horizon=0.1, dt=1e-3, paths=8, seed=3, explosion_ceiling=1.5)
    rec = _assert_matches_per_path(model, chart, [1.0, 0.5], cfg)
    exploded = [r.exploded for r in rec.records]
    exited = [r.exited for r in rec.records]
    # the ensemble mixes paths that explode, leave the chart, and finish
    assert any(exploded) and any(exited)
    assert not all(a or b for a, b in zip(exploded, exited))
    assert len({r.exit_step for r in rec.records}) > 2


class _SingleStateModel:
    """A transport model seen only through the single-state protocol."""

    def __init__(self, inner):
        self.inner = inner
        self.geometry = inner.geometry
        self.n_noise = inner.n_noise

    def drift(self, y):
        assert not y.batch
        return self.inner.drift(y)

    def diffusion(self, y):
        assert not y.batch
        return self.inner.diffusion(y)


def test_single_state_model_and_chart_run_row_by_row():
    model, chart = transport_setup(16)
    profile = SpectralState.basis([0], 16)

    def shifted(x):
        assert np.shape(x) == (1,)
        return translate(profile, float(x[0]))

    plain_chart = Parametrization(
        m=1,
        domain=[[-2.0, 2.0]],
        eval=shifted,
        jac=lambda x: [-derivative(shifted(x))],
        hess=lambda x: [[second_derivative(shifted(x))]],
    )
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=3, seed=12)
    want = coupled_compare(model, chart, [0.2], cfg)
    got = coupled_compare(_SingleStateModel(model), plain_chart, [0.2], cfg)
    for a, b in zip(want.records, got.records):
        np.testing.assert_allclose(b.xs, a.xs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(b.coupled_err, a.coupled_err, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(b.dist, a.dist, rtol=0.0, atol=1e-12)


def test_ensemble_increments_are_the_per_path_tables():
    table = wiener_increments(42, [0, 3, 5], 6, 2, 1e-3)
    assert table.shape == (3, 6, 2)
    for row, p in zip(table, (0, 3, 5)):
        np.testing.assert_array_equal(row, wiener_increments(42, p, 6, 2, 1e-3))


def test_increments_match_a_fresh_generator_per_entry():
    table = wiener_increments(2024, 3, 4, 2, 1e-3)
    for step in range(4):
        for j in range(2):
            bits = np.random.Philox(key=2024, counter=[0, 3, step, j])
            want = np.random.Generator(bits).standard_normal() * np.sqrt(1e-3)
            assert table[step, j] == want


def test_unconverged_distance_solves_are_flagged_and_counted(monkeypatch):
    from spde_manifold import simulate

    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.02, dt=1e-3, paths=2, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    assert rec.summary["n_unconverged_distance"] == 0
    assert not any(r.unconverged.any() for r in rec.records)

    # one Gauss-Newton iteration cannot confirm convergence once the
    # full state has moved off the warm start
    capped = functools.partial(distance_to_manifold, max_iter=1)
    monkeypatch.setattr(simulate, "distance_to_manifold", capped)
    rec = coupled_compare(model, chart, [0.2], cfg)
    flagged = sum(int(r.unconverged.sum()) for r in rec.records)
    assert flagged > 0
    assert rec.summary["n_unconverged_distance"] == flagged
    assert all(not r.unconverged[0] for r in rec.records)  # starts on the chart


def test_summary_reports_the_ensemble_spill():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    y0 = chart.eval(np.array([0.2]))
    spills = [simulate_full(model, y0, cfg, p).max_spill for p in range(2)]
    assert rec.summary["max_spill"] == pytest.approx(max(spills), rel=1e-12)
    assert rec.summary["max_spill"] > 0.0
