"""Noise streams, Milstein paths in both spaces, and the coupled comparison."""

import csv
import functools
import io
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

from spde_manifold import (
    Parametrization,
    SimConfig,
    build_manifold,
    build_model,
    coupled_compare,
    linear_span_chart,
    load_config,
    translation_chart,
)
from spde_manifold.cli import _write_csv
from spde_manifold.geometry import GridGeometry, HermiteGeometry
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.hermite import (
    DualField,
    SpectralState,
    derivative,
    order_grid,
    pair,
    second_derivative,
)
from spde_manifold.manifold import distance_to_manifold, jacobian, rank_deficient
from spde_manifold.models import ItoTypeModel, PLaplaceModel
from spde_manifold.simulate import (
    DIST_SEED_POINTS,
    SETTLE_STEPS,
    TABLE_FIRST_NODES,
    ReducedTableError,
    reduced_table,
    simulate_full,
    simulate_reduced,
    wiener_increments,
)
from spde_manifold.tangency import SamplingSpec, reduced_coefficients, sample_points


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
    a = wiener_increments(42, [3], 6, 2, 1e-3)[0]
    b = wiener_increments(42, [3], 6, 2, 1e-3)[0]
    np.testing.assert_array_equal(a, b)
    assert a.shape == (6, 2)


def test_increments_distinct_across_seeds_and_paths():
    base = wiener_increments(42, [0], 6, 1, 1e-3)[0]
    assert not np.array_equal(base, wiener_increments(43, [0], 6, 1, 1e-3)[0])
    assert not np.array_equal(base, wiener_increments(42, [1], 6, 1, 1e-3)[0])


def test_increments_stable_under_horizon_extension():
    short = wiener_increments(7, [0], 5, 2, 1e-3)[0]
    long = wiener_increments(7, [0], 10, 2, 1e-3)[0]
    np.testing.assert_array_equal(long[:5], short)


def test_increments_stable_under_component_extension():
    few = wiener_increments(7, [0], 5, 2, 1e-3)[0]
    more = wiener_increments(7, [0], 5, 3, 1e-3)[0]
    np.testing.assert_array_equal(more[:, :2], few)


def test_increment_variance_scales_with_dt():
    dt = 1e-3
    w = wiener_increments(7, [0], 2000, 2, dt)[0]
    assert (w**2).mean() / dt == pytest.approx(1.0, abs=0.1)


@pytest.mark.parametrize(
    "paths",
    [1, np.int64(1), [[0, 1]], [True], np.array([1, 0], dtype=bool), [0, True], [1.5], [1.0], [-1], []],
    ids=["scalar", "numpy scalar", "2-D", "bool", "bool array", "bool among ints", "float",
         "whole float", "negative", "empty"],
)
def test_path_indices_other_than_non_negative_integers_are_rejected(paths):
    # an index keys the Philox counter: 1.5 and True would key the stream of path 1
    model, chart = zero_noise_setup()
    cfg = SimConfig(horizon=2e-3, dt=1e-3, seed=42)
    incr = np.zeros((np.size(paths), cfg.n_steps, model.n_noise))
    for run in (
        lambda: wiener_increments(42, paths, 2, 1, 1e-3),
        lambda: simulate_full(model, chart.eval(np.array([0.0])), cfg, paths),
        lambda: simulate_reduced(model, chart, [0.0], cfg, paths),
        lambda: simulate_reduced(model, chart, [0.0], cfg, paths, incr),
    ):
        with pytest.raises(ValueError, match="^paths must be a 1-D sequence of non-negative integers"):
            run()
    # the indices that remain key their own streams, in any integer type
    path_1 = wiener_increments(42, [1], 2, 1, 1e-3)
    as_uint8 = wiener_increments(42, np.array([1], dtype=np.uint8), 2, 1, 1e-3)
    np.testing.assert_array_equal(as_uint8, path_1)
    assert not np.array_equal(wiener_increments(42, [0], 2, 1, 1e-3), path_1)


@pytest.mark.parametrize(
    "case, shape",
    [
        ("more paths", (3, 5, 1)),
        ("too short", (2, 4, 1)),
        ("too long", (2, 6, 1)),
        ("more noise", (2, 5, 2)),
    ],
)
def test_runs_reject_an_increment_table_of_another_shape_before_any_work(case, shape, monkeypatch):
    from spde_manifold import simulate

    def no_work(*args, **kwargs):
        raise AssertionError("the run started before checking its increments")

    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=2, seed=4)
    incr = wiener_increments(cfg.seed, np.arange(shape[0]), shape[1], shape[2], cfg.dt)
    monkeypatch.setattr(simulate, "reduced_table", no_work)
    monkeypatch.setattr(ItoTypeModel, "step_sum", no_work)
    y0 = chart.eval(np.array([0.2]))
    for run in (
        lambda: simulate_full(model, y0, cfg, [0, 1], incr),
        lambda: simulate_reduced(model, chart, [0.2], cfg, [0, 1], incr),
    ):
        want = re.escape(f"increments must have shape (2, 5, 1), got {shape}")
        with pytest.raises(ValueError, match="^" + want):
            run()


def test_config_rejects_subsize_horizon():
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(horizon=1e-4, dt=1e-3).n_steps
    with pytest.raises(ValueError, match="overflows the step count"):
        SimConfig(horizon=1e300, dt=1e-300)


@pytest.mark.parametrize(
    "horizon, dt", [(float("inf"), 1e-3), (0.1, float("nan")), (0.1, 0.0), (-0.1, 1e-3)]
)
def test_config_rejects_non_finite_or_non_positive_steps(horizon, dt):
    with pytest.raises(ValueError, match="must be finite and positive"):
        SimConfig(horizon=horizon, dt=dt)


@pytest.mark.parametrize("ceiling", [0.0, -1.0, float("nan")])
def test_config_rejects_non_positive_explosion_ceiling(ceiling):
    with pytest.raises(ValueError, match="explosion_ceiling"):
        SimConfig(explosion_ceiling=ceiling)


@pytest.mark.parametrize("paths", [0, -1, 2.5, "4", True])
def test_config_rejects_a_path_count_that_is_not_a_positive_integer(paths):
    with pytest.raises(ValueError, match="^paths must be an integer of at least 1"):
        SimConfig(horizon=0.01, dt=1e-3, paths=paths)
    assert SimConfig(paths=np.int64(3)).paths == 3


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), True, "4"])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 would key the Philox stream of seed 1, True that of seed 1
    with pytest.raises(ValueError, match="^seed must be an integer"):
        SimConfig(horizon=0.01, dt=1e-3, seed=seed)
    assert SimConfig(seed=np.int64(3)).seed == 3


def test_coupled_compare_rejects_zero_paths_before_simulating():
    model, chart = zero_noise_setup()
    with pytest.raises(ValueError, match="^paths must be"):
        coupled_compare(model, chart, [0.0], SimConfig(horizon=0.01, dt=1e-3, paths=0))


# -- full-space paths ----------------------------------------------------------------


def test_full_path_constant_without_dynamics():
    model, _ = zero_noise_setup()
    y0 = SpectralState.basis([0], 16) * 0.3
    cfg = SimConfig(horizon=0.01, dt=1e-3, seed=1)
    path = simulate_full(model, y0, cfg, [0])
    assert len(path.states) == 11
    assert not path.exploded[0] and path.exit_step[0] == cfg.n_steps
    for st in path.states:
        np.testing.assert_array_equal(st.rows(0).coeffs, y0.coeffs)
    assert path.max_spill[0] == 0.0


def test_full_path_single_step_hand_check():
    m = 8
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1),))
    y0 = sine_mode(m, 2) * 0.5
    cfg = SimConfig(horizon=1e-3, dt=1e-3, seed=3)
    dw = wiener_increments(3, [0], 1, 1, 1e-3)[0, 0, 0]
    path = simulate_full(model, y0, cfg, [0])
    # the field is constant, so the Milstein term 1/2 DA[A] (dW^2 - dt) vanishes
    want = (
        y0.values * (1.0 + laplace_eigenvalue(m, 2) * 1e-3)
        + sine_mode(m, 1).values * dw
    )
    np.testing.assert_allclose(path.states[1].rows(0).values, want, rtol=1e-14)


def test_full_path_geometric_decay_on_eigenvector():
    m = 16
    model = PLaplaceModel(2.0, m)
    y0 = sine_mode(m, 1)
    steps = 10
    cfg = SimConfig(horizon=steps * 1e-3, dt=1e-3, seed=0)
    path = simulate_full(model, y0, cfg, [0])
    factor = (1.0 + laplace_eigenvalue(m, 1) * 1e-3) ** steps
    np.testing.assert_allclose(path.states[-1].rows(0).values, factor * y0.values, rtol=1e-12)


def test_full_path_explosion_freezes_trajectory():
    m = 64
    model = PLaplaceModel(2.0, m)
    y0 = sine_mode(m, m) * 1e-8
    cfg = SimConfig(horizon=0.03, dt=1e-3, seed=0)
    path = simulate_full(model, y0, cfg, [0])

    # pure stiff-mode growth rate is exact, so the exit step is predictable
    amp = abs(1.0 + laplace_eigenvalue(m, m) * cfg.dt)
    norm, expected_exit = GridGeometry(m).norm_mid(y0), 0
    while norm <= cfg.explosion_ceiling:
        norm *= amp
        expected_exit += 1

    assert path.exploded[0]
    assert path.exit_step[0] == expected_exit
    assert len(path.states) == expected_exit + 1
    assert len(path.times) == expected_exit + 1


# -- reduced paths ----------------------------------------------------------------------


def _exact_coefficients(model, chart, x):
    return reduced_coefficients(model, chart, jacobian(chart, x, model.geometry))


def test_reduced_path_single_step_hand_check():
    # Milstein: x + beta dt + a dW + (a' a / 2) (dW^2 - dt), with a' a central
    # difference of the exact coefficient, good to about 1e-10 at this step
    model, chart = transport_setup(24)
    x0, h = np.array([0.2]), 1e-5
    cfg = SimConfig(horizon=1e-3, dt=1e-3, seed=9)
    a, beta = _exact_coefficients(model, chart, x0)
    up, down = (_exact_coefficients(model, chart, x0 + s)[0] for s in (h, -h))
    slope = (up - down)[0, 0] / (2 * h)
    dw = wiener_increments(9, [0], 1, 1, 1e-3)[0, 0]
    path = simulate_reduced(model, chart, x0, cfg, [0])
    milstein = 0.5 * slope * a[0, 0] * (dw @ dw - 1e-3)
    assert abs(milstein) > 1e-6  # a term the check resolves
    np.testing.assert_allclose(path.xs[1, 0], x0 + beta * 1e-3 + a.T @ dw + milstein, atol=1e-12)
    assert not path.exited[0]


def test_reduced_path_exits_chart_domain():
    m = 16
    model = PLaplaceModel(2.0, m)
    chart = linear_span_chart([sine_mode(m, 1)], [[0.9, 2.0]])
    cfg = SimConfig(horizon=0.05, dt=1e-3, seed=0)
    path = simulate_reduced(model, chart, [1.0], cfg, [0])

    lam = laplace_eigenvalue(m, 1)
    x, expected_exit = 1.0, 0
    while x >= 0.9:
        x *= 1.0 + lam * cfg.dt
        expected_exit += 1

    assert path.exited[0]
    assert path.exit_step[0] == expected_exit
    assert len(path.xs) == expected_exit + 1
    assert len(path.times) == len(path.xs)
    assert path.xs[-1, 0, 0] < 0.9 <= path.xs[-2, 0, 0]


def test_reduced_path_stops_where_its_frame_degenerates():
    # x -> x^2 v loses rank at the origin: the path started there stops at
    # step 0, and the other path runs on exactly as it does alone
    m = 8
    v = sine_mode(m, 1)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    model = PLaplaceModel(2.0, m)
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=2, seed=0)
    both = simulate_reduced(model, chart, [[0.5], [0.0]], cfg, [0, 1])
    alone = simulate_reduced(model, chart, [0.5], cfg, [0])
    assert not both.table.certified  # the rank test runs at every step
    assert list(both.exited) == [False, True]
    assert list(both.exit_step) == [cfg.n_steps, 0]
    np.testing.assert_array_equal(both.xs[:, 0], alone.xs[:, 0])
    assert not alone.exited[0]


# -- the reduced coefficient table -----------------------------------------------------


@pytest.mark.parametrize("preset", ["ito_translation_d1", "ito_translation_d1_negative"])
def test_reduced_table_matches_the_exact_coefficients(preset):
    cfg = load_config(preset)
    model, chart = build_model(cfg), build_manifold(cfg)
    table = reduced_table(model, chart)
    x = np.linspace(*chart.domain[0], 1001)[:, None]
    frame = jacobian(chart, x, model.geometry)
    a, beta = reduced_coefficients(model, chart, frame)
    got_a, got_beta, cols = table(x)
    assert np.abs(got_a - a).max() <= 1e-12
    assert np.abs(got_beta - beta).max() <= 1e-12
    assert np.abs(cols - frame.weighted).max() <= 1e-12
    assert table.nodes == {"ito_translation_d1": 32, "ito_translation_d1_negative": 64}[preset]


def test_reduced_table_is_contiguous_and_reads_each_row_alone():
    cfg = load_config("ito_translation_d1_negative")
    model, chart = build_model(cfg), build_manifold(cfg)
    table = reduced_table(model, chart)
    assert table.coeffs.flags.c_contiguous
    x = np.array([[-1.9], [-0.4], [0.2], [1.7]])
    four = table(x)
    for k in range(x.shape[0]):
        for got, want in zip(table(x[k : k + 1]), four):
            np.testing.assert_array_equal(got[0], want[k])


def test_reduced_table_rejects_coefficients_that_are_not_smooth():
    # p = 3 on the span of one sine mode: beta is proportional to |x| x
    model = PLaplaceModel(3.0, 16)
    chart = linear_span_chart([sine_mode(16, 1)], [[-1.0, 1.0]])
    with pytest.raises(ReducedTableError, match="not smooth enough"):
        reduced_table(model, chart)


def test_reduced_table_of_many_coordinates_starts_within_its_node_budget():
    # p = 2 on the span of five sine modes: every coefficient is at most linear,
    # so 4 nodes per axis (1024 in all) resolve it
    model = PLaplaceModel(2.0, 16, (sine_mode(16, 1),))
    chart = linear_span_chart([sine_mode(16, k) for k in range(1, 6)], [[-1.0, 1.0]] * 5)
    table = reduced_table(model, chart)
    assert table.nodes == 4**5
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 5))
    a, beta = reduced_coefficients(model, chart, jacobian(chart, x, model.geometry))
    got_a, got_beta, _ = table(x)
    assert np.abs(got_a - a).max() <= 1e-12 and np.abs(got_beta - beta).max() <= 1e-12

    # seven coordinates need 4**7 nodes even at 4 per axis
    chart = linear_span_chart([sine_mode(16, k) for k in range(1, 8)], [[-1.0, 1.0]] * 7)
    with pytest.raises(ReducedTableError, match="7 coordinates need 16384 table nodes"):
        reduced_table(model, chart)


@pytest.mark.parametrize("x0", [[3.0], [-2.5], [float("nan")]])
def test_reduced_run_rejects_a_start_outside_the_chart_box(x0):
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=4e-3, dt=1e-3, paths=2, seed=0)
    with pytest.raises(ValueError, match=r"x0 must lie in the chart box"):
        simulate_reduced(model, chart, x0, cfg, [0, 1])
    with pytest.raises(ValueError, match=r"x0 must lie in the chart box"):
        coupled_compare(model, chart, x0, cfg)


def test_reduced_table_rejects_a_frame_degenerate_at_a_node():
    m = 8
    v = sine_mode(m, 1)
    node = np.cos(np.pi / (2 * TABLE_FIRST_NODES))  # a node of the first table on [-1, 1]
    chart = Parametrization(
        m=1,
        domain=[[-1.0, 1.0]],
        eval=lambda x: v * x[..., 0],
        jac=lambda x: [v * (np.abs(x[..., 0] - node) > 1e-9).astype(float)],
    )
    with pytest.raises(ReducedTableError, match="degenerates at a table node"):
        reduced_table(PLaplaceModel(2.0, m), chart)


def test_reduced_run_calls_reduced_coefficients_only_for_its_table(monkeypatch):
    from spde_manifold import simulate

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].x.shape[0])
        return reduced_coefficients(*args, **kwargs)

    monkeypatch.setattr(simulate, "reduced_coefficients", counted)
    model, chart = transport_setup(24)
    reduced_table(model, chart)
    build = list(calls)
    assert build  # one call per row block of nodes
    for horizon in (2e-3, 5e-2):
        calls.clear()
        cfg = SimConfig(horizon=horizon, dt=1e-3, paths=3, seed=4)
        path = simulate_reduced(model, chart, [0.2], cfg, [0, 1, 2])
        assert not path.exited.any() and len(path.xs) == cfg.n_steps + 1
        assert calls == build


def test_summary_counts_degenerate_frame_exits_apart():
    m = 8
    v = sine_mode(m, 1)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=2, seed=0, record_distance=False)
    rec = coupled_compare(PLaplaceModel(2.0, m), chart, [0.0], cfg)
    assert rec.summary["n_degenerate_frame"] == rec.summary["n_exited"] == 2
    assert (rec.exit_step == 0).all()
    assert rec.summary["reduced_table_certified"] is False

    # a path that leaves the box exits without a degenerate frame
    chart = linear_span_chart([sine_mode(16, 1)], [[0.9, 2.0]])
    cfg = SimConfig(horizon=0.05, dt=1e-3, paths=1, seed=0, record_distance=False)
    rec = coupled_compare(PLaplaceModel(2.0, 16), chart, [1.0], cfg)
    assert rec.summary["n_exited"] == 1 and rec.summary["n_degenerate_frame"] == 0
    assert rec.summary["reduced_table_nodes"] == TABLE_FIRST_NODES
    assert rec.summary["reduced_table_certified"] is True


def _box_chart(box, n=24):
    """The transport model of ``transport_setup`` on a translation chart of the box [-box, box]."""
    model, _ = transport_setup(n)
    return model, translation_chart(SpectralState.basis([0], n), [[-box, box]])


def test_certified_and_uncertified_tables_step_the_same_ensemble(monkeypatch):
    from spde_manifold import simulate

    model, chart = _box_chart(0.3)
    cfg = SimConfig(horizon=0.1, dt=1e-3, paths=8, seed=3)
    paths = np.arange(cfg.paths)
    certified = simulate_reduced(model, chart, [0.2], cfg, paths)
    monkeypatch.setattr(simulate, "_certified", lambda cols: False)
    checked = simulate_reduced(model, chart, [0.2], cfg, paths)
    assert certified.table.certified and not checked.table.certified
    for got, want in zip(
        (certified.times, certified.xs, certified.exited, certified.degenerate),
        (checked.times, checked.xs, checked.exited, checked.degenerate),
    ):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(certified.exit_step, checked.exit_step)
    exits = certified.exit_step[certified.exited].tolist()
    assert 1 < len(exits) < cfg.paths and len(set(exits)) > 2  # several box exits, some finish
    assert not certified.degenerate.any()


def _square_chart(m, domain=(-1.0, 1.0)):
    v = sine_mode(m, 1)
    return Parametrization(m=1, domain=[domain], eval=lambda x: v * x[..., 0] ** 2)


@pytest.mark.parametrize("case, certified", [("span", True), ("translation", True), ("square", False)])
def test_a_certified_table_has_no_rank_deficient_point_in_its_box(case, certified):
    if case == "translation":
        model, chart = _box_chart(0.3)
    else:
        model = PLaplaceModel(2.0, 8)
        chart = linear_span_chart([sine_mode(8, 1)], [[-1.0, 1.0]]) if case == "span" else _square_chart(8)
    table = reduced_table(model, chart)
    assert table.certified == certified
    x = np.linspace(*chart.domain[0], 20001)[:, None]
    cols = table(x)[2]
    # the certificate holds on a dense sample; the x^2 chart's column vanishes at the origin
    assert rank_deficient(np.sqrt((cols * cols).sum(-2))).any() != certified


@pytest.mark.parametrize("preset", ["heat_equation", "ito_translation_d1", "ito_translation_d1_negative"])
def test_table_coefficients_are_the_full_tables_values(preset):
    # the step table's increment is the Milstein step of the full table's a and beta,
    # x + beta dt + a dW + 1/2 sum_jk (Da_k) a_j (dW_j dW_k - delta_jk dt), with Da a
    # central difference of the table's a (error about 1e-10, times dW^2 ~ 1e-3);
    # heat_equation has no noise: its increment is beta dt alone
    cfg = load_config(preset)
    model, chart = build_model(cfg), build_manifold(cfg)
    table = reduced_table(model, chart)
    dt, h = 1e-3, 1e-6
    rng = np.random.default_rng(5)
    for rows in (1, 3, 64):
        x = np.linspace(*chart.domain[0] * (1.0 - 1e-5), rows)[:, None]
        a, beta, _ = table(x)
        slope = (table(x + h)[0] - table(x - h)[0]) / (2 * h)  # (P, n_noise, 1)
        dw = rng.standard_normal((rows, model.n_noise)) * np.sqrt(dt)
        h_jk = dw[:, :, None] * dw[:, None, :] - dt * np.eye(model.n_noise)
        want = x + beta * dt + (dw[:, None, :] @ a)[:, 0]
        want += 0.5 * np.einsum("pk,pj,pjk->p", slope[..., 0], a[..., 0], h_jk)[:, None]
        pairs = (dw[:, :, None] * dw[:, None, :]).reshape(rows, -1)
        monomials = np.concatenate([np.full((rows, 1), dt), dw, pairs], axis=1)
        got = x + table.increment(table.basis(x), monomials)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def _reference_reduced(model, chart, x0, cfg, incr):
    """The reduced loop one step at a time: the rank test and the box test on every
    live path at every step, the live paths gathered at every step, each step the
    table's Milstein increment (``ReducedTable.increment``) of its monomials dt,
    dW_j and dW_j dW_k, or Euler's dt and dW_j for a model without the noise
    derivative."""
    table = reduced_table(model, chart)
    n_steps, m = cfg.n_steps, chart.m
    noise = np.swapaxes(incr, 0, 1)
    parts = [np.full(noise.shape[:-1] + (1,), cfg.dt), noise]
    if hasattr(model, "diffusion_derivative"):
        parts.append((noise[..., :, None] * noise[..., None, :]).reshape(noise.shape[:-1] + (-1,)))
    monomials = np.concatenate(parts, axis=-1)
    n_paths = incr.shape[0]
    xs = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, m)))
    traj = np.empty((n_steps + 1,) + xs.shape)
    traj[0] = xs
    exited = np.zeros(n_paths, dtype=bool)
    degenerate = np.zeros(n_paths, dtype=bool)
    exit_step = np.full(n_paths, n_steps)
    live = np.arange(n_paths)
    done = 0
    for step in range(n_steps):
        cols = table(xs[live])[2]
        sv = np.sqrt((cols * cols).sum(-2)) if m == 1 else np.linalg.svd(cols, compute_uv=False)
        bad = rank_deficient(sv)
        for k in live[bad]:
            exited[k], degenerate[k], exit_step[k] = True, True, step
        live = live[~bad]
        if not live.size:
            break
        xs[live] = xs[live] + table.increment(table.basis(xs[live]), monomials[step, live])
        traj[step + 1] = xs
        done = step + 1
        out = ~chart.contains(xs[live])
        for k in live[out]:
            exited[k], exit_step[k] = True, step + 1
        live = live[~out]
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)[: done + 1]
    return times, traj[: done + 1], exited, exit_step, degenerate


def _reduced_mix(case):
    """(model, chart, x0 per path, cfg) of ensembles whose 3 paths stop in different ways."""
    m = 8
    v, w = sine_mode(m, 1), sine_mode(m, 2)
    lam = laplace_eigenvalue(m, 1)
    if case == "certified":
        # decay with noise on the span of one mode: one path leaves the box in the third
        # settling chunk, two run to the end (seed 16: at seed 0 the per-stream noise
        # table takes two paths out)
        model = PLaplaceModel(2.0, 16, fields=(sine_mode(16, 1) * 0.5,))
        chart = linear_span_chart([sine_mode(16, 1)], [[0.3, 2.0]])
        return model, chart, [[1.0]] * 3, SimConfig(horizon=0.1, dt=1e-3, paths=3, seed=16)
    if case == "square":
        # x -> x^2 v with reduced drift lambda x / 2 at a step that multiplies x by -1.05:
        # a box exit after the first chunk, a degenerate frame at the origin, a path that finishes
        dt = 2.0 * 2.05 / -lam
        cfg = SimConfig(horizon=40 * dt, dt=dt, paths=3, seed=0)
        return PLaplaceModel(2.0, m), _square_chart(m), [[0.2], [0.0], [0.02]], cfg
    if case == "edge":
        # on [0, 1] the table's beta at the origin is a rounding error below zero: the
        # path started there has a degenerate frame, and stepped anyway it would leave
        # the box at the same step; the frame comes first
        cfg = SimConfig(horizon=0.04, dt=1e-3, paths=3, seed=0)
        return PLaplaceModel(2.0, m), _square_chart(m, (0.0, 1.0)), [[0.0], [0.5], [0.9]], cfg
    # x -> x^2 v + x^3 w at a step that draws paths to within 1e-10 of the origin, where
    # the frame degenerates: at step 0, late in the first settling chunk, and at the first
    # step of the second
    chart = Parametrization(
        m=1,
        domain=[[-1.0, 1.0]],
        eval=lambda x: v * x[..., 0] ** 2 + w * x[..., 0] ** 3,
        jac=lambda x: [v * (2.0 * x[..., 0]) + w * (3.0 * x[..., 0] ** 2)],
    )
    dt = -1.0 / lam
    return PLaplaceModel(2.0, m), chart, [[0.3], [0.0], [0.9]], SimConfig(horizon=70 * dt, dt=dt, paths=3, seed=0)


@pytest.mark.parametrize("case", ["certified", "square", "edge", "cubic"])
def test_reduced_run_matches_the_per_step_reference_loop(case):
    model, chart, x0, cfg = _reduced_mix(case)
    paths = np.arange(cfg.paths)
    incr = wiener_increments(cfg.seed, paths, cfg.n_steps, model.n_noise, cfg.dt)
    got = simulate_reduced(model, chart, x0, cfg, paths, incr)
    times, xs, exited, exit_step, degenerate = _reference_reduced(model, chart, x0, cfg, incr)
    assert got.table.certified == (case == "certified")
    np.testing.assert_array_equal(got.times, times)
    np.testing.assert_array_equal(got.xs, xs)
    np.testing.assert_array_equal(got.exited, exited)
    np.testing.assert_array_equal(got.degenerate, degenerate)
    np.testing.assert_array_equal(got.exit_step, exit_step)
    n = cfg.n_steps
    assert n > SETTLE_STEPS
    stops = {
        "certified": [n, 91, n],
        "square": [33, 0, n],
        "edge": [0, n, n],
        "cubic": [32, 0, 29],
    }[case]
    assert exit_step.tolist() == stops
    for p in paths:  # each path alone
        one = simulate_reduced(model, chart, x0[p], cfg, [p], incr[p : p + 1])
        times, xs, exited, exit_step, degenerate = _reference_reduced(
            model, chart, x0[p], cfg, incr[p : p + 1]
        )
        np.testing.assert_array_equal(one.times, times)
        np.testing.assert_array_equal(one.xs[:, 0], xs[:, 0])
        flags = (one.exited[0], one.exit_step[0], one.degenerate[0])
        assert flags == (exited[0], exit_step[0], degenerate[0])


# -- strong order ------------------------------------------------------------------------


class _EulerOnly:
    """A model seen through ``drift`` and ``diffusion`` alone: both runs take Euler's step."""

    def __init__(self, model):
        self.geometry, self.n_noise = model.geometry, model.n_noise
        self.drift, self.diffusion = model.drift, model.diffusion


def _halving_factor(model, chart, run, seed=2, paths=32, horizon=0.128, dt=8e-3):
    """Mean strong error at the horizon of runs at dt and dt / 2 against a run at
    dt / 16, on coarse increments summed from the fine run's table: their ratio."""
    fine_dt, p = dt / 16, np.arange(paths)
    n_fine = int(round(horizon / fine_dt))
    fine = wiener_increments(seed, p, n_fine, model.n_noise, fine_dt)
    x0 = np.array([0.2])

    def end(k):  # steps of k fine steps each, on their summed increments
        incr = fine.reshape(paths, n_fine // k, k, model.n_noise).sum(2)
        cfg = SimConfig(horizon=horizon, dt=fine_dt * k, paths=paths)
        if run == "full":
            return simulate_full(model, chart.eval(x0), cfg, p, increments=incr).ys[-1]
        return simulate_reduced(model, chart, x0, cfg, p, increments=incr).xs[-1]

    reference = end(1)
    coarse, half = (np.sqrt(((end(k) - reference) ** 2).sum(-1)).mean() for k in (16, 8))
    return coarse / half


@pytest.mark.parametrize("run", ["full", "reduced"])
def test_strong_error_halves_with_the_step_under_commutative_noise(run):
    # ito_translation_d1 has one noise component, so its noise commutes and the
    # Milstein step has strong order 1: the error halves with the step; Euler's
    # (order 1/2, about 1.41 per halving) reads 1.38 and 1.53 here
    cfg = load_config("ito_translation_d1")
    model, chart = build_model(cfg), build_manifold(cfg)
    assert 1.6 <= _halving_factor(model, chart, run) <= 2.5
    assert _halving_factor(_EulerOnly(model), chart, run) < 1.6


# -- coupled comparison -------------------------------------------------------------------


def test_coupled_zero_dynamics_is_exact():
    model, chart = zero_noise_setup()
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=1)
    rec = coupled_compare(model, chart, [0.0], cfg)
    assert rec.summary["paths"] == 2
    assert rec.summary["max_coupled_err"] == 0.0
    assert rec.summary["max_distance"] <= 1e-12
    assert rec.summary["n_exited"] == 0
    assert rec.summary["n_exploded"] == 0


def test_coupled_distance_can_be_skipped():
    model, chart = zero_noise_setup()
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=1, seed=1, record_distance=False)
    rec = coupled_compare(model, chart, [0.0], cfg)
    assert rec.summary["max_distance"] is None
    assert np.isnan(rec.dist[:, 0]).all()


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


@pytest.mark.parametrize("record_distance", [True, False])
def test_trajectory_csv_cells_parse_back_to_the_record(record_distance):
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=4e-3, dt=1e-3, paths=2, seed=12, record_distance=record_distance)
    rec = coupled_compare(model, chart, [0.2], cfg)
    header, rows = rec.to_csv_rows()
    cells = np.array([[float(c) for c in row] for row in rows])
    want = np.concatenate([
        np.column_stack([
            np.full(n, p), np.arange(n),
            rec.times[:n], rec.xs[:n, p], rec.dist[:n, p], rec.coupled_err[:n, p],
        ])
        for p, n in enumerate(rec.recorded)
    ])
    np.testing.assert_array_equal(cells, want)  # NaN distances read back as NaN
    assert np.isnan(cells[:, -2]).all() != record_distance


# -- batched ensemble against per-path runs -------------------------------------------


def _per_path(model, chart, x0, cfg, p):
    """One path of the coupled comparison, run as an ensemble of that path alone
    with one distance solve per recorded step."""
    incr = wiener_increments(cfg.seed, [p], cfg.n_steps, model.n_noise, cfg.dt)
    reduced = simulate_reduced(model, chart, x0, cfg, [p], incr)
    full = simulate_full(model, chart.eval(np.asarray(x0, dtype=float)), cfg, [p], incr)
    geo = model.geometry
    n_rec = min(len(reduced.times), len(full.times))
    err = np.zeros(n_rec)
    dist = np.full(n_rec, np.nan)
    unconverged = np.zeros(n_rec, dtype=bool)
    per_axis = round(DIST_SEED_POINTS ** (1.0 / min(chart.m, 2)))
    seeds = sample_points(SamplingSpec(per_axis, margin_frac=0.0), chart.domain)
    images = chart.eval(seeds)
    for step in range(n_rec):
        y = full.states[step]  # a one-row batch
        err[step] = geo.norm_diff(y, chart.eval(reduced.xs[step]))[0]
        if cfg.record_distance:
            # start from the nearest seed image when it is closer than the reduced coordinate's
            gaps = geo.norm_diff(y.rows(0), images)
            near = int(np.argmin(gaps))
            start = seeds[near] if gaps[near] < err[step] else reduced.xs[step, 0]
            res = distance_to_manifold(chart, y, start, geo, step_tol=1e-5)
            dist[step] = res.distance[0]
            unconverged[step] = not res.converged
    exit_step = reduced.exit_step[0] if reduced.exited[0] else full.exit_step[0]
    flags = (reduced.exited[0], full.exploded[0], exit_step)
    return reduced.xs[:n_rec, 0], err, dist, unconverged, flags


def _assert_matches_per_path(model, chart, x0, cfg, dist_atol=1e-12):
    """The batched run against one solve per row of each path; distances
    are compared on the rows whose solve converged."""
    rec = coupled_compare(model, chart, x0, cfg)
    assert len(rec.recorded) == cfg.paths
    for p, n in enumerate(rec.recorded):
        xs, err, dist, unconverged, flags = _per_path(model, chart, x0, cfg, p)
        assert (rec.exited[p], rec.exploded[p], rec.exit_step[p]) == flags
        assert n == len(xs)  # the rows the path records alone
        assert rec.xs[:n, p].shape == xs.shape
        np.testing.assert_allclose(rec.xs[:n, p], xs, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rec.coupled_err[:n, p], err, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(rec.unconverged[:n, p], unconverged)
        got = rec.dist[:n, p]
        np.testing.assert_allclose(got[~unconverged], dist[~unconverged], rtol=0.0, atol=dist_atol)
    return rec


def test_batched_transport_matches_per_path():
    cfg_dict = load_config("ito_translation_d1")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.05, dt=1e-3, paths=4, seed=2024)
    rec = _assert_matches_per_path(model, chart, [0.2], cfg)
    assert rec.summary["n_exited"] == 0 and rec.summary["n_exploded"] == 0


@pytest.mark.parametrize("seed", [2, 3, 6])
def test_batched_off_chart_distances_match_per_row_solves(seed):
    # off the chart the distance has several local minima, so the block
    # solve must pick each row's start as one row alone would, not only
    # meet its tolerance; with Newton steps every row converges, where
    # Gauss-Newton alone left 12 rows of seed 2 at the iteration cap after
    # 4998 path-iterations
    cfg_dict = load_config("ito_translation_d1_negative")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.25, dt=1e-3, paths=4, seed=seed)
    rec = _assert_matches_per_path(model, chart, [0.2], cfg, dist_atol=1e-10)
    assert rec.summary["distance_seeded_starts"] > 0
    assert rec.summary["n_unconverged_distance"] == 0
    assert rec.summary["distance_newton_steps"] > 0
    if seed == 2:
        assert rec.summary["distance_iterations"] < 3500


@pytest.mark.parametrize("seed", [1, 2])
def test_off_chart_distances_lie_below_a_dense_scan_of_the_box(seed):
    # no converged row may end in a local minimum above the distance to
    # the nearest of 4001 chart images spread over the box
    cfg_dict = load_config("ito_translation_d1_negative")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.25, dt=1e-3, paths=4, seed=seed)
    x0 = np.array([0.2])
    rec = coupled_compare(model, chart, x0, cfg)
    paths = np.arange(cfg.paths)
    incr = wiener_increments(cfg.seed, paths, cfg.n_steps, model.n_noise, cfg.dt)
    full = simulate_full(model, chart.eval(x0), cfg, paths, incr)
    geo = model.geometry
    images = chart.eval(np.linspace(*chart.domain[0], 4001)[:, None])
    top = geo.embed_order([images])
    z, w = geo.flat(images, top), geo.weight_vector(top)
    for p, n in enumerate(rec.recorded):
        dist, unconverged = rec.dist[:n, p], rec.unconverged[:n, p]
        y = geo.flat(geo.state_from_flat(full.ys[:n, p], full.order), top)
        square = (w * y * y).sum(-1)[:, None] - 2.0 * (y * w) @ z.T + (w * z * z).sum(-1)
        scan = np.sqrt(np.maximum(square, 0.0)).min(axis=1)
        assert (dist[~unconverged] <= scan[~unconverged] + 1e-6).all()


def test_summary_counts_no_newton_steps_on_a_span_chart():
    # the span chart's Hessian is zero, so every distance step is Gauss-Newton's
    cfg_dict = load_config("heat_equation")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=0)
    summary = coupled_compare(model, chart, cfg_dict["sim"]["x0"], cfg).summary
    assert summary["distance_iterations"] > 0
    assert summary["distance_newton_steps"] == 0
    assert isinstance(summary["distance_backtracks"], int)


def test_summary_counts_rows_started_from_a_seed_image():
    # with no dynamics every full state is its reduced coordinate's image,
    # so no seed image can be strictly closer
    model, chart = zero_noise_setup()
    rec = coupled_compare(model, chart, [0.0], SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=1))
    assert rec.summary["max_coupled_err"] == 0.0
    assert rec.summary["distance_seeded_starts"] == 0

    cfg_dict = load_config("ito_translation_d1_negative")
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.05, dt=1e-3, paths=2, seed=2)
    rec = coupled_compare(model, chart, [0.2], cfg)
    rows = int(rec.recorded.sum())
    assert 0 < rec.summary["distance_seeded_starts"] < rows
    skipped = SimConfig(horizon=0.05, dt=1e-3, paths=2, seed=2, record_distance=False)
    assert coupled_compare(model, chart, [0.2], skipped).summary["distance_seeded_starts"] == 0


def test_batched_grid_span_with_exits_and_explosions_matches_per_path():
    m = 16
    s1, s2 = sine_mode(m, 1), sine_mode(m, 2)
    model = PLaplaceModel(2.0, m, fields=(s1 * 3.0, s2 * 0.5))
    chart = linear_span_chart([s1, s2], [[0.2, 2.0], [-2.0, 2.0]])
    # seed 0: under the per-stream noise table seed 3 no longer explodes any path
    cfg = SimConfig(horizon=0.1, dt=1e-3, paths=8, seed=0, explosion_ceiling=1.5)
    rec = _assert_matches_per_path(model, chart, [1.0, 0.5], cfg)
    # the ensemble mixes paths that explode, leave the chart, and finish
    assert rec.exploded.any() and rec.exited.any()
    assert not (rec.exploded | rec.exited).all()
    assert len(set(rec.exit_step.tolist())) > 2
    # past its recorded rows a path holds a NaN distance, a zero gap and no flag
    past = np.arange(len(rec.times))[:, None] >= rec.recorded
    assert past.any()
    assert np.isnan(rec.dist[past]).all()
    assert (rec.coupled_err[past] == 0.0).all() and not rec.unconverged[past].any()
    # a path with neither flag ran to the end
    ran = ~(rec.exploded | rec.exited)
    assert ((rec.exit_step == cfg.n_steps) == ran).all()
    assert len(rec.to_csv_rows()[1]) == rec.recorded.sum()


def test_ensemble_increments_are_the_per_path_tables():
    table = wiener_increments(42, [0, 3, 5], 6, 2, 1e-3)
    assert table.shape == (3, 6, 2)
    for row, p in zip(table, (0, 3, 5)):
        np.testing.assert_array_equal(row, wiener_increments(42, [p], 6, 2, 1e-3)[0])


def test_increments_match_a_fresh_generator_per_entry():
    # one stream per (seed, path, component): entry (step, j) is draw step of the
    # generator keyed by the seed from counter [0, path, j, 0]
    table = wiener_increments(2024, [3], 4, 2, 1e-3)[0]
    for j in range(2):
        bits = np.random.Philox(key=2024, counter=[0, 3, j, 0])
        want = np.random.Generator(bits).standard_normal(4) * np.sqrt(1e-3)
        for step in range(4):
            assert table[step, j] == want[step]


def test_unconverged_distance_solves_are_flagged_and_counted(monkeypatch):
    from spde_manifold import simulate

    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.02, dt=1e-3, paths=2, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    assert rec.summary["n_unconverged_distance"] == 0
    assert not rec.unconverged.any()

    # one Gauss-Newton iteration cannot confirm convergence once the
    # full state has moved off the warm start
    capped = functools.partial(distance_to_manifold, max_iter=1)
    monkeypatch.setattr(simulate, "distance_to_manifold", capped)
    rec = coupled_compare(model, chart, [0.2], cfg)
    flagged = int(rec.unconverged.sum())
    assert flagged > 0
    assert rec.summary["n_unconverged_distance"] == flagged
    assert not rec.unconverged[0].any()  # starts on the chart


def test_max_distance_leaves_out_unconverged_rows(monkeypatch):
    from spde_manifold import simulate

    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=12)
    x0 = np.array([0.2])
    incr = wiener_increments(cfg.seed, np.arange(2), cfg.n_steps, model.n_noise, cfg.dt)
    # the full state of path 1 at step 5: its solve is made to fail far off the chart
    bad = simulate_full(model, chart.eval(x0), cfg, np.arange(2), incr).states[5].coeffs[1]

    def solve(param, y, start, geometry, **kwargs):
        res = distance_to_manifold(param, y, start, geometry, **kwargs)
        hit = (y.coeffs == bad).all(-1)
        res.distance = np.where(hit, 1e3, res.distance)
        res.path_converged = res.path_converged & ~hit
        return res

    monkeypatch.setattr(simulate, "distance_to_manifold", solve)
    rec = coupled_compare(model, chart, x0, cfg)
    assert rec.summary["n_unconverged_distance"] == 1
    assert rec.unconverged[5, 1] and rec.dist[5, 1] == 1e3
    own = np.arange(len(rec.times))[:, None] < rec.recorded
    converged = rec.dist[own & ~rec.unconverged]
    assert rec.summary["max_distance"] == converged.max() < 1e3

    def fail(param, y, start, geometry, **kwargs):
        res = distance_to_manifold(param, y, start, geometry, **kwargs)
        res.path_converged = np.zeros_like(res.path_converged)
        return res

    monkeypatch.setattr(simulate, "distance_to_manifold", fail)
    assert coupled_compare(model, chart, x0, cfg).summary["max_distance"] is None


def test_summary_reports_the_coupled_gap_spread_and_solver_work():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=3, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    gaps = np.array([rec.coupled_err[:n, p].max() for p, n in enumerate(rec.recorded)])
    assert rec.summary["max_coupled_err"] == gaps.max()
    assert rec.summary["coupled_err_mean"] == pytest.approx(gaps.mean(), rel=1e-12)
    sem = gaps.std(ddof=1) / np.sqrt(gaps.size)
    assert rec.summary["coupled_err_sem"] == pytest.approx(sem, rel=1e-12)
    iterations = rec.summary["distance_iterations"]
    assert isinstance(iterations, int) and iterations >= rec.recorded.sum()
    assert coupled_compare(model, chart, [0.2], cfg).summary == rec.summary

    one = coupled_compare(model, chart, [0.2], SimConfig(horizon=0.01, dt=1e-3, seed=12))
    assert one.summary["coupled_err_sem"] is None  # no spread from a single path
    skipped = SimConfig(horizon=0.01, dt=1e-3, paths=3, seed=12, record_distance=False)
    assert coupled_compare(model, chart, [0.2], skipped).summary["distance_iterations"] == 0


def test_summary_reports_the_ensemble_spill():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=2, seed=12)
    rec = coupled_compare(model, chart, [0.2], cfg)
    y0 = chart.eval(np.array([0.2]))
    spills = [simulate_full(model, y0, cfg, [p]).max_spill[0] for p in range(2)]
    assert rec.summary["max_spill"] == pytest.approx(max(spills), rel=1e-12)
    assert rec.summary["max_spill"] > 0.0


# -- the array Milstein step against the state arithmetic ------------------------------


def _reference_pairings(model, y):
    s = np.empty(y.batch + (model.d, model.J))
    for j in range(model.J):
        for i in range(model.d):
            s[..., i, j] = pair(model.sigma[j][i], y)
    return s


def _reference_drift(model, y):
    """Transport drift from pairings, ladder derivatives and ``combine``, term by term;
    other models answer for themselves."""
    if not isinstance(model, ItoTypeModel):
        return model.drift(y)
    s = _reference_pairings(model, y)
    cov = s @ np.swapaxes(s, -1, -2)
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


def _reference_diffusion(model, y):
    if not isinstance(model, ItoTypeModel):
        return model.diffusion(y)
    s = _reference_pairings(model, y)
    partials = [derivative(y, axis=i) for i in range(model.d)]
    fields = [
        SpectralState.combine([(partials[i], -s[..., i, j]) for i in range(model.d)])
        for j in range(model.J)
    ]
    return fields + list(model.extra_fields)


def _reference_noise_derivative(model, y, u, k):
    """DA^k(y)[u] = -sum_i (<sigma[k][i], u> d_i y + <sigma[k][i], y> d_i u) from
    pairings and ladder derivatives; other models answer for themselves, and a
    model without ``diffusion_derivative`` has none (Euler)."""
    if not isinstance(model, ItoTypeModel):
        derivative_of = getattr(model, "diffusion_derivative", None)
        return None if derivative_of is None else derivative_of(y, u, k)
    if k >= model.J:
        return None  # a constant field
    terms = []
    for i, dual in enumerate(model.sigma[k]):
        terms += [(derivative(y, axis=i), -pair(dual, u)), (derivative(u, axis=i), -pair(dual, y))]
    return SpectralState.combine(terms)


def _reference_spill(geo, y):
    """Relative mid-norm mass of y above the working order, summed over the
    indices of total order above it."""
    if isinstance(geo, GridGeometry) or y.N <= geo.work_order:
        return np.zeros(y.batch)
    f = geo.flat(y)
    wff = geo.weight_vector(y.N) * f * f
    total = wff.sum(-1)
    out = wff[..., (order_grid(geo.d, y.N) > geo.work_order).ravel()].sum(-1)
    return np.sqrt(out / np.where(total == 0.0, 1.0, total))


def _reference_full(model, y0, cfg, incr):
    """The Milstein loop on states: combine, spill, truncation and explosion
    test through the state API, every path of the ensemble stepped at once;
    the term 1/2 sum_jk DA^k(y)[A^j(y)] (dW_j dW_k - delta_jk dt) is summed
    field by field."""
    geo = model.geometry
    y = geo.truncate_to_work(y0)
    order = geo.embed_order([y])
    flat = geo.flat(y, order)
    n_paths = incr.shape[0]
    ys = np.array(np.broadcast_to(flat, (n_paths,) + flat.shape[-1:]))
    rows = [ys.copy()]
    exploded = np.zeros(n_paths, dtype=bool)
    exit_step = np.full(n_paths, cfg.n_steps)
    max_spill = np.zeros(n_paths)
    live = np.arange(n_paths)
    for step in range(cfg.n_steps):
        if not live.size:
            break
        y = geo.state_from_flat(ys[live], order)
        dw = incr[live, step]
        terms = [(y, 1.0), (_reference_drift(model, y), cfg.dt)]
        fields = _reference_diffusion(model, y)
        for j, a_field in enumerate(fields):
            if dw[:, j].any() and geo.flat(a_field).any():
                terms.append((a_field, dw[:, j]))
            for k in range(len(fields)):
                term = _reference_noise_derivative(model, y, a_field, k)
                if term is not None and geo.flat(term).any():
                    terms.append((term, 0.5 * (dw[:, j] * dw[:, k] - (cfg.dt if j == k else 0.0))))
        y_next = type(y).combine(terms)
        max_spill[live] = np.maximum(max_spill[live], _reference_spill(geo, y_next))
        y = geo.truncate_to_work(y_next)
        ys[live] = geo.flat(y, order)
        rows.append(ys.copy())
        size = geo.norm_mid(y)
        blown = ~np.isfinite(size) | (size > cfg.explosion_ceiling)
        for k in live[blown]:
            exploded[k], exit_step[k] = True, step + 1
        live = live[~blown]
    return np.array(rows), exploded, exit_step, max_spill


def _assert_full_matches_reference(model, y0, cfg):
    """The run against ``_reference_full`` at rounding level: the array step groups
    its sums in another order than the reference's term-by-term combine."""
    paths = np.arange(cfg.paths)
    incr = wiener_increments(cfg.seed, paths, cfg.n_steps, model.n_noise, cfg.dt)
    path = simulate_full(model, y0, cfg, paths, incr)
    rows, exploded, exit_step, max_spill = _reference_full(model, y0, cfg, incr)
    scale = max(1.0, float(np.abs(rows).max()))
    np.testing.assert_allclose(path.ys, rows, rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_array_equal(path.exploded, exploded)
    np.testing.assert_array_equal(path.exit_step, exit_step)
    np.testing.assert_allclose(path.max_spill, max_spill, rtol=1e-9, atol=1e-300)
    assert len(path.states) == len(rows)
    for k in (0, len(rows) // 2, -1):
        np.testing.assert_array_equal(model.geometry.flat(path.states[k], path.order), path.ys[k])
    return path


def test_array_step_matches_state_step_off_chart_transport():
    cfg_dict = load_config({"preset": "ito_translation_d1_negative", "model": {"N": 24}})
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.03, dt=1e-3, paths=4, seed=5)
    path = _assert_full_matches_reference(model, chart.eval(np.array([0.2])), cfg)
    assert model.n_noise == 2 and (path.max_spill > 0.0).all()
    # one step: the spill of the first step alone
    one = _assert_full_matches_reference(model, chart.eval(np.array([0.2])), replace(cfg, horizon=cfg.dt))
    assert len(one.times) == 2 and (one.max_spill > 0.0).all()


def test_array_step_matches_state_step_in_two_dimensions(rng):
    # at N = 4 the indices above the working order are spread over the flat
    # index of the (N + 3)^2 drift tensor, not a suffix of it
    n = 4
    model = ItoTypeModel(
        d=2, J=1, N=n,
        b=(DualField.dirac([0.1, -0.2], n=n), DualField.dirac([0.3, 0.0], n=n)),
        sigma=((DualField.dirac([0.0, 0.2], n=n), DualField.dirac([-0.1, 0.1], n=n)),),
    )
    y0 = SpectralState(2, n, rng.standard_normal((n + 1, n + 1)) * 0.2)
    cfg = SimConfig(horizon=0.02, dt=1e-3, paths=3, seed=8)
    path = _assert_full_matches_reference(model, y0, cfg)
    assert (path.max_spill > 0.0).all()


class _StateMethodsOnly:
    """A model seen through its state methods alone, which the full run sums term by term."""

    def __init__(self, model):
        self.geometry, self.n_noise = model.geometry, model.n_noise
        self.drift, self.diffusion = model.drift, model.diffusion
        self.diffusion_derivative = model.diffusion_derivative


@pytest.mark.parametrize("d", [1, 2])
def test_array_kernel_matches_the_state_methods_with_two_noise_rows(rng, d):
    # duals above and below the state order, and a constant field above the order
    # of every other term, which grows the step's buffer
    n = 6
    z = [0.2, -0.1][:d]
    model = ItoTypeModel(
        d=d, J=2, N=n,
        b=tuple(DualField.dirac(z, n=n + 3) for _ in range(d)),
        sigma=(
            tuple(DualField.dirac(z[::-1], n=n - 2) for _ in range(d)),
            tuple(DualField.constant(d, n + 1, 0.5) for _ in range(d)),
        ),
        extra_fields=(SpectralState(d, n + 4, rng.standard_normal((n + 5,) * d) * 0.1),),
    )
    y0 = SpectralState(d, n, rng.standard_normal((n + 1,) * d) * 0.2)
    cfg = SimConfig(horizon=0.01, dt=1e-3, paths=3, seed=6)
    paths = np.arange(cfg.paths)
    path = simulate_full(model, y0, cfg, paths)
    summed = simulate_full(_StateMethodsOnly(model), y0, cfg, paths)
    # the kernel's one contraction groups the sums apart from the state methods' terms
    np.testing.assert_allclose(path.ys, summed.ys, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(path.max_spill, summed.max_spill, rtol=1e-9)
    assert model.n_noise == 3 and (path.max_spill > 0.0).all()
    # the reference pairs each dual alone and multiplies its own covariance,
    # which rounds the sum over two noise rows apart
    incr = wiener_increments(cfg.seed, paths, cfg.n_steps, model.n_noise, cfg.dt)
    rows, _, _, max_spill = _reference_full(model, y0, cfg, incr)
    np.testing.assert_allclose(path.ys, rows, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(path.max_spill, max_spill, rtol=1e-12)


def test_array_step_matches_state_step_on_the_grid_with_explosions():
    m = 16
    s1, s2 = sine_mode(m, 1), sine_mode(m, 2)
    model = PLaplaceModel(2.0, m, fields=(s1 * 3.0, s2 * 0.5))
    # seed 0: under the per-stream noise table seed 3 no longer explodes any path
    cfg = SimConfig(horizon=0.1, dt=1e-3, paths=8, seed=0, explosion_ceiling=1.5)
    path = _assert_full_matches_reference(model, s1 * 1.0 + s2 * 0.5, cfg)
    assert path.exploded.any() and not path.exploded.all()


@dataclass(frozen=True)
class _SharedNoiseModel:
    """Linear decay with one noise field that is the same state on every path."""

    N: int = 12

    @property
    def geometry(self):
        return HermiteGeometry(1, self.N)

    @property
    def n_noise(self):
        return 1

    def drift(self, y):
        return y * -1.0

    def diffusion(self, y):
        return [SpectralState.basis([1], self.N + 1) + SpectralState.basis([self.N + 1]) * 0.5]


def test_custom_model_with_one_noise_state_for_every_path_steps():
    model = _SharedNoiseModel()
    cfg = SimConfig(horizon=5e-3, dt=1e-3, paths=3, seed=2)
    path = _assert_full_matches_reference(model, SpectralState.basis([0], model.N), cfg)
    assert path.states[-1].batch == (3,)
    assert (path.max_spill > 0.0).all()  # the field reaches one order above the working order


@pytest.mark.parametrize(
    "preset", ["ito_zero", "negative_control", "ito_translation_d1", "ito_translation_d1_negative"]
)
def test_array_step_matches_state_step_on_the_hermite_presets(preset):
    # each at its own N: ito_zero takes the zero-drift branch, negative_control
    # has J = 0 and one constant extra field, the translations run at N = 64
    cfg_dict = load_config(preset)
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    cfg = SimConfig(horizon=0.02, dt=1e-3, paths=3, seed=4)
    _assert_full_matches_reference(model, chart.eval(np.array(cfg_dict["sim"]["x0"])), cfg)


def test_full_run_builds_states_only_at_the_protocol_edge(monkeypatch):
    from spde_manifold import hermite

    def no_combine(cls, terms):
        raise AssertionError("simulate_full combined states")

    def no_state_call(self, y):
        raise AssertionError("simulate_full called the state protocol")

    built = [0]
    post_init = SpectralState.__post_init__

    def counted(state):
        built[0] += 1
        post_init(state)

    cfg_dict = load_config({"preset": "ito_translation_d1_negative", "model": {"N": 16}})
    model, chart = build_model(cfg_dict), build_manifold(cfg_dict)
    y0 = chart.eval(np.array([0.2]))
    monkeypatch.setattr(hermite.ArrayState, "combine", classmethod(no_combine))
    monkeypatch.setattr(SpectralState, "__post_init__", counted)
    monkeypatch.setattr(ItoTypeModel, "drift", no_state_call)
    monkeypatch.setattr(ItoTypeModel, "diffusion", no_state_call)
    counts = []
    for n_steps in (2, 40):
        built[0] = 0
        cfg = SimConfig(horizon=n_steps * 1e-3, dt=1e-3, paths=4, seed=1)
        path = simulate_full(model, y0, cfg, np.arange(4))
        assert len(path.states) == n_steps + 1
        counts.append(built[0])
    assert counts[0] == counts[1]  # the states built do not grow with the steps


@pytest.mark.parametrize("record_distance", [True, False])
def test_trajectory_csv_is_the_csv_writers_bytes(record_distance, tmp_path):
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=4e-3, dt=1e-3, paths=3, seed=12, record_distance=record_distance)
    rec = coupled_compare(model, chart, [0.2], cfg)
    rec.coupled_err[1, 0], rec.coupled_err[1, -1] = -0.0, 0.0  # signed zeros in one column
    rec.dist[rec.recorded[0] - 1, 0], rec.dist[rec.recorded[-1] - 1, -1] = np.inf, -np.inf
    header, rows = rec.to_csv_rows()
    want = [
        [str(p), str(k), *map(repr, values)]
        for p, n in enumerate(rec.recorded)
        for k, values in enumerate(
            np.column_stack([rec.times[:n], rec.xs[:n, p], rec.dist[:n, p], rec.coupled_err[:n, p]]).tolist()
        )
    ]
    assert rows == want
    assert rows[1][-1] == "-0.0" and rows[-4][-1] == "0.0"
    assert ("nan" in rows[1]) != record_distance
    _write_csv(tmp_path / "trajectory.csv", header, rows)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    assert (tmp_path / "trajectory.csv").read_bytes() == buf.getvalue().encode()


def test_summary_reports_the_scheme():
    model, chart = transport_setup(16)
    cfg = SimConfig(horizon=4e-3, dt=1e-3, paths=2, seed=1, record_distance=False)
    assert coupled_compare(model, chart, [0.2], cfg).summary["scheme"] == "milstein"
    # without step_sum and diffusion_derivative both runs take Euler's step
    assert coupled_compare(_EulerOnly(model), chart, [0.2], cfg).summary["scheme"] == "euler"
