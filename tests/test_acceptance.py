"""Acceptance gates for the shipped presets.

Each test is one release criterion, self-contained and runnable in
isolation; assertion messages carry the measured numbers so a failure
line is diagnosable on its own.
"""

import json
import math
import time

import numpy as np

from spde_manifold import (
    SimConfig,
    build_manifold,
    build_model,
    build_sim_config,
    coupled_compare,
    load_config,
    sweep,
    sweep_config,
)
from spde_manifold.cli import main
from spde_manifold.geometry import GridGeometry
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.hermite import (
    DEFAULT_SCALE,
    SpectralState,
    check_embedding,
    derivative,
    evaluate,
    gauss_hermite_rule,
    hermite_values,
    norm_at,
    translate,
)
from spde_manifold.simulate import simulate_full


def _sweep_preset(source, **overrides):
    cfg = load_config(source)
    return sweep(build_model(cfg), build_manifold(cfg), **{**sweep_config(cfg), **overrides})


def test_criterion_1():
    """Transport preset: tangent verdict, and refinement tightens residuals."""
    start = time.monotonic()
    rep = _sweep_preset("ito_translation_d1")
    assert rep.verdict == "tangent", f"verdict {rep.verdict}, max residual {rep.max_residual:.3e}"
    assert not rep.degenerate.any()

    coarse = _sweep_preset({"preset": "ito_translation_d1", "model": {"N": 16}})
    assert rep.max_residual <= coarse.max_residual, (
        f"refined residual {rep.max_residual:.3e} above coarse {coarse.max_residual:.3e}"
    )
    elapsed = time.monotonic() - start
    print(f"residual N=64 {rep.max_residual:.3e}, N=16 {coarse.max_residual:.3e}, {elapsed:.1f}s")
    assert elapsed <= 10.0


def test_criterion_2(tmp_path, capsys):
    """Off-chart constant noise: strongly normal residual and exit code 2."""
    start = time.monotonic()
    rc = main(["check", "--config", "negative_control", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 2, f"exit code {rc}"
    assert "verdict: not_tangent" in out

    rundir = next(tmp_path.glob("check-*"))
    report = json.loads((rundir / "report.json").read_text())
    max_rho = max(max(row) for row in report["rho_diffusion"])
    assert max_rho >= 0.9, f"max diffusion residual {max_rho:.3e}"
    elapsed = time.monotonic() - start
    print(f"max diffusion residual {max_rho:.6f}, {elapsed:.1f}s")
    assert elapsed <= 5.0


def test_criterion_3():
    """Linear grid model on its eigenspace: drift residual at machine scale."""
    start = time.monotonic()
    rep = _sweep_preset("plaplace_p2_eigen")
    assert rep.verdict == "tangent"
    worst = float(np.nanmax(rep.rho_drift))
    assert worst <= 1e-10, f"max drift residual {worst:.3e}"
    assert rep.points.shape[0] == 25
    elapsed = time.monotonic() - start
    print(f"max drift residual {worst:.3e} over {rep.points.shape[0]} points, {elapsed:.1f}s")
    assert elapsed <= 5.0


def test_criterion_4():
    """The two corrected drift forms agree with the exact noise derivative."""
    rep = _sweep_preset("ito_translation_d1", da_mode="analytic")
    assert rep.form_agreement is not None
    assert rep.form_agreement <= 1e-4, f"form gap {rep.form_agreement:.3e}"
    print(f"form agreement {rep.form_agreement:.3e}")


def test_criterion_5():
    """Heat preset: first-order accuracy against the closed-form decay."""
    start = time.monotonic()
    cfg = load_config("heat_equation")
    model = build_model(cfg)
    chart = build_manifold(cfg)
    m = cfg["model"]["M"]
    lam = laplace_eigenvalue(m, 1)
    mode = sine_mode(m, 1)
    geo = GridGeometry(m)
    y0 = chart.eval(np.array(cfg["sim"]["x0"]))

    def normalized_error(dt):
        run = SimConfig(horizon=cfg["sim"]["horizon"], dt=dt, paths=1,
                        seed=cfg["sim"]["seed"])
        path = simulate_full(model, y0, run, [0])
        assert not path.exploded[0]
        peak = max(abs(math.exp(lam * t)) for t in path.times)
        gap = max(
            geo.norm_diff(state.rows(0), mode * math.exp(lam * t))
            for state, t in zip(path.states, path.times)
        )
        return gap / peak

    err = normalized_error(cfg["sim"]["dt"])
    err_half = normalized_error(cfg["sim"]["dt"] / 2.0)
    factor = err / err_half
    assert err <= 5e-3, f"normalized error {err:.3e}"
    assert 1.7 <= factor <= 2.3, f"halving factor {factor:.3f}"
    elapsed = time.monotonic() - start
    print(f"error {err:.6e}, halving factor {factor:.4f}, {elapsed:.1f}s")
    assert elapsed <= 10.0


def test_criterion_6():
    """Coupled paths hug the chart within the extrapolated scheme error.

    The scheme error at the run step is extrapolated from two coarser
    runs, D(2dt)^2 / D(4dt); the recorded chart distance of the tangent
    preset must stay within ten times that, while the preset with one
    off-chart noise component must blow through the same bound on at
    least 90% of paths by half the horizon.  The counter noise, one stream
    per path and component, makes the half-horizon run the exact first half
    of a full run.
    """
    start = time.monotonic()
    cfg = load_config("ito_translation_d1")
    model = build_model(cfg)
    chart = build_manifold(cfg)
    x0 = cfg["sim"]["x0"]
    sim = cfg["sim"]

    errs = {}
    for mult in (4, 2):
        dt = mult * sim["dt"]
        probe = SimConfig(horizon=sim["horizon"], dt=dt, paths=sim["paths"],
                          seed=sim["seed"], record_distance=False)
        rec = coupled_compare(model, chart, x0, probe)
        assert rec.summary["n_exited"] == 0 and rec.summary["n_exploded"] == 0
        errs[mult] = rec.summary["max_coupled_err"]
    assert errs[2] <= 0.8 * errs[4], (
        f"coupled gap not shrinking: D(2dt)={errs[2]:.3e} vs D(4dt)={errs[4]:.3e}"
    )
    extrapolated = errs[2] ** 2 / errs[4]
    bound = 10.0 * extrapolated

    rec = coupled_compare(model, chart, x0, build_sim_config(cfg))
    max_dist = rec.summary["max_distance"]
    assert max_dist <= bound, f"max distance {max_dist:.3e} above bound {bound:.3e}"

    neg_cfg = load_config("ito_translation_d1_negative")
    neg_sim = neg_cfg["sim"]
    half = SimConfig(horizon=neg_sim["horizon"] / 2.0, dt=neg_sim["dt"],
                     paths=neg_sim["paths"], seed=neg_sim["seed"])
    neg = coupled_compare(build_model(neg_cfg), build_manifold(neg_cfg),
                          neg_sim["x0"], half)
    exceed = sum(
        1 for r in neg.records if r.dist.size and float(np.nanmax(r.dist)) > bound
    )
    needed = math.ceil(0.9 * neg_sim["paths"])
    assert exceed >= needed, f"only {exceed}/{neg_sim['paths']} paths left the tube"

    elapsed = time.monotonic() - start
    print(
        f"D(4dt) {errs[4]:.3e}, D(2dt) {errs[2]:.3e}, bound {bound:.3e}, "
        f"max distance {max_dist:.3e}, negative exceedance {exceed}/{neg_sim['paths']}, "
        f"{elapsed:.1f}s"
    )
    assert elapsed <= 60.0


def test_criterion_7():
    """Spectral calculus: ladder vs grid, shifts vs quadrature, norm scale."""
    start = time.monotonic()
    n = 40

    nodes, weights = gauss_hermite_rule(4 * n)
    h = 1e-5
    worst_ladder = 0.0
    for k in range(n):
        s = SpectralState.basis([k])
        fd = (evaluate(s, nodes + h) - evaluate(s, nodes - h)) / (2.0 * h)
        worst_ladder = max(worst_ladder, float(np.abs(evaluate(derivative(s), nodes) - fd).max()))
    assert worst_ladder <= 1e-6, f"ladder gap {worst_ladder:.3e}"

    profile = SpectralState.basis([0], n)
    shifted = translate(profile, 0.3)
    qnodes, qweights = gauss_hermite_rule(2 * n + 1)
    table = hermite_values(n, qnodes)
    reprojected = table @ (qweights * evaluate(profile, qnodes - 0.3))
    shift_gap = float(np.linalg.norm(shifted.coeffs - reprojected))
    assert shift_gap <= 1e-6, f"shift gap {shift_gap:.3e}"

    rng = np.random.default_rng(2024)
    states = [SpectralState(1, 24, rng.standard_normal(25)) for _ in range(1000)]
    qs = (DEFAULT_SCALE.q_weak, DEFAULT_SCALE.q_mid, DEFAULT_SCALE.q_strong)
    for s in states:
        norms = [norm_at(s, q) for q in qs]
        assert norms[0] <= norms[1] <= norms[2]
    report = check_embedding(DEFAULT_SCALE, states)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-12, f"embedding constant {report.max_ratio}"

    elapsed = time.monotonic() - start
    print(
        f"ladder {worst_ladder:.3e}, shift {shift_gap:.3e}, "
        f"embedding constant {report.max_ratio:.12f}, {elapsed:.1f}s"
    )
    assert elapsed <= 10.0


def test_criterion_8(tmp_path, monkeypatch, capsys):
    """Same config and seed twice: every artifact byte-identical."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def run_everything(root):
        assert main(["check", "--config", "ito_zero", "--out", str(root)]) == 0
        assert main(["simulate", "--config", "heat_equation", "--out", str(root)]) == 0
        capsys.readouterr()
        return {
            p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run_everything(tmp_path / "a")
    second = run_everything(tmp_path / "b")
    assert set(first) == set(second)
    for rel in first:
        assert first[rel] == second[rel], f"artifact {rel} differs between runs"
    names = {rel.name for rel in first}
    assert {"report.json", "report.csv", "trajectory.csv", "manifest.json"} <= names
    print(f"{len(first)} artifacts byte-identical across reruns")
