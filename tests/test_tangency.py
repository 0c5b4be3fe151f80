"""Tangency residuals, drift forms, and the chart sweep report."""

import json
import math

import numpy as np
import pytest

from spde_manifold import (
    DegenerateChartError,
    DualField,
    FormDisagreementError,
    InvalidSamplingError,
    ItoTypeModel,
    Parametrization,
    PLaplaceModel,
    SamplingSpec,
    SpectralState,
    check_diffusion_tangency,
    check_drift_tangency,
    linear_span_chart,
    reduced_coefficients,
    sweep,
    translation_chart,
)
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.tangency import sample_points


def basis(index, n=None):
    return SpectralState.basis(index, n)


def dirac0(n):
    return DualField.dirac([0.0], n=n)


def transport_setup(n=32):
    """Translation-invariant transport model over the shifted-profile chart."""
    model = ItoTypeModel(
        d=1, J=1, N=n, b=(dirac0(n),), sigma=((dirac0(n),),)
    )
    chart = translation_chart(basis([0], n), [[-2.0, 2.0]])
    return model, chart


# -- sampling --------------------------------------------------------------------


def test_lattice_1d_respects_margin():
    pts = sample_points(SamplingSpec(points_per_axis=5, margin_frac=0.1),
                        np.array([[0.0, 1.0]]))
    assert pts.shape == (5, 1)
    np.testing.assert_allclose(pts[:, 0], np.linspace(0.1, 0.9, 5))


def test_lattice_2d_grid_count():
    pts = sample_points(SamplingSpec(points_per_axis=3, margin_frac=0.0),
                        np.array([[0.0, 1.0], [-1.0, 1.0]]))
    assert pts.shape == (9, 2)
    np.testing.assert_allclose(pts[0], [0.0, -1.0])
    np.testing.assert_allclose(pts[-1], [1.0, 1.0])


def test_halton_for_three_axes():
    dom = np.array([[0.0, 1.0]] * 3)
    spec = SamplingSpec(points_per_axis=3, margin_frac=0.0)
    pts = sample_points(spec, dom)
    assert pts.shape == (9, 3)  # squared budget, not cubed
    np.testing.assert_allclose(pts[0], [0.5, 1.0 / 3.0, 0.2], atol=1e-15)
    np.testing.assert_array_equal(pts, sample_points(spec, dom))
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


def test_explicit_points_pass_through():
    dom = np.array([[0.0, 1.0], [0.0, 1.0]])
    pts = sample_points(SamplingSpec(points=np.array([[0.2, 0.8]])), dom)
    np.testing.assert_array_equal(pts, [[0.2, 0.8]])
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(points=np.empty((0, 2))), dom)


def test_sampling_validation():
    dom = np.array([[0.0, 1.0]])
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(points_per_axis=0), dom)
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(method="sobol"), dom)
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(method="halton"), np.array([[0.0, 1.0]] * 13))


# -- single-point checks -------------------------------------------------------------


def test_zero_noise_components_have_zero_residual():
    n = 16
    model = ItoTypeModel(d=1, J=1, N=n, b=(DualField.zero(1),),
                         sigma=((DualField.zero(1),),))
    chart = translation_chart(basis([0], n), [[-2.0, 2.0]])
    diff = check_diffusion_tangency(model, chart, [0.2])
    assert diff.rho.shape == (1,)
    assert diff.rho[0] == 0.0
    assert not diff.a.any()


def test_orthogonal_constant_field_is_fully_normal():
    n = 40
    model = ItoTypeModel(
        d=1, J=0, N=n, b=(DualField.zero(1),), sigma=(),
        extra_fields=(basis([32], n) * 2.0,),
    )
    chart = linear_span_chart([basis([0], n), basis([1], n)], [[-1.0, 1.0]] * 2)
    diff = check_diffusion_tangency(model, chart, [0.5, 0.5])
    assert diff.rho[0] == pytest.approx(1.0, abs=1e-14)


def test_grid_span_reduced_drift_is_diagonal():
    m = 16
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), sine_mode(m, 2)))
    chart = linear_span_chart([sine_mode(m, 1), sine_mode(m, 2)], [[-2.0, 2.0]] * 2)
    lam = [laplace_eigenvalue(m, k) for k in (1, 2)]
    for x in ([0.5, -0.3], [1.2, 0.7]):
        check = check_drift_tangency(model, chart, x)
        assert check.rho <= 1e-12
        np.testing.assert_allclose(check.beta, [lam[0] * x[0], lam[1] * x[1]],
                                   rtol=1e-10)


def test_transport_reduced_coefficients_closed_form():
    model, chart = transport_setup(32)
    x = 0.3
    a, beta = reduced_coefficients(model, chart, [x])
    want = math.pi ** (-0.25) * math.exp(-0.5 * x * x)
    assert a[0, 0] == pytest.approx(want, abs=1e-8)
    assert beta[0] == pytest.approx(want, abs=1e-8)


def test_unknown_drift_form_rejected():
    model, chart = transport_setup(16)
    with pytest.raises(ValueError):
        check_drift_tangency(model, chart, [0.1], form="milstein")


# -- sweeps ----------------------------------------------------------------------------


def test_sweep_tangent_verdict_and_form_agreement():
    model, chart = transport_setup(32)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=5))
    assert rep.verdict == "tangent"
    assert rep.max_residual < 1e-10
    assert rep.form_agreement is not None and rep.form_agreement < 1e-6
    assert rep.points.shape == (5, 1)
    assert not rep.degenerate.any()


def test_sweep_not_tangent_on_orthogonal_extra():
    n = 40
    model = ItoTypeModel(
        d=1, J=0, N=n, b=(DualField.zero(1),), sigma=(),
        extra_fields=(basis([32], n),),
    )
    chart = linear_span_chart([basis([0], n), basis([1], n)], [[-1.0, 1.0]] * 2)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3))
    assert rep.verdict == "not_tangent"
    assert rep.max_residual == pytest.approx(1.0, abs=1e-12)


def test_truncation_spill_raises_thresholds_not_verdicts():
    # at a coarse working order the drift residual is pure truncation mass;
    # the spill-scaled threshold must absorb it
    model, chart = transport_setup(16)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=5))
    assert rep.verdict == "tangent"
    assert rep.max_residual > 1e-6  # genuinely above the base threshold
    np.testing.assert_allclose(
        rep.thresholds, np.maximum(rep.base_threshold, rep.spill_factor * rep.spill)
    )


def test_custom_threshold_knobs():
    model, chart = transport_setup(16)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3),
                base_threshold=1e-3, spill_factor=2.0)
    np.testing.assert_allclose(rep.thresholds, np.maximum(1e-3, 2.0 * rep.spill))


def test_degenerate_point_recorded_not_fatal():
    n = 6
    v = basis([1], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]],
                            eval=lambda x: v * float(x[0]) ** 2)
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3))
    np.testing.assert_array_equal(rep.degenerate, [False, True, False])
    assert any("rank deficient" in w for w in rep.warnings)
    assert rep.verdict == "tangent"  # the two valid points carry the verdict
    assert math.isnan(rep.rho_drift[1])


def test_all_degenerate_sweep_raises():
    n = 4
    v = basis([0], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v)
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    with pytest.raises(DegenerateChartError, match="every sampled chart point"):
        sweep(model, chart, SamplingSpec(points_per_axis=3))


def test_form_agreement_only_checked_where_noise_is_tangent():
    # an off-tangent noise component voids the equivalence premise, so the
    # sweep must report not_tangent instead of raising a form error
    n = 32
    model = ItoTypeModel(
        d=1, J=1, N=n, b=(dirac0(n),), sigma=((dirac0(n),),),
        extra_fields=(basis([4], n) * 2.0,),
    )
    chart = translation_chart(basis([0], n), [[-2.0, 2.0]])
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3))
    assert rep.verdict == "not_tangent"
    assert rep.form_agreement is None


def test_inconsistent_noise_derivative_raises_form_error():
    class LyingDerivative(ItoTypeModel):
        def diffusion_derivative(self, y, u, j):
            return SpectralState.zero(self.d, 0)

    n = 32
    model = LyingDerivative(d=1, J=1, N=n, b=(dirac0(n),), sigma=((dirac0(n),),))
    chart = translation_chart(basis([0], n), [[-2.0, 2.0]])
    with pytest.raises(FormDisagreementError, match="drift forms disagree"):
        sweep(model, chart, SamplingSpec(points_per_axis=3))


def test_sweep_runs_single_state_models_row_by_row():
    model, chart = transport_setup(16)

    class OneState:
        geometry = model.geometry
        n_noise = model.n_noise

        def drift(self, y):
            assert not y.batch
            return model.drift(y)

        def diffusion(self, y):
            assert not y.batch
            return model.diffusion(y)

        def diffusion_derivative(self, y, u, j):
            return model.diffusion_derivative(y, u, j)

    want = sweep(model, chart, SamplingSpec(points_per_axis=4))
    got = sweep(OneState(), chart, SamplingSpec(points_per_axis=4))
    np.testing.assert_allclose(got.beta_strat, want.beta_strat, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got.rho_drift, want.rho_drift, rtol=0.0, atol=1e-12)
    assert got.verdict == want.verdict


def test_bracket_only_sweep_skips_strat_columns():
    model, chart = transport_setup(16)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3), form="bracket")
    assert rep.rho_drift_strat is None
    assert rep.beta_strat is None
    assert rep.form_agreement is None
    header, rows = rep.to_csv_rows()
    strat_col = header.index("rho_drift_strat")
    assert all(r[strat_col] == "" for r in rows)


def test_residuals_invariant_under_chart_basis_change():
    m = 16
    mixed = sine_mode(m, 1) * 0.6 + sine_mode(m, 3) * 0.8
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), mixed))
    v0, v1 = sine_mode(m, 1), sine_mode(m, 2)
    chart_a = linear_span_chart([v0, v1], [[-2.0, 2.0]] * 2)
    chart_b = linear_span_chart([v0 + v1, v0 - v1], [[-2.0, 2.0]] * 2)
    c0, c1 = 0.3, -0.4
    rep_a = sweep(model, chart_a, SamplingSpec(points=np.array([[c0, c1]])))
    rep_b = sweep(model, chart_b,
                  SamplingSpec(points=np.array([[(c0 + c1) / 2, (c0 - c1) / 2]])))
    np.testing.assert_allclose(rep_a.rho_diffusion, rep_b.rho_diffusion, atol=1e-8)
    np.testing.assert_allclose(rep_a.rho_drift, rep_b.rho_drift, atol=1e-8)
    # the mixed field splits 0.6 along the span, 0.8 across it
    assert rep_a.rho_diffusion[0, 1] == pytest.approx(0.8, abs=1e-12)


def test_residuals_invariant_under_column_scaling():
    n = 24
    model = ItoTypeModel(
        d=1, J=0, N=n, b=(DualField.zero(1),), sigma=(),
        extra_fields=(basis([0], n) * 0.6 + basis([2], n) * 0.8,),
    )
    pts = np.array([[0.5]])
    rep1 = sweep(model, linear_span_chart([basis([0], n)], [[-1, 1]]),
                 SamplingSpec(points=pts))
    rep2 = sweep(model, linear_span_chart([basis([0], n) * 2.0], [[-1, 1]]),
                 SamplingSpec(points=pts))
    np.testing.assert_allclose(rep1.rho_diffusion, rep2.rho_diffusion, atol=1e-13)
    np.testing.assert_allclose(rep1.a_coords, 2.0 * rep2.a_coords, atol=1e-13)


def test_poorly_resolved_chart_state_warns():
    n = 8
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    chart = translation_chart(basis([8], 8), [[-2.0, 2.0]])
    rep = sweep(model, chart, SamplingSpec(points=np.array([[0.1]])))
    assert any("poorly resolved" in w for w in rep.warnings)


# -- report shape ------------------------------------------------------------------------


def test_report_json_round_trip_with_nan_rows():
    n = 6
    v = basis([1], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]],
                            eval=lambda x: v * float(x[0]) ** 2)
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3),
                metadata={"label": "probe"})
    doc = rep.to_json_dict()
    text = json.dumps(doc)  # NaNs must have been mapped to null
    assert "NaN" not in text
    assert doc["metadata"] == {"label": "probe"}
    assert doc["rho_drift"][1] is None


def test_csv_rows_one_per_point_and_component():
    model, chart = transport_setup(16)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=4))
    header, rows = rep.to_csv_rows()
    assert len(rows) == 4  # one noise component
    assert all(len(r) == len(header) for r in rows)
    assert header[0] == "point" and "rho_diffusion" in header


def test_csv_rows_without_noise():
    n = 8
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    chart = linear_span_chart([basis([0], n)], [[-1.0, 1.0]])
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3), form="bracket")
    header, rows = rep.to_csv_rows()
    assert len(rows) == 3
    j_col = header.index("j")
    assert all(r[j_col] == "" for r in rows)
    assert all(len(r) == len(header) for r in rows)
