"""Tangency residuals, drift forms, and the chart sweep report."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from spde_manifold import (
    DegenerateChartError,
    FormDisagreementError,
    InvalidSamplingError,
    Parametrization,
    SamplingSpec,
    build_manifold,
    build_model,
    linear_span_chart,
    load_config,
    sweep,
    sweep_config,
    translation_chart,
)
from spde_manifold import models
from spde_manifold.cli import _write_csv, _write_json
from spde_manifold.config import preset_names
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.hermite import DualField, SpectralState
from spde_manifold.manifold import jacobian
from spde_manifold.models import ItoTypeModel, PLaplaceModel
from spde_manifold.tangency import (
    SWEEP_BLOCK_ENTRIES,
    check_diffusion_tangency,
    check_drift_tangency,
    reduced_coefficients,
    sample_points,
)


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
    # one point may come without its row axis
    np.testing.assert_array_equal(sample_points(SamplingSpec(points=[0.2, 0.8]), dom), [[0.2, 0.8]])


@pytest.mark.parametrize(
    "points, m",
    [
        ([[0.1, 0.2]], 1),  # one point of two coordinates on a 1-coordinate chart
        ([[0.1], [0.2]], 2),  # two points of one coordinate on a 2-coordinate chart
        ([0.1, 0.2, 0.3], 2),
        ([[[0.1, 0.2]]], 2),
        ([[0.1, 0.2], [0.3]], 2),
        ([[float("nan")]], 1),
        ([[0.1, float("inf")]], 2),
    ],
)
def test_explicit_points_must_match_the_chart(points, m):
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(points=points), np.array([[0.0, 1.0]] * m))


def test_sampling_validation():
    dom = np.array([[0.0, 1.0]])
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(points_per_axis=0), dom)
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(method="sobol"), dom)
    with pytest.raises(InvalidSamplingError):
        sample_points(SamplingSpec(method="halton"), np.array([[0.0, 1.0]] * 13))


@pytest.mark.parametrize("margin", [-0.5, 0.5, 0.6, float("nan")])
def test_margin_outside_half_box_is_rejected(margin):
    # a negative margin would sample outside the chart box, one of 0.5 or
    # more would shrink it to a point or turn it inside out
    with pytest.raises(InvalidSamplingError, match="margin_frac"):
        sample_points(SamplingSpec(points_per_axis=3, margin_frac=margin), np.array([[-2.0, 2.0]]))


# -- single-point checks -------------------------------------------------------------


def test_zero_noise_components_have_zero_residual():
    n = 16
    model = ItoTypeModel(d=1, J=1, N=n, b=(DualField.zero(1),),
                         sigma=((DualField.zero(1),),))
    chart = translation_chart(basis([0], n), [[-2.0, 2.0]])
    diff = check_diffusion_tangency(model, chart, jacobian(chart, [0.2], model.geometry))
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
    diff = check_diffusion_tangency(model, chart, jacobian(chart, [0.5, 0.5], model.geometry))
    assert diff.rho[0] == pytest.approx(1.0, abs=1e-14)


def test_grid_span_reduced_drift_is_diagonal():
    m = 16
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), sine_mode(m, 2)))
    chart = linear_span_chart([sine_mode(m, 1), sine_mode(m, 2)], [[-2.0, 2.0]] * 2)
    lam = [laplace_eigenvalue(m, k) for k in (1, 2)]
    for x in ([0.5, -0.3], [1.2, 0.7]):
        check = check_drift_tangency(model, chart, jacobian(chart, x, model.geometry))
        assert check.rho <= 1e-12
        np.testing.assert_allclose(check.beta, [lam[0] * x[0], lam[1] * x[1]],
                                   rtol=1e-10)


def test_transport_reduced_coefficients_closed_form():
    model, chart = transport_setup(32)
    x = 0.3
    a, beta = reduced_coefficients(model, chart, jacobian(chart, [x], model.geometry))
    want = math.pi ** (-0.25) * math.exp(-0.5 * x * x)
    assert a[0, 0] == pytest.approx(want, abs=1e-8)
    assert beta[0] == pytest.approx(want, abs=1e-8)


def test_unknown_drift_form_rejected():
    model, chart = transport_setup(16)
    with pytest.raises(ValueError):
        check_drift_tangency(model, chart, jacobian(chart, [0.1], model.geometry), form="milstein")


def test_sweep_rejects_an_unknown_form():
    # a misspelt form must not skip the drift check and still give a verdict
    model, chart = transport_setup(16)
    with pytest.raises(ValueError, match="brackett"):
        sweep(model, chart, SamplingSpec(points_per_axis=3), form="brackett")


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
                            eval=lambda x: v * x[..., 0] ** 2)
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


def test_drift_forms_recover_one_reduced_drift_on_a_plane():
    # transport noise over 2-d shifts: the stratonovich form rebuilds beta
    # from the chart derivative of a along both axes
    n = 16
    at_zero, off = DualField.dirac([0.0, 0.0], n=n), DualField.dirac([0.3, -0.2], n=n)
    model = ItoTypeModel(d=2, J=1, N=n, b=(at_zero, off), sigma=((at_zero, off),))
    chart = translation_chart(basis([0, 0], n), [[-1.0, 1.0], [-1.0, 1.0]])
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3))
    assert rep.verdict == "tangent"
    np.testing.assert_allclose(rep.beta_strat, rep.beta, atol=1e-7)
    assert np.abs(rep.beta).max() > 0.1


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


# -- batched sweep against single-point sweeps ---------------------------------------------

POINT_FIELDS = (
    "rho_diffusion", "a_coords", "beta", "rho_drift", "rho_drift_strat", "beta_strat",
    "spill", "thresholds",
)


def assert_matches_pointwise(model, chart, sampling, tol=None, **kwargs):
    """Sweep the sampled points as a batch and one at a time, and compare.

    Every field must agree to 1e-12 unless ``tol`` names a looser bound.
    """
    tol = tol or {}
    got = sweep(model, chart, sampling, **kwargs)
    warnings = []
    for s, x in enumerate(got.points):
        try:
            one = sweep(model, chart, SamplingSpec(points=[x]), **kwargs)
        except DegenerateChartError:
            # a lone degenerate point fails its own sweep; the batch records
            # it with the point's own rank message
            with pytest.raises(DegenerateChartError) as err:
                jacobian(chart, x, model.geometry, mode=kwargs.get("jac_mode", "auto"))
            assert got.degenerate[s]
            assert np.isnan(got.rho_drift[s]) and np.isnan(got.beta[s]).all()
            warnings.append(str(err.value))
            continue
        assert not got.degenerate[s]
        for name in POINT_FIELDS:
            want = getattr(one, name)
            if want is None:
                assert getattr(got, name) is None, name
                continue
            bound = tol.get(name, 1e-12)
            np.testing.assert_allclose(
                getattr(got, name)[s], want[0], rtol=bound, atol=bound, err_msg=f"{name} at {x}"
            )
        warnings.extend(one.warnings)
    assert got.warnings == warnings
    return got


def preset_sweep(source):
    cfg = load_config(source)
    kwargs = sweep_config(cfg)
    return build_model(cfg), build_manifold(cfg), kwargs.pop("sampling"), kwargs


@pytest.mark.parametrize("preset", preset_names())
def test_batched_sweep_matches_pointwise_on_presets(preset):
    model, chart, sampling, kwargs = preset_sweep({"preset": preset, "check": {"points_per_axis": 4}})
    assert_matches_pointwise(model, chart, sampling, **kwargs)


@pytest.mark.parametrize("preset, per_axis", [("ito_translation_d1", 300), ("plaplace_p2_eigen", 9)])
def test_batched_sweep_matches_pointwise_across_blocks(preset, per_axis):
    model, chart, sampling, kwargs = preset_sweep(
        {"preset": preset, "check": {"points_per_axis": per_axis}}
    )
    geo = model.geometry
    rows_per_block = SWEEP_BLOCK_ENTRIES // geo.flat(geo.zero_state()).size
    rep = assert_matches_pointwise(model, chart, sampling, **kwargs)
    assert rep.points.shape[0] > rows_per_block  # at least two blocks


# BLAS sums a one-row and a many-row product in different orders, and an fd
# frame divides that rounding by its step h; the stratonovich beta takes the
# chart derivative of the fd frame's coordinates, another division by h.
# Translation charts shift through such products, linear spans do not.
EPS = np.finfo(float).eps
FD_FRAME_TOL = {name: 100 * EPS / 1e-4 for name in POINT_FIELDS}
FD_FRAME_TOL["beta_strat"] = 100 * EPS / 1e-4**2


@pytest.mark.parametrize(
    "preset, tol",
    [
        ("ito_translation_d1", FD_FRAME_TOL),
        ("ito_translation_d1_negative", FD_FRAME_TOL),
        ("negative_control", None),
        ("plaplace_p2_eigen", None),
    ],
)
def test_batched_sweep_matches_pointwise_with_finite_differences(preset, tol):
    model, chart, sampling, kwargs = preset_sweep(
        {"preset": preset, "check": {"points_per_axis": 4, "jac_mode": "fd", "da_mode": "fd"}}
    )
    rep = assert_matches_pointwise(model, chart, sampling, tol=tol, **kwargs)
    # transport noise depends on the state; the grid and extra fields do not
    assert (rep.max_step_disagreement > 0.0) == (preset.startswith("ito_translation"))


def test_batched_sweep_matches_pointwise_with_degenerate_points():
    n = 8
    v = basis([1], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]],
                            eval=lambda x: v * x[..., 0] ** 2)
    model = ItoTypeModel(
        d=1, J=1, N=n, b=(dirac0(n),), sigma=((dirac0(n),),),
        extra_fields=(basis([2], n),),
    )
    rep = assert_matches_pointwise(model, chart, SamplingSpec(points_per_axis=5), form="both")
    np.testing.assert_array_equal(rep.degenerate, [False, False, True, False, False])


class CubicNoise:
    """A single-state model with one noise field cubic in the state."""

    def __init__(self, n):
        self.geometry = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=()).geometry
        self.n_noise = 1

    def drift(self, y):
        return y * 0.0

    def diffusion(self, y):
        return [y * (y.coeffs**2).sum(-1)]


def test_batched_sweep_keeps_per_point_warnings_in_order(monkeypatch):
    # a top-heavy profile warns at every point, and the coarse fd step on
    # the cubic noise makes the correction step-sensitive
    monkeypatch.setattr(models, "FD_STEP_DA", 0.5)
    n = 8
    chart = translation_chart(basis([8], n), [[-2.0, 2.0]])
    sampling = SamplingSpec(points_per_axis=4)
    rep = assert_matches_pointwise(CubicNoise(n), chart, sampling, form="stratonovich")
    # each point's warnings stay together, in check order
    assert [w.split(" ")[0] for w in rep.warnings] == ["chart", "directional"] * 4
    assert rep.max_step_disagreement > 1e-5


def test_sweep_writes_the_frame_and_step_notes(monkeypatch):
    # frames and corrections return numbers; the sweep writes these texts
    n = 6
    v0 = basis([0], n)
    chart = linear_span_chart([v0, v0 + basis([1], n) * 1e-8], [[-1.0, 1.0]] * 2)
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    rep = sweep(model, chart, SamplingSpec(points=[[0.1, 0.1], [-0.5, 0.25]]))
    assert rep.warnings == [
        "ill-conditioned tangent Gram matrix at x=[0.1, 0.1]: cond=1.333e+16",
        "ill-conditioned tangent Gram matrix at x=[-0.5, 0.25]: cond=1.333e+16",
    ]
    chart = translation_chart(basis([0], 8), [[-2.0, 2.0]])
    monkeypatch.setattr(models, "FD_STEP_DA", 0.5)
    rep = sweep(CubicNoise(8), chart, SamplingSpec(points=[[0.5], [-1.0]]), form="stratonovich")
    assert rep.warnings == [
        "directional difference is step-sensitive: halving the step moved "
        "the correction by a relative 1.368e-02",
        "directional difference is step-sensitive: halving the step moved "
        "the correction by a relative 1.057e-02",
    ]


def test_degenerate_shifted_frame_is_recorded_not_fatal():
    # x -> v x^2 loses rank at 0, which the stratonovich form reaches from
    # x = 1e-4 through its shifted point x - h
    m = 8
    v = sine_mode(m, 1)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1),))
    rep = sweep(model, chart, SamplingSpec(points=[[0.5], [1e-4]]), form="both")
    np.testing.assert_array_equal(rep.degenerate, [False, True])
    assert rep.warnings == ["chart derivative is rank deficient at x=[0.0]: singular values [0.0]"]
    for name in ("rho_diffusion", "a_coords", "beta", "rho_drift", "rho_drift_strat", "beta_strat"):
        assert np.isnan(getattr(rep, name)[1]).all(), name
    assert rep.spill[1] == 0.0
    # the rest of the block keeps its values
    alone = sweep(model, chart, SamplingSpec(points=[[0.5]]), form="both")
    for name in POINT_FIELDS:
        np.testing.assert_allclose(getattr(rep, name)[0], getattr(alone, name)[0], rtol=1e-12, atol=1e-12)
    assert rep.verdict == alone.verdict


# -- report shape ------------------------------------------------------------------------


def test_report_json_round_trip_with_nan_rows():
    n = 6
    v = basis([1], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]],
                            eval=lambda x: v * x[..., 0] ** 2)
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


# -- report artifacts read back ------------------------------------------------------------


def written_report(rep, root):
    """The report written as `check` writes it, and read back: JSON document and CSV rows."""
    header, rows = rep.to_csv_rows()
    _write_csv(root / "report.csv", header, rows)
    _write_json(root / "report.json", rep)
    with (root / "report.csv").open(newline="") as fh:
        read = list(csv.reader(fh))
    assert read == [header, *rows]
    text = (root / "report.json").read_text()
    assert "NaN" not in text
    return json.loads(text), read[0], read[1:]


def assert_same_bits(values, expected):
    values = np.array(values, dtype=float)  # a JSON null reads as NaN
    expected = np.asarray(expected, dtype=float)
    assert values.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(values), nan)
    assert values[~nan].tobytes() == expected[~nan].tobytes()


def assert_report_round_trips(rep, root):
    doc, header, rows = written_report(rep, root)
    s_count, m = rep.points.shape
    n_noise = rep.rho_diffusion.shape[1]
    for name in ("points", "rho_diffusion", "beta", "rho_drift", "spill", "thresholds"):
        assert_same_bits(doc[name], getattr(rep, name))
    for name in ("rho_drift_strat", "beta_strat"):
        if getattr(rep, name) is None:
            assert doc[name] is None
        else:
            assert_same_bits(doc[name], getattr(rep, name))
    if n_noise:
        assert_same_bits(doc["a_coords"], rep.a_coords)
    else:
        assert doc["a_coords"] == []
    assert doc["degenerate"] == rep.degenerate.tolist()

    col = {name: i for i, name in enumerate(header)}
    per_point = max(n_noise, 1)
    assert len(rows) == s_count * per_point

    def floats(rows, name):
        cells = [r[col[name]] for r in rows]
        values = [float(c) for c in cells]
        assert all(c == "nan" for c, v in zip(cells, values) if v != v)
        return values

    own = [f"x_{k}" for k in range(m)] + ["rho_drift", *(f"beta_{k}" for k in range(m))]
    own += ["rho_drift_strat", "spill", "threshold", "degenerate"]
    for s in range(s_count):
        block = rows[s * per_point : (s + 1) * per_point]
        assert {r[col["point"]] for r in block} == {str(s)}
        # a point's own cells are the same text on every component row
        assert all([r[col[c]] for c in own] == [block[0][col[c]] for c in own] for r in block)
    first = rows[::per_point]
    assert_same_bits(np.array([floats(first, f"x_{k}") for k in range(m)]).T, rep.points)
    assert_same_bits(floats(first, "rho_drift"), rep.rho_drift)
    assert_same_bits(np.array([floats(first, f"beta_{k}") for k in range(m)]).T, rep.beta)
    if rep.rho_drift_strat is None:
        assert {r[col["rho_drift_strat"]] for r in rows} == {""}
    else:
        assert_same_bits(floats(first, "rho_drift_strat"), rep.rho_drift_strat)
    assert_same_bits(floats(first, "spill"), rep.spill)
    assert_same_bits(floats(first, "threshold"), rep.thresholds)
    assert [r[col["degenerate"]] for r in first] == [str(d) for d in rep.degenerate.tolist()]
    component = ["j", "rho_diffusion", *(f"a_{k}" for k in range(m))]
    if not n_noise:
        assert all(r[col[c]] == "" for r in rows for c in component)
        return
    assert [r[col["j"]] for r in rows] == [str(j) for j in range(n_noise)] * s_count
    assert_same_bits(np.reshape(floats(rows, "rho_diffusion"), (s_count, n_noise)), rep.rho_diffusion)
    a = np.array([floats(rows, f"a_{k}") for k in range(m)]).T.reshape(s_count, n_noise, m)
    assert_same_bits(a, rep.a_coords)


def test_report_artifacts_round_trip_two_components_on_a_plane(tmp_path):
    m = 16
    mixed = sine_mode(m, 1) * 0.6 + sine_mode(m, 3) * 0.8
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), mixed))
    chart = linear_span_chart([sine_mode(m, 1), sine_mode(m, 2)], [[-2.0, 2.0]] * 2)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3), form="both")
    assert rep.rho_diffusion.shape == (9, 2) and rep.rho_drift_strat is not None
    assert_report_round_trips(rep, tmp_path)


def test_report_artifacts_round_trip_without_noise(tmp_path):
    n = 8
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    chart = linear_span_chart([basis([0], n)], [[-1.0, 1.0]])
    for form in ("bracket", "both"):
        root = tmp_path / form
        root.mkdir()
        assert_report_round_trips(sweep(model, chart, SamplingSpec(points_per_axis=3), form=form), root)


def test_report_artifacts_round_trip_with_a_degenerate_row(tmp_path):
    m = 8
    v = sine_mode(m, 1)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), sine_mode(m, 2)))
    rep = sweep(model, chart, SamplingSpec(points_per_axis=3), form="both")
    np.testing.assert_array_equal(rep.degenerate, [False, True, False])
    assert_report_round_trips(rep, tmp_path)
    doc, header, rows = written_report(rep, tmp_path)
    assert doc["rho_drift"][1] is None and doc["a_coords"][1] == [[None], [None]]
    assert rows[2][header.index("rho_diffusion")] == "nan"


# -- report artifacts against the stdlib writers ---------------------------------------------


def reference_csv_rows(rep):
    """The report's CSV rows with every float formatted on its own by repr."""
    s_count, m = rep.points.shape
    n_noise = rep.rho_diffusion.shape[1]
    rows = []
    for s in range(s_count):
        strat = "" if rep.rho_drift_strat is None else repr(float(rep.rho_drift_strat[s]))
        tail = [repr(float(rep.rho_drift[s])), *map(repr, rep.beta[s].tolist()), strat,
                repr(float(rep.spill[s])), repr(float(rep.thresholds[s])),
                str(bool(rep.degenerate[s]))]
        lead = [str(s), *map(repr, rep.points[s].tolist())]
        if not n_noise:
            rows.append([*lead, "", "", *[""] * m, *tail])
        for j in range(n_noise):
            own = [repr(float(rep.rho_diffusion[s, j])), *map(repr, rep.a_coords[s, j].tolist())]
            rows.append([*lead, str(j), *own, *tail])
    return rows


def assert_stdlib_bytes(rep, root):
    """report.csv is what csv.writer writes of repr cells, report.json what json.dumps writes."""
    header, rows = rep.to_csv_rows()
    assert rows == reference_csv_rows(rep)
    _write_csv(root / "report.csv", header, rows)
    _write_json(root / "report.json", rep)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    assert (root / "report.csv").read_bytes() == buf.getvalue().encode()
    text = json.dumps(rep.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    assert (root / "report.json").read_bytes() == text.encode()
    return text


def with_signed_zeros_and_infinities(rep):
    """The report with -0.0 beside 0.0 in one column, and +-inf in others."""
    beta = rep.beta.copy()
    beta[0], beta[-1] = -0.0, 0.0
    spill, rho_drift = rep.spill.copy(), rep.rho_drift.copy()
    spill[0], rho_drift[-1] = np.inf, -np.inf
    a_coords = rep.a_coords.copy()
    if a_coords.size:
        a_coords[0, 0] = -0.0
        a_coords[-1, -1] = 0.0
    return dataclasses.replace(rep, beta=beta, spill=spill, rho_drift=rho_drift, a_coords=a_coords)


def nan_rows_report():
    m = 8
    v = sine_mode(m, 1)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), sine_mode(m, 2)))
    return sweep(model, chart, SamplingSpec(points_per_axis=3), form="both")


def no_noise_nan_rows_report():
    n = 6
    v = basis([1], n)
    chart = Parametrization(m=1, domain=[[-1.0, 1.0]], eval=lambda x: v * x[..., 0] ** 2)
    model = ItoTypeModel(d=1, J=0, N=n, b=(DualField.zero(1),), sigma=())
    return sweep(model, chart, SamplingSpec(points_per_axis=3), metadata={"label": "probe, \"q\""})


def plane_report():
    m = 16
    mixed = sine_mode(m, 1) * 0.6 + sine_mode(m, 3) * 0.8
    model = PLaplaceModel(2.0, m, fields=(sine_mode(m, 1), mixed))
    chart = linear_span_chart([sine_mode(m, 1), sine_mode(m, 2)], [[-2.0, 2.0]] * 2)
    return sweep(model, chart, SamplingSpec(points_per_axis=4), form="both")


def test_report_files_are_the_stdlib_writers_bytes_with_nan_rows(tmp_path):
    rep = nan_rows_report()
    assert rep.degenerate.any() and rep.rho_diffusion.shape[1] == 2
    assert "null" in assert_stdlib_bytes(rep, tmp_path)


def test_report_files_are_the_stdlib_writers_bytes_with_signed_zeros_and_infinities(tmp_path):
    rep = with_signed_zeros_and_infinities(nan_rows_report())
    text = assert_stdlib_bytes(rep, tmp_path)
    assert "Infinity" in text and "-Infinity" in text and "-0.0" in text
    header, rows = rep.to_csv_rows()
    beta = [r[header.index("beta_0")] for r in rows]
    assert beta[0] == "-0.0" and beta[-1] == "0.0"
    assert rows[0][header.index("spill")] == "inf"


def test_report_files_are_the_stdlib_writers_bytes_without_noise(tmp_path):
    for k, rep in enumerate([no_noise_nan_rows_report(),
                             with_signed_zeros_and_infinities(no_noise_nan_rows_report())]):
        root = tmp_path / str(k)
        root.mkdir()
        assert rep.a_coords.size == 0
        assert '"a_coords":[]' in assert_stdlib_bytes(rep, root)


def test_report_files_are_the_stdlib_writers_bytes_on_a_plane(tmp_path):
    for k, rep in enumerate([plane_report(), with_signed_zeros_and_infinities(plane_report())]):
        root = tmp_path / str(k)
        root.mkdir()
        assert rep.points.shape == (16, 2)
        assert_stdlib_bytes(rep, root)


def test_report_files_are_the_stdlib_writers_bytes_for_a_bracket_only_sweep(tmp_path):
    model, chart = transport_setup(16)
    rep = sweep(model, chart, SamplingSpec(points_per_axis=5), form="bracket")
    assert rep.rho_drift_strat is None and rep.beta_strat is None
    assert '"beta_strat":null' in assert_stdlib_bytes(rep, tmp_path)
