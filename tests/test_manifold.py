"""Charts, tangent frames, brackets, and closest-point distances."""

import math

import numpy as np
import pytest

from spde_manifold import (
    DegenerateChartError,
    Parametrization,
    SpectralState,
    bracket,
    derivative,
    distance_to_manifold,
    jacobian,
    linear_span_chart,
    second_derivative,
    tangent_coordinates,
    translate,
    translation_chart,
)
from spde_manifold.geometry import HermiteGeometry


def basis(index, n=None):
    return SpectralState.basis(index, n)


BOX1 = [[-2.0, 2.0]]
BOX2 = [[-2.0, 2.0], [-2.0, 2.0]]


# -- parametrization plumbing --------------------------------------------------


def test_domain_rows_must_be_increasing():
    with pytest.raises(ValueError):
        Parametrization(m=1, domain=[[1.0, -1.0]], eval=lambda x: basis([0]))


def test_contains_with_margin():
    p = linear_span_chart([basis([0], 4)], [[0.0, 1.0]])
    assert p.contains([0.5])
    assert not p.contains([1.2])
    assert not p.contains([0.99], margin=0.05)


# -- jacobians -------------------------------------------------------------------


def test_span_jacobian_columns_are_the_vectors():
    geo = HermiteGeometry(1, 6)
    vecs = [basis([0], 6), basis([1], 6) * 2.0]
    chart = linear_span_chart(vecs, BOX2)
    frame = jacobian(chart, [0.3, -0.2], geo)
    assert frame.m == 2
    for col, vec in zip(frame.columns, vecs):
        np.testing.assert_allclose(col.coeffs, vec.coeffs, atol=1e-15)


def test_translation_jacobian_is_minus_shifted_derivative():
    geo = HermiteGeometry(1, 20)
    profile = basis([0], 20)
    chart = translation_chart(profile, BOX1)
    frame = jacobian(chart, [0.3], geo)
    want = -derivative(translate(profile, 0.3))
    got = frame.columns[0]
    np.testing.assert_allclose(got.coeffs, want.coeffs[: got.N + 1], atol=1e-14)


def test_fd_jacobian_close_to_analytic():
    geo = HermiteGeometry(1, 16)
    chart = translation_chart(basis([0], 16), BOX1)
    fa = jacobian(chart, [0.25], geo, mode="analytic")
    ff = jacobian(chart, [0.25], geo, mode="fd")
    gap = float(np.linalg.norm(fa.columns[0].coeffs - ff.columns[0].coeffs))
    assert gap < 1e-6


def test_fd_jacobian_is_second_order():
    """Error against the analytic column should shrink ~4x per halving."""
    geo = HermiteGeometry(1, 16)
    chart = translation_chart(basis([0], 16), BOX1)
    exact = jacobian(chart, [0.25], geo, mode="analytic").columns[0].coeffs
    errs = []
    for h in (2e-2, 1e-2, 5e-3, 2.5e-3):
        col = jacobian(chart, [0.25], geo, mode="fd", h_fd=h).columns[0].coeffs
        errs.append(float(np.linalg.norm(col - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders), orders


def test_analytic_mode_requires_analytic_chart():
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: basis([0], 4) * float(x[0]))
    with pytest.raises(ValueError):
        jacobian(chart, [0.5], HermiteGeometry(1, 4), mode="analytic")


def test_unknown_jacobian_mode_rejected():
    chart = translation_chart(basis([0], 8), BOX1)
    with pytest.raises(ValueError, match="jacobian mode"):
        jacobian(chart, [0.1], HermiteGeometry(1, 8), mode="analytc")


def test_degenerate_chart_raises():
    # eval x -> x^2 v has vanishing derivative at the origin
    v = basis([1], 4)
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * float(x[0]) ** 2)
    with pytest.raises(DegenerateChartError):
        jacobian(chart, [0.0], HermiteGeometry(1, 4))


def test_near_parallel_columns_warn_but_survive():
    geo = HermiteGeometry(1, 6)
    v0 = basis([0], 6)
    v1 = v0 + basis([1], 6) * 1e-8
    frame = jacobian(linear_span_chart([v0, v1], BOX2), [0.1, 0.1], geo)
    assert frame.cond > 1e12
    assert any("ill-conditioned" in w for w in frame.warnings)


# -- tangent coordinates ------------------------------------------------------------


def test_project_member_of_span():
    geo = HermiteGeometry(1, 8)
    frame = jacobian(linear_span_chart([basis([0], 8), basis([1], 8)], BOX2), [0.0, 0.0], geo)
    res = tangent_coordinates(frame, basis([0], 8) * 2.5)
    np.testing.assert_allclose(res.coords, [2.5, 0.0], atol=1e-13)
    assert res.rel_residual < 1e-13


def test_project_orthogonal_field():
    geo = HermiteGeometry(1, 8)
    frame = jacobian(linear_span_chart([basis([0], 8), basis([1], 8)], BOX2), [0.0, 0.0], geo)
    res = tangent_coordinates(frame, basis([2], 8))
    np.testing.assert_allclose(res.coords, [0.0, 0.0], atol=1e-13)
    assert res.rel_residual == pytest.approx(1.0, rel=1e-12)


def test_project_zero_field():
    geo = HermiteGeometry(1, 8)
    frame = jacobian(linear_span_chart([basis([0], 8)], BOX1), [0.5], geo)
    res = frame.project(SpectralState.zero(1, 8))
    assert res.field_norm == 0.0 and res.residual == 0.0 and res.rel_residual == 0.0


def test_project_matches_dense_weighted_least_squares(rng):
    geo = HermiteGeometry(1, 12)
    cols = [SpectralState(1, 12, rng.standard_normal(13)) for _ in range(3)]
    field = SpectralState(1, 12, rng.standard_normal(13))
    frame = jacobian(linear_span_chart(cols, [[-1, 1]] * 3), [0.0, 0.0, 0.0], geo)
    res = frame.project(field)

    order = geo.embed_order(cols + [field])
    sw = np.sqrt(geo.weight_vector(order))
    a = sw[:, None] * np.stack([geo.flat(c, order) for c in cols], axis=1)
    b = sw * geo.flat(field, order)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    np.testing.assert_allclose(res.coords, want, atol=1e-10)
    assert res.residual == pytest.approx(float(np.linalg.norm(b - a @ want)), abs=1e-10)


def test_project_roundtrip(rng):
    geo = HermiteGeometry(1, 10)
    cols = [basis([0], 10), basis([3], 10), basis([7], 10)]
    frame = jacobian(linear_span_chart(cols, [[-1, 1]] * 3), [0.0, 0.0, 0.0], geo)
    c = rng.standard_normal(3)
    field = cols[0] * c[0] + cols[1] * c[1] + cols[2] * c[2]
    res = frame.project(field)
    np.testing.assert_allclose(res.coords, c, atol=1e-10)
    assert res.rel_residual < 1e-12


# -- brackets -------------------------------------------------------------------------


def test_bracket_vanishes_on_linear_chart():
    chart = linear_span_chart([basis([0], 6), basis([2], 6)], BOX2)
    out = bracket(chart, [0.4, -0.1], [1.0, 2.0], [0.5, -1.0])
    assert not out.coeffs.any()


def test_bracket_translation_closed_form():
    profile = basis([0], 24)
    chart = translation_chart(profile, BOX1)
    a, b = 0.7, -1.3
    out = bracket(chart, [0.2], [a], [b])
    want = second_derivative(translate(profile, 0.2)) * (a * b)
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-13)


def test_bracket_fd_hessian():
    # quadratic chart without an analytic Hessian: exact value is 2 v
    v = basis([2], 6)
    chart = Parametrization(
        m=1, domain=BOX1, eval=lambda x: v * float(x[0]) ** 2
    )
    out = bracket(chart, [0.6], [1.0], [1.0])
    np.testing.assert_allclose(out.coeffs, 2.0 * v.coeffs, atol=1e-5)


def test_bracket_symmetric_and_bilinear(rng):
    profile = basis([1], 16)
    chart = translation_chart(profile, BOX1)
    ca, cb = [0.8], [-0.4]
    ab = bracket(chart, [0.1], ca, cb)
    ba = bracket(chart, [0.1], cb, ca)
    np.testing.assert_allclose(ab.coeffs, ba.coeffs, atol=1e-14)
    scaled = bracket(chart, [0.1], [2.0 * ca[0]], [3.0 * cb[0]])
    np.testing.assert_allclose(scaled.coeffs, 6.0 * ab.coeffs, atol=1e-12)


def test_bracket_mixed_terms_d2():
    # product chart over two axes exercises the off-diagonal FD stencil
    v = basis([0, 0], 4)

    def _eval(x):
        return v * (float(x[0]) * float(x[1]))

    chart = Parametrization(m=2, domain=BOX2, eval=_eval)
    out = bracket(chart, [0.3, 0.5], [1.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(out.coeffs, v.coeffs, atol=1e-8)


# -- distances --------------------------------------------------------------------------


def test_distance_zero_on_manifold():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([0.45]))
    res = distance_to_manifold(chart, y, [0.2], geo)
    assert res.converged
    assert res.distance < 1e-10
    assert res.x[0] == pytest.approx(0.45, abs=1e-8)


def test_distance_to_span_equals_normal_component():
    geo = HermiteGeometry(1, 8)
    chart = linear_span_chart([basis([0], 8)], BOX1)
    eps = 1e-3
    y = basis([0], 8) * 1.2 + basis([5], 8) * eps
    res = distance_to_manifold(chart, y, [0.0], geo)
    assert res.converged
    # mid norm of eps * h_5 under the default half-step scale
    assert res.distance == pytest.approx(eps * math.sqrt(11.0), rel=1e-10)
    assert res.x[0] == pytest.approx(1.2, abs=1e-10)


def test_distance_matches_grid_search():
    geo = HermiteGeometry(1, 30)
    profile = basis([0], 30)
    chart = translation_chart(profile, BOX1)
    y = translate(profile, 0.31) + basis([1], 30) * 0.05
    res = distance_to_manifold(chart, y, [0.0], geo)
    assert res.converged

    shifts = np.linspace(0.2, 0.4, 2001)
    grid_best = min(geo.norm_diff(translate(profile, s), y) for s in shifts)
    assert res.distance <= grid_best + 1e-12
    assert abs(res.distance - grid_best) < 1e-6


def test_distance_iteration_cap_reports_nonconverged():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([0.3]))
    res = distance_to_manifold(chart, y, [0.0], geo, max_iter=1)
    assert not res.converged
    assert res.iterations == 1


def test_distance_warm_start_refines():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([0.45]))
    first = distance_to_manifold(chart, y, [0.0], geo, step_tol=1e-5)
    second = distance_to_manifold(chart, y, first.x, geo, step_tol=1e-12)
    assert second.distance <= first.distance + 1e-15
    assert second.distance < 1e-12
