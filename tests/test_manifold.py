"""Charts, tangent frames, brackets, and closest-point distances."""

import dataclasses
import math

import numpy as np
import pytest

from spde_manifold import (
    DegenerateChartError,
    Parametrization,
    linear_span_chart,
    translation_chart,
)
from spde_manifold import manifold
from spde_manifold.geometry import HermiteGeometry
from spde_manifold.hermite import SpectralState, derivative, second_derivative, translate
from spde_manifold.manifold import block_frame, bracket, distance_to_manifold, jacobian
from spde_manifold.tangency import COND_WARN


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


def test_translation_chart_shifts_once_per_batch(monkeypatch):
    profile = basis([0], 64)
    chart = translation_chart(profile, BOX1)
    geo = HermiteGeometry(1, 64)
    shifts = []

    def counted(state, x):
        shifts.append(np.array(x))
        return translate(state, x)

    monkeypatch.setattr(manifold, "translate", counted)
    first = np.linspace(-1.5, 1.5, 252)[:, None]
    second = first + 1e-3
    coords = np.ones_like(first)
    frame = jacobian(chart, first, geo)
    bracket(chart, first, coords, coords)
    assert len(shifts) == 1  # eval, jac and hess at one batch share its shift
    np.testing.assert_array_equal(chart.eval(second).coeffs, translate(profile, second).coeffs)
    jacobian(chart, second, geo)
    assert len(shifts) == 2
    np.testing.assert_array_equal(chart.eval(first).coeffs, frame.image.coeffs)
    assert len(shifts) == 3  # only the last batch is kept
    np.testing.assert_array_equal(shifts[2], first)


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind", ["translation", "span"])
def test_frame_image_is_the_chart_state_at_its_points(kind, mode):
    geo = HermiteGeometry(1, 12)
    if kind == "translation":
        chart = translation_chart(basis([0], 12), BOX1)
        x = np.array([[-0.4], [0.1], [0.7]])
    else:
        chart = linear_span_chart([basis([0], 12), basis([2], 12)], BOX2)
        x = np.array([[0.3, -0.2], [1.0, 0.5]])
    for point in (x[0], x):
        frame = jacobian(chart, point, geo, mode=mode)
        np.testing.assert_array_equal(frame.image.coeffs, chart.eval(frame.x).coeffs)


def test_frame_image_holds_only_the_rows_a_block_frame_kept():
    # x -> x^2 v has a vanishing column at the origin
    v = basis([1], 4)
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2)
    x = np.array([[-1.0], [0.0], [0.5]])
    kept, frame, dropped = block_frame(chart, x, HermiteGeometry(1, 4))
    assert kept.tolist() == [0, 2] and list(dropped) == [1]
    np.testing.assert_array_equal(frame.image.coeffs, chart.eval(x[kept]).coeffs)


def test_fd_jacobian_close_to_analytic():
    geo = HermiteGeometry(1, 16)
    chart = translation_chart(basis([0], 16), BOX1)
    fa = jacobian(chart, [0.25], geo, mode="analytic")
    ff = jacobian(chart, [0.25], geo, mode="fd")
    gap = float(np.linalg.norm(fa.columns[0].coeffs - ff.columns[0].coeffs))
    assert gap < 1e-6


def test_fd_jacobian_is_second_order(monkeypatch):
    """Error against the analytic column should shrink ~4x per halving."""
    geo = HermiteGeometry(1, 16)
    chart = translation_chart(basis([0], 16), BOX1)
    exact = jacobian(chart, [0.25], geo, mode="analytic").columns[0].coeffs
    errs = []
    for h in (2e-2, 1e-2, 5e-3, 2.5e-3):
        monkeypatch.setattr(manifold, "FD_STEP_JACOBIAN", h)
        col = jacobian(chart, [0.25], geo, mode="fd").columns[0].coeffs
        errs.append(float(np.linalg.norm(col - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders), orders


def test_analytic_mode_requires_analytic_chart():
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: basis([0], 4) * x[..., 0])
    with pytest.raises(ValueError):
        jacobian(chart, [0.5], HermiteGeometry(1, 4), mode="analytic")


def test_unknown_jacobian_mode_rejected():
    chart = translation_chart(basis([0], 8), BOX1)
    with pytest.raises(ValueError, match="jacobian mode"):
        jacobian(chart, [0.1], HermiteGeometry(1, 8), mode="analytc")


def test_degenerate_chart_raises():
    # eval x -> x^2 v has vanishing derivative at the origin
    v = basis([1], 4)
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2)
    with pytest.raises(DegenerateChartError):
        jacobian(chart, [0.0], HermiteGeometry(1, 4))


def test_near_parallel_columns_warn_but_survive():
    geo = HermiteGeometry(1, 6)
    v0 = basis([0], 6)
    v1 = v0 + basis([1], 6) * 1e-8
    frame = jacobian(linear_span_chart([v0, v1], BOX2), [0.1, 0.1], geo)
    # the frame reports the number; the sweep writes the note
    assert frame.cond > COND_WARN


def svd_of_weighted_columns(frame):
    geo, order = frame.geometry, frame.geometry.work_order
    sw = np.sqrt(geo.weight_vector(order))
    b = np.stack([sw * geo.flat(c, order) for c in frame.columns], axis=-1)
    return np.linalg.svd(b, compute_uv=False)


def test_frame_spectrum_comes_from_its_one_factorization():
    # the frame takes its singular values from R of its thin QR; they must
    # be those of the weighted columns, at one point and per point of a batch
    span = linear_span_chart(
        [basis([0], 8) + basis([2], 8) * 0.5, basis([1], 8) * 3.0 + basis([0], 8)], BOX2
    )
    profile = basis([0, 0], 8) + basis([1, 0], 8) * 0.3 + basis([0, 2], 8) * 0.2
    cases = [
        (span, [0.3, -0.2], HermiteGeometry(1, 8)),
        (translation_chart(profile, BOX2), [[0.1, -0.3], [0.5, 0.2], [-1.0, 0.7]],
         HermiteGeometry(2, 8)),
    ]
    for chart, x, geo in cases:
        frame = jacobian(chart, x, geo)
        want = svd_of_weighted_columns(frame)
        np.testing.assert_allclose(frame.singular_values, want, rtol=1e-12)
        np.testing.assert_allclose(
            frame.cond, (want[..., 0] / want[..., -1]) ** 2, rtol=1e-12
        )


def test_batched_degenerate_rows_carry_their_own_messages():
    v = basis([1], 4)
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2)
    geo = HermiteGeometry(1, 4)
    with pytest.raises(DegenerateChartError) as err:
        jacobian(chart, [[0.5], [0.0], [0.3], [0.0]], geo)
    np.testing.assert_array_equal(err.value.rows, [False, True, False, True])
    with pytest.raises(DegenerateChartError) as one:
        jacobian(chart, [0.0], geo)
    assert err.value.messages == [str(one.value)] * 2


# -- tangent coordinates ------------------------------------------------------------


def test_project_member_of_span():
    geo = HermiteGeometry(1, 8)
    frame = jacobian(linear_span_chart([basis([0], 8), basis([1], 8)], BOX2), [0.0, 0.0], geo)
    res = frame.project(basis([0], 8) * 2.5)
    np.testing.assert_allclose(res.coords, [2.5, 0.0], atol=1e-13)
    assert res.rel_residual < 1e-13


def test_project_orthogonal_field():
    geo = HermiteGeometry(1, 8)
    frame = jacobian(linear_span_chart([basis([0], 8), basis([1], 8)], BOX2), [0.0, 0.0], geo)
    res = frame.project(basis([2], 8))
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



@pytest.mark.parametrize("d", [1, 2])
def test_project_above_the_working_order(rng, d):
    # the sweep projects diffusion fields at N + 1 and drift fields at N + 2
    geo, n = HermiteGeometry(d, 6), 6
    cols = [SpectralState(d, n, rng.standard_normal((n + 1,) * d)) for _ in range(2)]
    field = SpectralState(d, n + 2, rng.standard_normal((n + 3,) * d))
    frame = jacobian(linear_span_chart(cols, BOX2), [0.0, 0.0], geo)
    res = frame.project(field)

    # dense weighted least squares on the columns zero-padded to the field's order
    sw = np.sqrt(geo.weight_vector(n + 2))
    a = sw[:, None] * np.stack([geo.flat(c, n + 2) for c in cols], axis=1)
    b = sw * geo.flat(field, n + 2)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual, norm = np.linalg.norm(b - a @ want), np.linalg.norm(b)
    np.testing.assert_allclose(res.coords, want, rtol=0.0, atol=1e-12)
    assert res.residual == pytest.approx(residual, rel=0.0, abs=1e-12)
    assert res.field_norm == pytest.approx(norm, rel=0.0, abs=1e-12)
    assert res.rel_residual == pytest.approx(residual / norm, rel=0.0, abs=1e-12)
    assert res.spill > 0.0 and res.spill == geo.spill_ratio(field)

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
        m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2
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
        return v * (x[..., 0] * x[..., 1])

    chart = Parametrization(m=2, domain=BOX2, eval=_eval)
    out = bracket(chart, [0.3, 0.5], [1.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(out.coeffs, v.coeffs, atol=1e-8)


# -- distances --------------------------------------------------------------------------


def test_distance_zero_on_manifold():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([[0.45]]))
    res = distance_to_manifold(chart, y, [0.2], geo)
    assert res.converged
    assert res.distance[0] < 1e-10
    assert res.x[0, 0] == pytest.approx(0.45, abs=1e-8)


def test_distance_takes_only_a_batch_of_states():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    with pytest.raises(ValueError):
        distance_to_manifold(chart, chart.eval(np.array([0.45])), [0.2], geo)


def test_distance_to_span_equals_normal_component():
    geo = HermiteGeometry(1, 8)
    chart = linear_span_chart([basis([0], 8)], BOX1)
    eps = 1e-3
    y = (basis([0], 8) * 1.2 + basis([5], 8) * eps) * np.ones(1)  # a one-row batch
    res = distance_to_manifold(chart, y, [0.0], geo)
    assert res.converged
    assert res.newton_steps == 0  # a linear chart's Hessian is zero: Gauss-Newton steps
    # mid norm of eps * h_5 under the default half-step scale
    assert res.distance[0] == pytest.approx(eps * math.sqrt(11.0), rel=1e-10)
    assert res.x[0, 0] == pytest.approx(1.2, abs=1e-10)


def test_distance_matches_grid_search():
    geo = HermiteGeometry(1, 30)
    profile = basis([0], 30)
    chart = translation_chart(profile, BOX1)
    y = translate(profile, 0.31) + basis([1], 30) * 0.05
    res = distance_to_manifold(chart, y * np.ones(1), [0.0], geo)  # y as a one-row batch
    assert res.converged

    shifts = np.linspace(0.2, 0.4, 2001)
    grid_best = min(geo.norm_diff(translate(profile, s), y) for s in shifts)
    assert res.distance[0] <= grid_best + 1e-12
    assert abs(res.distance[0] - grid_best) < 1e-6


def test_distance_stops_only_the_path_whose_frame_degenerates():
    geo = HermiteGeometry(1, 4)
    v = basis([1], 4)
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2)
    y = chart.eval(np.array([[0.6], [0.5]]))
    res = distance_to_manifold(chart, y, [[0.5], [0.0]], geo)
    alone = distance_to_manifold(chart, chart.eval(np.array([[0.6]])), [0.5], geo)
    assert list(res.path_converged) == [True, False]
    assert res.x[0, 0] == alone.x[0, 0] and res.distance[0] == alone.distance[0]
    # the degenerate start is kept, with its distance to the target
    assert res.x[1, 0] == 0.0
    assert res.distance[1] == pytest.approx(geo.norm_mid(v * 0.25), rel=1e-14)



def test_distance_backtracking_rows_solve_as_alone():
    geo = HermiteGeometry(1, 4)
    v = basis([1], 4)
    # v x^2 rounds the same at any row count, so a row cannot see its batch
    chart = Parametrization(m=1, domain=BOX1, eval=lambda x: v * x[..., 0] ** 2)
    target, start = chart.eval(np.array([0.6])), np.array([0.1])
    full = start - jacobian(chart, start, geo).coordinates(chart.eval(start) - target)
    assert full[0] == pytest.approx(1.85, abs=1e-6)
    assert geo.norm_diff(chart.eval(full), target) > geo.norm_diff(chart.eval(start), target)

    # the full step is rejected, taken at once, and never tried (degenerate frame at 0)
    ends, starts = [0.6, 0.6, 0.5], [0.1, 0.55, 0.0]
    y, x0 = chart.eval(np.array(ends)[:, None]), np.array(starts)[:, None]
    res = distance_to_manifold(chart, y, x0, geo)
    # the first iteration halves the step twice: the full and the half step raise the cost
    first = distance_to_manifold(chart, y, x0, geo, max_iter=1)
    assert first.x[0, 0] == pytest.approx(0.1 + 0.25 * (full[0] - 0.1), rel=0.0, abs=1e-12)
    assert first.backtracks == 2 and first.newton_steps == 0  # no chart Hessian
    alone = [
        distance_to_manifold(chart, chart.eval(np.array([[e]])), [s], geo)
        for e, s in zip(ends, starts)
    ]
    assert list(res.path_converged) == [True, True, False]
    assert res.x[0, 0] == pytest.approx(0.6, abs=1e-10)
    for r, solo in enumerate(alone):
        assert res.x[r, 0] == solo.x[0, 0] and res.distance[r] == solo.distance[0]
        assert res.path_converged[r] == solo.converged
    assert res.iterations == sum(solo.iterations for solo in alone)
    # a row's own count is the smallest iteration cap at which it converges
    for r, solo in enumerate(alone[:2]):
        capped = [
            distance_to_manifold(chart, y, x0, geo, max_iter=k).path_converged[r]
            for k in range(1, solo.iterations + 1)
        ]
        assert capped == [False] * (solo.iterations - 1) + [True]


def test_distance_takes_newton_steps_off_a_curved_chart():
    # off a translation chart the residual curvature S is large: the Newton
    # step reaches Gauss-Newton's minimum in fewer iterations
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    gauss_newton = dataclasses.replace(chart, hess=None)
    y = chart.eval(np.array([[0.3]])) + basis([2], 20)
    res = distance_to_manifold(chart, y, [0.0], geo)
    ref = distance_to_manifold(gauss_newton, y, [0.0], geo)
    assert res.converged and ref.converged
    assert res.newton_steps > 0 and ref.newton_steps == 0
    assert res.iterations < ref.iterations
    assert res.x[0, 0] == pytest.approx(ref.x[0, 0], abs=1e-8)
    assert res.distance[0] == pytest.approx(ref.distance[0], rel=1e-12)
    # where J'WJ + S is not safely positive definite the step stays Gauss-Newton's
    y = chart.eval(np.array([[0.3]])) + basis([3], 20)
    res = distance_to_manifold(chart, y, [0.0], geo)
    assert res.converged and 0 < res.newton_steps < res.iterations


def test_distance_iteration_cap_reports_nonconverged():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([[0.3]]))
    res = distance_to_manifold(chart, y, [0.0], geo, max_iter=1)
    assert not res.converged
    assert res.iterations == 1


def test_distance_warm_start_refines():
    geo = HermiteGeometry(1, 20)
    chart = translation_chart(basis([0], 20), BOX1)
    y = chart.eval(np.array([[0.45]]))
    first = distance_to_manifold(chart, y, [0.0], geo, step_tol=1e-5)
    second = distance_to_manifold(chart, y, first.x, geo, step_tol=1e-12)
    assert second.distance[0] <= first.distance[0] + 1e-15
    assert second.distance[0] < 1e-12
