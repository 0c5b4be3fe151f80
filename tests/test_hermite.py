"""Spectral-state calculus: norms, pairings, ladder operators, shifts."""

import json
import math

import numpy as np
import pytest

from spde_manifold import (
    DEFAULT_SCALE,
    DualField,
    MultiIndex,
    NormScale,
    SpectralState,
    check_embedding,
    derivative,
    evaluate,
    integrate_path,
    norm_at,
    pair,
    second_derivative,
    state_from_json_dict,
    state_to_json_dict,
    top_band_ratio,
    translate,
)
from spde_manifold.grid import GridState
from spde_manifold.hermite import gauss_hermite_rule, hermite_values

PI_QUARTER = math.pi ** (-0.25)  # h_0(0)


def basis(index, n=None):
    return SpectralState.basis(index, n)


# -- multi-indices -------------------------------------------------------------


def test_multi_index_order_and_validation():
    assert MultiIndex((2, 0, 3)).order == 5
    with pytest.raises(ValueError):
        MultiIndex((1, -1))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_state_reads_zero_outside_declared_indices():
    s = basis([1], n=3)
    assert s.coefficient([1]) == 1.0
    assert s.coefficient([5]) == 0.0


# -- norms ----------------------------------------------------------------------


def test_norm_h0_is_one_for_every_order():
    s = basis([0])
    for q in (0.0, 0.5, 1.0, 2.5):
        assert norm_at(s, q) == pytest.approx(1.0, abs=1e-15)


def test_norm_h2_weight():
    # weight (2*2 + 1)^(2*1) = 25 on the single unit coefficient
    assert norm_at(basis([2]), 1.0) == pytest.approx(5.0, rel=1e-15)


def test_norm_mixed_state_half_order():
    s = basis([1], 3) + basis([3], 3)
    assert norm_at(s, 0.5) == pytest.approx(math.sqrt(10.0), rel=1e-15)


def test_norm_monotone_in_regularity(rng):
    for _ in range(25):
        c = rng.standard_normal(9)
        s = SpectralState(1, 8, c)
        qs = sorted(rng.uniform(-1.0, 2.0, size=4))
        norms = [norm_at(s, q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_norm_rejects_grid_states():
    with pytest.raises(TypeError):
        norm_at(GridState(np.ones(4)), 0.5)


def test_scale_ordering_enforced():
    NormScale(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        NormScale(0.0, 0.5, 1.0)
    assert NormScale.half_step(2.0) == NormScale(3.0, 2.5, 2.0)


# -- pairings -------------------------------------------------------------------


def test_pair_zero_dual():
    s = basis([3], 6)
    assert pair(DualField.zero(1), s) == 0.0


def test_pair_dirac_evaluates_h0_at_zero():
    dual = DualField.dirac([0.0], n=12)
    assert pair(dual, basis([0])) == pytest.approx(PI_QUARTER, rel=1e-14)


def test_pair_orthonormality_in_coefficients():
    dual = DualField(1, 4, np.eye(5)[1])
    assert pair(dual, basis([1], 4)) == 1.0
    assert pair(dual, basis([2], 4)) == 0.0


def test_pair_bilinear(rng):
    u = DualField(1, 5, rng.standard_normal(6))
    v = DualField(1, 5, rng.standard_normal(6))
    s = SpectralState(1, 5, rng.standard_normal(6))
    lhs = pair(u * 2.0 + v * (-0.5), s)
    assert lhs == pytest.approx(2.0 * pair(u, s) - 0.5 * pair(v, s), rel=1e-14)


def test_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        pair(DualField.zero(2), basis([0]))


def test_constant_dual_integrates():
    # integral of h_0 is sqrt(2) pi^(1/4); quadrature cross-check
    dual = DualField.constant(1, 20)
    got = pair(dual, basis([0], 20))
    nodes, weights = gauss_hermite_rule(41)
    want = float(np.sum(weights * hermite_values(0, nodes)[0]))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(math.sqrt(2.0) * math.pi ** 0.25, rel=1e-12)


# -- derivatives ------------------------------------------------------------------


def test_derivative_h0_ladder():
    out = derivative(basis([0]))
    assert out.N == 1
    np.testing.assert_allclose(out.coeffs, [0.0, -math.sqrt(0.5)], atol=1e-15)


def test_derivative_h1_ladder():
    out = derivative(basis([1]))
    np.testing.assert_allclose(
        out.coeffs, [math.sqrt(0.5), 0.0, -1.0], atol=1e-15
    )


def test_derivative_zero_state():
    out = derivative(SpectralState.zero(1, 4))
    assert not out.coeffs.any()


def test_derivative_matches_grid_finite_differences():
    """Ladder output of h_0 against central differences, tolerance 1e-8."""
    s = basis([0], 8)
    ds = derivative(s)
    ts = np.linspace(-3.0, 3.0, 41)
    h = 1e-5
    fd = (evaluate(s, ts + h) - evaluate(s, ts - h)) / (2.0 * h)
    np.testing.assert_allclose(evaluate(ds, ts), fd, atol=1e-8)


def test_ladder_oracle_all_orders():
    # every n <= N-1 on a Gauss-Hermite grid of >= 4N points, within 1e-6
    n_max = 12
    nodes, _ = gauss_hermite_rule(4 * n_max)
    h = 1e-5
    for n in range(n_max):
        s = basis([n])
        fd = (evaluate(s, nodes + h) - evaluate(s, nodes - h)) / (2.0 * h)
        np.testing.assert_allclose(evaluate(derivative(s), nodes), fd, atol=1e-6)


def test_second_derivative_h0():
    # two ladder applications: h_0'' = -(1/2) h_0 + (sqrt(2)/2) h_2
    out = second_derivative(basis([0]))
    np.testing.assert_allclose(out.coeffs, [-0.5, 0.0, math.sqrt(0.5)], atol=1e-15)


def test_second_derivative_grid_oracle():
    s = basis([1], 6)
    out = second_derivative(s)
    ts = np.linspace(-2.5, 2.5, 31)
    h = 1e-4
    fd = (evaluate(s, ts + h) - 2.0 * evaluate(s, ts) + evaluate(s, ts - h)) / h**2
    np.testing.assert_allclose(evaluate(out, ts), fd, atol=1e-6)


def test_second_derivative_axes_commute():
    c = np.zeros((4, 4))
    c[1, 2] = 1.0
    c[0, 1] = -0.3
    s = SpectralState(2, 3, c)
    a = second_derivative(s, (0, 1))
    b = second_derivative(s, (1, 0))
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_derivative_axis_out_of_range():
    with pytest.raises(ValueError):
        derivative(basis([0]), axis=1)


# -- translations -----------------------------------------------------------------


def test_translate_zero_shift_is_identity():
    s = basis([3], 10)
    assert translate(s, 0.0) is s


def test_translate_grid_shift_reproject():
    """Shift h_0 by 0.3 and compare against quadrature re-projection, N = 40."""
    n = 40
    s = basis([0], n)
    got = translate(s, 0.3)
    nodes, weights = gauss_hermite_rule(2 * n + 1)
    shifted_vals = evaluate(s, nodes - 0.3)
    table = hermite_values(n, nodes)
    want = table @ (weights * shifted_vals)
    assert float(np.linalg.norm(got.coeffs - want)) < 1e-6


def test_translate_group_property():
    s = basis([0], 40)
    one = translate(s, 0.7)
    two = translate(translate(s, 0.3), 0.4)
    # the truncated generator commutes with itself, so this is exact
    np.testing.assert_allclose(one.coeffs, two.coeffs, atol=1e-12)


def test_translate_linear_in_state(rng):
    u = SpectralState(1, 12, rng.standard_normal(13))
    v = SpectralState(1, 12, rng.standard_normal(13))
    lhs = translate(u * 1.5 + v * (-2.0), 0.4)
    rhs = translate(u, 0.4) * 1.5 + translate(v, 0.4) * (-2.0)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_translate_batches_match_single_shifts(rng):
    profile = SpectralState(1, 12, rng.standard_normal(13))
    shifts = np.array([[0.3], [0.0], [-0.7]])
    batch = translate(profile, shifts)
    assert batch.coeffs.shape == (3, 13)
    stacked = SpectralState(1, 12, np.stack([profile.coeffs * k for k in (1.0, 2.0, -1.0)]))
    moved = translate(stacked, shifts)
    for k, x in enumerate(shifts):
        np.testing.assert_allclose(batch.coeffs[k], translate(profile, x).coeffs, atol=1e-13)
        want = translate(SpectralState(1, 12, stacked.coeffs[k]), x).coeffs
        np.testing.assert_allclose(moved.coeffs[k], want, atol=1e-13)
    np.testing.assert_array_equal(batch.coeffs[1], profile.coeffs)  # zero shift is exact


def test_translate_shape_validation():
    with pytest.raises(ValueError):
        translate(basis([0]), [0.1, 0.2])


def test_translate_d2_matches_pointwise_shift():
    c = np.zeros((25, 25))
    c[0, 0] = 1.0
    c[1, 0] = 0.5
    s = SpectralState(2, 24, c)
    got = translate(s, [0.2, -0.3])
    pts = np.stack(np.meshgrid(np.linspace(-1.5, 1.5, 7), np.linspace(-1.5, 1.5, 7),
                               indexing="ij"), axis=-1)
    want = evaluate(s, pts - np.array([0.2, -0.3]))
    np.testing.assert_allclose(evaluate(got, pts), want, atol=1e-6)


def test_top_band_ratio_flags_unresolved_states():
    assert top_band_ratio(basis([6], 6)) == pytest.approx(1.0)
    assert top_band_ratio(basis([0], 6)) == 0.0
    assert top_band_ratio(SpectralState.zero(1, 3)) == 0.0


# -- embedding scale ---------------------------------------------------------------


def test_embedding_on_basis_elements():
    states = [basis([n], 10) for n in range(11)]
    report = check_embedding(DEFAULT_SCALE, states)
    assert report.passed
    assert report.max_ratio <= 1.0 + 1e-12


def test_embedding_on_random_states(rng):
    states = [SpectralState(1, 16, rng.standard_normal(17)) for _ in range(40)]
    report = check_embedding(DEFAULT_SCALE, states)
    assert report.passed
    assert report.ratios.shape == (40, 2)


def test_embedding_zero_state():
    report = check_embedding(DEFAULT_SCALE, [SpectralState.zero(1, 5)])
    assert report.passed
    assert report.max_ratio == 0.0


# -- evaluation ---------------------------------------------------------------------


def test_hermite_values_orthonormal_under_rule():
    n = 15
    nodes, weights = gauss_hermite_rule(2 * n + 1)
    table = hermite_values(n, nodes)
    gram = (table * weights) @ table.T
    np.testing.assert_allclose(gram, np.eye(n + 1), atol=1e-12)


def test_evaluate_known_values():
    assert evaluate(basis([0]), 0.0) == pytest.approx(PI_QUARTER, rel=1e-14)
    assert evaluate(basis([1]), 0.0) == pytest.approx(0.0, abs=1e-15)
    ts = np.array([-1.0, 0.5])
    np.testing.assert_allclose(
        evaluate(basis([0]), ts), PI_QUARTER * np.exp(-0.5 * ts * ts), rtol=1e-13
    )


# -- path integration ----------------------------------------------------------------


def test_integrate_constant_path():
    s = basis([2], 4)
    out = integrate_path([s] * 8, dt=0.25)
    np.testing.assert_allclose(out.value.coeffs, 2.0 * s.coeffs, rtol=1e-14)
    # even sample count: refinement residuals are reported and weak <= mid
    assert out.refinement_residual_mid is not None
    assert out.refinement_residual_weak <= out.refinement_residual_mid + 1e-15


def test_integrate_linear_path_closed_form():
    # samples t_k = k/m of t * h_0: left Riemann sum is 1/2 - 1/(2m)
    m = 10
    s = basis([0])
    samples = [s * (k / m) for k in range(m)]
    out = integrate_path(samples, dt=1.0 / m)
    want = (0.5 - 0.5 / m)
    assert out.value.coefficient([0]) == pytest.approx(want, rel=1e-13)


def test_integrate_residual_ratio_below_one(rng):
    samples = [SpectralState(1, 6, rng.standard_normal(7)) for _ in range(16)]
    out = integrate_path(samples, dt=0.1)
    assert out.refinement_residual_weak <= out.refinement_residual_mid + 1e-15


def test_integrate_path_validation():
    with pytest.raises(ValueError):
        integrate_path([], dt=0.1)
    with pytest.raises(ValueError):
        integrate_path([basis([0])], dt=0.0)
    with pytest.raises(TypeError):
        integrate_path([GridState(np.ones(3))], dt=0.1)


def test_integral_coefficients_shared_across_norm_queries():
    s = basis([1], 3)
    out = integrate_path([s, s], dt=0.5).value
    before = out.coeffs.copy()
    norm_at(out, 0.0)
    norm_at(out, 1.0)
    np.testing.assert_array_equal(out.coeffs, before)


# -- serialization ---------------------------------------------------------------------


def test_state_json_round_trip(rng):
    c = np.where(np.add.outer(np.arange(4), np.arange(4)) <= 3,
                 rng.standard_normal((4, 4)), 0.0)
    s = SpectralState(2, 3, c)
    doc = state_to_json_dict(s)
    json.dumps(doc)  # must be serializable as-is
    back = state_from_json_dict(doc)
    assert back.d == 2 and back.N == 3
    np.testing.assert_array_equal(back.coeffs, s.coeffs)


def test_state_json_lexicographic_and_complete():
    doc = state_to_json_dict(basis([1], 2))
    idx = [tuple(e[0]) for e in doc["entries"]]
    assert idx == sorted(idx)
    assert len(idx) == 3  # every |n| <= N index listed, zeros included


def test_state_json_rejects_grid_tag():
    with pytest.raises(ValueError):
        state_from_json_dict({"d": 1, "N": 1, "basis_tag": "sine_grid", "entries": []})


def test_states_are_immutable():
    s = basis([0], 3)
    with pytest.raises(ValueError):
        s.coeffs[0] = 2.0
