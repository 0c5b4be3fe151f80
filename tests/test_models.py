"""Drift/diffusion model families and the noise-derivative correction."""

import math

import numpy as np
import pytest

from spde_manifold import (
    DualField,
    GridState,
    ItoTypeModel,
    LinearEigenModel,
    PLaplaceModel,
    SpectralState,
    derivative,
    pair,
    second_derivative,
    stratonovich_correction,
)
from spde_manifold.geometry import GridGeometry, HermiteGeometry
from spde_manifold.grid import laplace_eigenvalue, sine_mode
from spde_manifold.models import (
    ito_diffusion,
    ito_diffusion_from_pairings,
    ito_drift,
    plaplace_drift,
    sigma_pairings,
)

H0_AT_ZERO = math.pi ** (-0.25)


def basis(index, n=None):
    return SpectralState.basis(index, n)


def transport_model(n=8, z=0.0):
    """d = 1 model with one dirac-paired noise component and no drift dual."""
    return ItoTypeModel(
        d=1, J=1, N=n,
        b=(DualField.zero(1),),
        sigma=((DualField.dirac([z], n=n),),),
    )


# -- transport drift -----------------------------------------------------------


def test_drift_of_zero_model_vanishes():
    model = ItoTypeModel(d=1, J=0, N=8, b=(DualField.zero(1),), sigma=())
    out = ito_drift(model, basis([3], 8))
    assert not out.coeffs.any()


def test_drift_second_order_term():
    model = transport_model()
    y = basis([0], 8)
    out = ito_drift(model, y)
    want = second_derivative(y) * (0.5 * H0_AT_ZERO**2)
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-14)


def test_drift_transport_term():
    model = ItoTypeModel(
        d=1, J=0, N=8, b=(DualField.dirac([0.0], n=8),), sigma=()
    )
    y = basis([0], 8) + basis([2], 8) * 0.4
    out = ito_drift(model, y)
    want = derivative(y) * (-pair(model.b[0], y))
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-14)


def test_drift_d2_covariance_terms():
    z = [0.3, -0.2]
    s1 = DualField.dirac(z, n=4)
    s2 = DualField.dirac([0.0, 0.5], n=4)
    model = ItoTypeModel(
        d=2, J=1, N=4,
        b=(DualField.zero(2), DualField.zero(2)),
        sigma=(((s1, s2)),),
    )
    y = basis([1, 1], 4) + basis([0, 2], 4) * 0.7
    p1, p2 = pair(s1, y), pair(s2, y)
    want = (
        second_derivative(y, (0, 0)) * (0.5 * p1 * p1)
        + second_derivative(y, (0, 1)) * (p1 * p2)
        + second_derivative(y, (1, 1)) * (0.5 * p2 * p2)
    )
    out = ito_drift(model, y)
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-13)


# -- transport diffusion ---------------------------------------------------------


def test_diffusion_single_component():
    model = transport_model()
    y = basis([0], 8)
    fields = ito_diffusion(model, y)
    assert len(fields) == 1
    want = derivative(y) * (-H0_AT_ZERO)
    np.testing.assert_allclose(fields[0].coeffs, want.coeffs, atol=1e-14)


def test_diffusion_appends_constant_extras():
    extra = basis([4], 8) * 2.0
    model = ItoTypeModel(
        d=1, J=1, N=8,
        b=(DualField.zero(1),),
        sigma=((DualField.dirac([0.0], n=8),),),
        extra_fields=(extra,),
    )
    fields = ito_diffusion(model, basis([0], 8))
    assert model.n_noise == 2
    assert len(fields) == 2
    np.testing.assert_array_equal(fields[1].coeffs, extra.coeffs)


def test_sigma_pairings_shape_and_values():
    model = transport_model(z=0.0)
    s = sigma_pairings(model, basis([0], 8) * 3.0)
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(3.0 * H0_AT_ZERO, rel=1e-14)


def test_frozen_pairings_map_is_linear(rng):
    model = transport_model(n=10)
    y0 = basis([0], 10) + basis([1], 10) * 0.5
    frozen = sigma_pairings(model, y0)
    u = SpectralState(1, 10, rng.standard_normal(11))
    v = SpectralState(1, 10, rng.standard_normal(11))
    fu = ito_diffusion_from_pairings(model, frozen, u)[0]
    fv = ito_diffusion_from_pairings(model, frozen, v)[0]
    fw = ito_diffusion_from_pairings(model, frozen, u * 2.0 + v * (-3.0))[0]
    np.testing.assert_allclose(
        fw.coeffs, 2.0 * fu.coeffs - 3.0 * fv.coeffs, atol=1e-13
    )


def test_diffusion_derivative_matches_directional_difference(rng):
    model = transport_model(n=10)
    y = SpectralState(1, 10, rng.standard_normal(11) * 0.3)
    u = SpectralState(1, 10, rng.standard_normal(11) * 0.3)
    got = model.diffusion_derivative(y, u, 0)
    eps = 1e-6
    plus = ito_diffusion(model, y + u * eps)[0]
    minus = ito_diffusion(model, y - u * eps)[0]
    fd = (plus - minus) * (0.5 / eps)
    np.testing.assert_allclose(got.coeffs, fd.coeffs, atol=1e-8)


def test_diffusion_derivative_of_constant_extra_is_zero():
    model = ItoTypeModel(
        d=1, J=0, N=6, b=(DualField.zero(1),), sigma=(),
        extra_fields=(basis([2], 6),),
    )
    out = model.diffusion_derivative(basis([0], 6), basis([1], 6), 0)
    assert not out.coeffs.any()


def test_sigma_sq_sum():
    dual = DualField(1, 2, [3.0, 4.0, 0.0])
    model = ItoTypeModel(d=1, J=1, N=4, b=(DualField.zero(1),), sigma=((dual,),))
    assert model.sigma_sq_sum == pytest.approx(25.0)


def test_transport_model_validation():
    with pytest.raises(ValueError):
        ItoTypeModel(d=2, J=0, N=4, b=(DualField.zero(2),), sigma=())
    with pytest.raises(ValueError):
        ItoTypeModel(d=1, J=1, N=4, b=(DualField.zero(1),), sigma=())
    with pytest.raises(ValueError):
        ItoTypeModel(
            d=2, J=1, N=4,
            b=(DualField.zero(2), DualField.zero(2)),
            sigma=((DualField.zero(2),),),  # row too short
        )
    with pytest.raises(ValueError):
        ItoTypeModel(
            d=1, J=1, N=4, b=(DualField.zero(1),), sigma=((DualField.zero(2),),)
        )
    with pytest.raises(ValueError):
        ItoTypeModel(
            d=1, J=0, N=4, b=(DualField.zero(1),), sigma=(),
            extra_fields=(SpectralState.zero(2, 2),),
        )


# -- divergence-form grid model -----------------------------------------------------


def test_plaplace_p2_reproduces_eigenpairs():
    m = 16
    model = PLaplaceModel(2.0, m)
    for k in (1, 3):
        mode = sine_mode(m, k)
        out = plaplace_drift(model, mode)
        np.testing.assert_allclose(
            out.values, laplace_eigenvalue(m, k) * mode.values, rtol=1e-12
        )


def test_plaplace_p4_hand_computed_hat():
    # M = 3, hat at the middle point, h = 1/4:
    # face slopes (0, 4, -4, 0), cubed fluxes (0, 64, -64, 0),
    # divided differences (256, -512, 256)
    model = PLaplaceModel(4.0, 3)
    out = plaplace_drift(model, GridState([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.values, [256.0, -512.0, 256.0], rtol=1e-13)


def test_plaplace_p2_is_linear(rng):
    m = 12
    model = PLaplaceModel(2.0, m)
    u = GridState(rng.standard_normal(m))
    v = GridState(rng.standard_normal(m))
    lhs = plaplace_drift(model, u * 0.7 + v * (-1.1))
    rhs = plaplace_drift(model, u) * 0.7 + plaplace_drift(model, v) * (-1.1)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-9)


def test_plaplace_validation():
    with pytest.raises(ValueError):
        PLaplaceModel(1.5, 8)
    with pytest.raises(ValueError):
        PLaplaceModel(2.0, 1)
    with pytest.raises(ValueError):
        PLaplaceModel(2.0, 8, fields=(GridState(np.ones(5)),))
    model = PLaplaceModel(2.0, 8)
    with pytest.raises(ValueError):
        plaplace_drift(model, GridState(np.ones(5)))


def test_plaplace_noise_protocol():
    f = sine_mode(8, 1)
    model = PLaplaceModel(2.0, 8, fields=(f,))
    assert model.n_noise == 1
    y = GridState(np.ones(8))
    assert model.diffusion(y)[0] is f
    assert not model.diffusion_derivative(y, f, 0).values.any()


# -- declared-eigenpair linear model ---------------------------------------------------


def _laplace_operator(m):
    inner = PLaplaceModel(2.0, m)
    return lambda y: plaplace_drift(inner, y)


def test_linear_model_accepts_true_eigenpairs():
    m = 16
    pairs = tuple(
        (sine_mode(m, k), laplace_eigenvalue(m, k)) for k in (1, 2)
    )
    model = LinearEigenModel(
        operator=_laplace_operator(m), eigenpairs=pairs, geometry=GridGeometry(m)
    )
    c1, c2 = 0.8, -0.3
    y = sine_mode(m, 1) * c1 + sine_mode(m, 2) * c2
    out = model.drift(y)
    want = (
        sine_mode(m, 1) * (c1 * laplace_eigenvalue(m, 1))
        + sine_mode(m, 2) * (c2 * laplace_eigenvalue(m, 2))
    )
    np.testing.assert_allclose(out.values, want.values, atol=1e-9)


def test_linear_model_rejects_false_eigenvalue():
    m = 8
    with pytest.raises(ValueError, match="eigenpair fails"):
        LinearEigenModel(
            operator=_laplace_operator(m),
            eigenpairs=((sine_mode(m, 1), -1.0),),
            geometry=GridGeometry(m),
        )


def test_linear_model_rejects_zero_eigenvector():
    m = 8
    with pytest.raises(ValueError, match="nonzero"):
        LinearEigenModel(
            operator=_laplace_operator(m),
            eigenpairs=((GridState.zero(m), 0.0),),
            geometry=GridGeometry(m),
        )


def test_linear_model_needs_geometry():
    with pytest.raises(ValueError, match="geometry"):
        LinearEigenModel(operator=lambda y: y, eigenpairs=())


# -- noise-derivative correction ---------------------------------------------------------


def test_correction_zero_without_noise():
    model = PLaplaceModel(2.0, 8)
    out = stratonovich_correction(model, GridState(np.ones(8)))
    assert out.mode == "analytic"
    assert not out.value.values.any()
    assert out.step_disagreement == 0.0


def test_correction_analytic_matches_fd():
    model = transport_model(n=16)
    y = basis([0], 16) + basis([2], 16) * 0.3
    got_a = stratonovich_correction(model, y, da_mode="analytic")
    got_f = stratonovich_correction(model, y, da_mode="fd")
    assert got_a.mode == "analytic" and got_f.mode == "fd"
    gap = model.geometry.norm_diff(got_a.value, got_f.value)
    assert gap < 1e-5
    assert not got_f.warnings


class _GradientNoise:
    """One noise component equal to the state's space derivative."""

    def __init__(self, n):
        self.geometry = HermiteGeometry(1, n)
        self.n_noise = 1

    def drift(self, y):
        return y * 0.0

    def diffusion(self, y):
        return [derivative(y)]


def test_correction_linear_operator_squares():
    # A(y) = y' gives DA(y) A(y) = y''; central differences are exact here
    y = basis([0], 12) + basis([3], 12) * 0.5
    model = _GradientNoise(12)
    out = stratonovich_correction(model, y)
    assert out.mode == "fd"
    want = second_derivative(y)
    np.testing.assert_allclose(out.value.coeffs, want.coeffs, atol=1e-9)
    assert out.step_disagreement < 1e-9


class _CubicNoise:
    def __init__(self, n):
        self.geometry = HermiteGeometry(1, n)
        self.n_noise = 1

    def drift(self, y):
        return y * 0.0

    def diffusion(self, y):
        return [y * float(y.l2() ** 2)]


def test_correction_warns_on_step_sensitive_difference():
    out = stratonovich_correction(_CubicNoise(4), basis([0], 4), h_fd=0.5)
    assert out.mode == "fd"
    assert out.step_disagreement > 1e-5
    assert any("step-sensitive" in w for w in out.warnings)


def test_correction_rejects_unknown_mode():
    model = transport_model(n=8)
    with pytest.raises(ValueError, match="da_mode"):
        stratonovich_correction(model, basis([0], 8), da_mode="exact")


def test_correction_skips_zero_components():
    model = ItoTypeModel(
        d=1, J=0, N=6, b=(DualField.zero(1),), sigma=(),
        extra_fields=(SpectralState.zero(1, 6),),
    )
    out = stratonovich_correction(model, basis([0], 6), da_mode="fd")
    assert not out.value.coeffs.any()
    assert out.step_disagreement == 0.0
