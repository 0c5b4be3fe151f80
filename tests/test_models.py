"""Drift/diffusion model families and the noise-derivative correction."""

import math

import numpy as np
import pytest

from spde_manifold import models
from spde_manifold.geometry import HermiteGeometry
from spde_manifold.grid import GridState, laplace_eigenvalue, sine_mode
from spde_manifold.hermite import (
    DualField,
    SpectralState,
    add_block,
    derivative,
    derivative_coeffs,
    pair,
    second_derivative,
    second_derivative_coeffs,
)
from spde_manifold.models import ItoTypeModel, PLaplaceModel, _pairings, stratonovich_correction
from spde_manifold.tangency import FD_SENSITIVITY_TOL

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
    out = model.drift(basis([3], 8))
    assert not out.coeffs.any()


def test_drift_second_order_term():
    model = transport_model()
    y = basis([0], 8)
    out = model.drift(y)
    want = second_derivative(y) * (0.5 * H0_AT_ZERO**2)
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-14)


def test_drift_transport_term():
    model = ItoTypeModel(
        d=1, J=0, N=8, b=(DualField.dirac([0.0], n=8),), sigma=()
    )
    y = basis([0], 8) + basis([2], 8) * 0.4
    out = model.drift(y)
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
    out = model.drift(y)
    np.testing.assert_allclose(out.coeffs, want.coeffs, atol=1e-13)


# -- transport diffusion ---------------------------------------------------------


def test_diffusion_single_component():
    model = transport_model()
    y = basis([0], 8)
    fields = model.diffusion(y)
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
    fields = model.diffusion(basis([0], 8))
    assert model.n_noise == 2
    assert len(fields) == 2
    np.testing.assert_array_equal(fields[1].coeffs, extra.coeffs)


def test_sigma_pairings_shape_and_values():
    model = transport_model(z=0.0)
    y = basis([0], 8) * 3.0
    p = _pairings(model, y.coeffs, y.N)
    assert p.shape == (2,)  # b[0], then sigma[0][0]
    assert p[0] == 0.0
    assert p[1] == pytest.approx(3.0 * H0_AT_ZERO, rel=1e-14)


def test_diffusion_derivative_matches_directional_difference(rng):
    model = transport_model(n=10)
    y = SpectralState(1, 10, rng.standard_normal(11) * 0.3)
    u = SpectralState(1, 10, rng.standard_normal(11) * 0.3)
    got = model.diffusion_derivative(y, u, 0)
    eps = 1e-6
    plus = model.diffusion(y + u * eps)[0]
    minus = model.diffusion(y - u * eps)[0]
    fd = (plus - minus) * (0.5 / eps)
    np.testing.assert_allclose(got.coeffs, fd.coeffs, atol=1e-8)


def test_diffusion_derivative_d2_batch_matches_differences_and_rows(rng):
    n, paths = 5, 3
    model = ItoTypeModel(
        d=2, J=2, N=n,
        b=(DualField.zero(2), DualField.zero(2)),
        sigma=(
            (DualField.dirac([0.3, -0.2], n=n), DualField.dirac([0.0, 0.5], n=n + 2)),
            (DualField.constant(2, n - 1, 0.5), DualField.dirac([-0.4, 0.1], n=n)),
        ),
    )
    y = SpectralState(2, n, rng.standard_normal((paths, n + 1, n + 1)) * 0.3)
    u = SpectralState(2, n + 1, rng.standard_normal((paths, n + 2, n + 2)) * 0.3)
    eps = 1e-6
    for j in range(model.J):
        got = model.diffusion_derivative(y, u, j)
        assert (got.N, got.batch) == (n + 2, (paths,))
        fd = (model.diffusion(y + u * eps)[j] - model.diffusion(y - u * eps)[j]) * (0.5 / eps)
        np.testing.assert_allclose((got - fd).coeffs, 0.0, atol=1e-8)
        for k in range(paths):
            one = model.diffusion_derivative(y.rows(k), u.rows(k), j)
            np.testing.assert_allclose(got.rows(k).coeffs, one.coeffs, rtol=1e-13, atol=1e-15)


def test_diffusion_derivative_of_constant_extra_is_zero():
    model = ItoTypeModel(
        d=1, J=0, N=6, b=(DualField.zero(1),), sigma=(),
        extra_fields=(basis([2], 6),),
    )
    out = model.diffusion_derivative(basis([0], 6), basis([1], 6), 0)
    assert not out.coeffs.any()


def test_transport_model_rejects_a_state_of_another_dimension():
    model = transport_model(n=4)
    y = SpectralState.zero(2, 3)  # its (4, 4) tensor would read as four d = 1 states
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.drift(y)
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.diffusion(y)
    with pytest.raises(ValueError, match="dimension mismatch"):
        model.diffusion_derivative(basis([0], 4), y, 0)


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


def _pairing_formula(model, y):
    """Drift and transport fields term by term from ``pair`` and the ladder derivatives."""
    s = np.empty(y.batch + (model.d, model.J))
    for j in range(model.J):
        for i in range(model.d):
            s[..., i, j] = pair(model.sigma[j][i], y)
    cov = s @ np.swapaxes(s, -1, -2)
    terms = [
        (second_derivative(y, (i, j)), (0.5 if i == j else 1.0) * cov[..., i, j])
        for i in range(model.d)
        for j in range(i, model.d)
    ]
    terms += [(derivative(y, axis=i), -pair(model.b[i], y)) for i in range(model.d)]
    fields = [
        SpectralState.combine([(derivative(y, axis=i), -s[..., i, j]) for i in range(model.d)])
        for j in range(model.J)
    ]
    return s, SpectralState.combine(terms), fields


@pytest.mark.parametrize("paths", [None, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_transport_kernels_with_duals_above_and_below_the_state_order(rng, d, paths):
    n = 5
    z = [0.2, -0.1][:d]
    model = ItoTypeModel(
        d=d, J=2, N=n,
        b=tuple(DualField.dirac(z, n=n + 3) for _ in range(d)),
        sigma=(
            tuple(DualField.dirac(z[::-1], n=n - 2) for _ in range(d)),
            tuple(DualField.constant(d, n + 1, 0.5) for _ in range(d)),
        ),
    )
    shape = ((paths,) if paths else ()) + (n + 1,) * d
    y = SpectralState(d, n, rng.standard_normal(shape))
    s, drift, fields = _pairing_formula(model, y)
    sigma = _pairings(model, y.coeffs, n)[d:].reshape((model.J, d) + y.batch)
    np.testing.assert_allclose(np.moveaxis(sigma, (0, 1), (-2, -1)), np.swapaxes(s, -1, -2), rtol=1e-13)
    got = model.drift(y)
    assert (got.N, got.batch) == (n + 2, y.batch)
    np.testing.assert_allclose(got.coeffs, drift.coeffs, rtol=1e-12, atol=1e-13)
    got_fields = model.diffusion(y)
    assert len(got_fields) == model.n_noise == 2
    for field, want in zip(got_fields, fields):
        assert (field.N, field.batch) == (n + 1, y.batch)
        np.testing.assert_allclose(field.coeffs, want.coeffs, rtol=1e-12, atol=1e-13)


def _term_by_term_kernels(model, c):
    """The transport drift and paired noise fields of the order-n tensors c as they
    were summed before: one array per term, added one term at a time, with the
    model's own pairings and covariance and its skip rules."""
    d, n = model.d, c.shape[-1] - 1
    p = models._pairings(model, c, n)
    cov = models._covariance(model, p)

    def scaled(t, w):
        return t * np.reshape(w, np.shape(w) + (1,) * d)

    drift = None
    for i in range(d):
        for j in range(i, d):
            w = 0.5 * cov[..., i, j] if i == j else cov[..., i, j]
            if np.count_nonzero(w):
                term = scaled(second_derivative_coeffs(c, d, n, (i, j)), w)
                drift = term if drift is None else add_block(drift, term, d)
    partials = [derivative_coeffs(c, d, n, i) for i in range(d)]
    for i in range(d):
        if np.count_nonzero(p[i]) or drift is None:
            term = scaled(partials[i], -p[i])
            drift = term if drift is None else add_block(drift, term, d)
    fields = []
    for j in range(model.J):
        s = p[d + j * d : d + j * d + d]
        field = scaled(partials[0], -s[0])
        for i in range(1, d):
            field += scaled(partials[i], -s[i])
        fields.append(field)
    return drift, fields


@pytest.mark.parametrize("paths", [None, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("duals", ["full", "sparse"])
def test_transport_drift_and_fields_equal_the_term_by_term_sums(rng, d, paths, duals):
    n, z = 5, [0.2, -0.1][:d]
    if duals == "full":
        b = tuple(DualField.dirac(z, n=n + 3) for _ in range(d))
        sigma = (
            tuple(DualField.dirac(z[::-1], n=n - 2) for _ in range(d)),
            tuple(DualField.constant(d, n + 1, 0.5) for _ in range(d)),
        )
    else:  # no noise pairing and a zero first drift dual: the skip rules decide the terms
        b = (DualField.zero(d),) + tuple(DualField.dirac(z, n=n) for _ in range(d - 1))
        sigma = (tuple(DualField.zero(d) for _ in range(d)),)
    model = ItoTypeModel(d=d, J=len(sigma), N=n, b=b, sigma=sigma)
    y = SpectralState(d, n, rng.standard_normal(((paths,) if paths else ()) + (n + 1,) * d))
    drift, fields = _term_by_term_kernels(model, y.coeffs)
    np.testing.assert_array_equal(model.drift(y).coeffs, drift)
    got = model.diffusion(y)
    assert len(got) == len(fields)
    for field, want in zip(got, fields):
        np.testing.assert_array_equal(field.coeffs, want)


# -- divergence-form grid model -----------------------------------------------------


def test_plaplace_p2_reproduces_eigenpairs():
    m = 16
    model = PLaplaceModel(2.0, m)
    for k in (1, 3):
        mode = sine_mode(m, k)
        out = model.drift(mode)
        np.testing.assert_allclose(
            out.values, laplace_eigenvalue(m, k) * mode.values, rtol=1e-12
        )


def test_plaplace_p4_hand_computed_hat():
    # M = 3, hat at the middle point, h = 1/4:
    # face slopes (0, 4, -4, 0), cubed fluxes (0, 64, -64, 0),
    # divided differences (256, -512, 256)
    model = PLaplaceModel(4.0, 3)
    out = model.drift(GridState([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(out.values, [256.0, -512.0, 256.0], rtol=1e-13)


def test_plaplace_p2_is_linear(rng):
    m = 12
    model = PLaplaceModel(2.0, m)
    u = GridState(rng.standard_normal(m))
    v = GridState(rng.standard_normal(m))
    lhs = model.drift(u * 0.7 + v * (-1.1))
    rhs = model.drift(u) * 0.7 + model.drift(v) * (-1.1)
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
        model.drift(GridState(np.ones(5)))


def test_plaplace_noise_protocol():
    f = sine_mode(8, 1)
    model = PLaplaceModel(2.0, 8, fields=(f,))
    assert model.n_noise == 1
    y = GridState(np.ones(8))
    assert model.diffusion(y)[0] is f
    assert not model.diffusion_derivative(y, f, 0).values.any()


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
    assert got_f.step_disagreement <= FD_SENSITIVITY_TOL


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
        return [y * (y.coeffs**2).sum(-1)]


def test_correction_warns_on_step_sensitive_difference(monkeypatch):
    monkeypatch.setattr(models, "FD_STEP_DA", 0.5)
    out = stratonovich_correction(_CubicNoise(4), basis([0], 4))
    assert out.mode == "fd"
    assert out.step_disagreement > FD_SENSITIVITY_TOL


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


def test_correction_of_a_batch_matches_its_rows():
    model = transport_model(n=16)
    rows = [basis([0], 16), basis([0], 16) + basis([2], 16) * 0.3, SpectralState.zero(1, 16)]
    y = SpectralState(1, 16, np.stack([r.coeffs for r in rows]))
    for mode in ("analytic", "fd"):
        got = stratonovich_correction(model, y, da_mode=mode)
        assert got.step_disagreement.shape == (3,)
        for k, row in enumerate(rows):
            one = stratonovich_correction(model, row, da_mode=mode)
            np.testing.assert_allclose((got.value.rows(k) - one.value).coeffs, 0.0, atol=1e-12)
            assert got.step_disagreement[k] == pytest.approx(one.step_disagreement, abs=1e-12)


def test_correction_warns_per_step_sensitive_row(monkeypatch):
    monkeypatch.setattr(models, "FD_STEP_DA", 0.5)
    rows = [basis([0], 4), basis([0], 4) * 1e-3, basis([1], 4)]
    batch = SpectralState(1, 4, np.stack([r.coeffs for r in rows]))
    got = stratonovich_correction(_CubicNoise(4), batch)
    want = [stratonovich_correction(_CubicNoise(4), row).step_disagreement for row in rows]
    np.testing.assert_allclose(got.step_disagreement, want, rtol=1e-12, atol=1e-15)
    # the small row is not step-sensitive
    np.testing.assert_array_equal(got.step_disagreement > FD_SENSITIVITY_TOL, [True, False, True])
