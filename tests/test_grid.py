"""Interior-grid states and discrete Laplacian eigenstructure."""

import math

import numpy as np
import pytest

from spde_manifold.geometry import GridGeometry, HermiteGeometry
from spde_manifold.grid import GridState, laplace_eigenvalue, sine_mode
from spde_manifold.hermite import SpectralState


def test_grid_state_properties():
    s = GridState([1.0, 2.0, 3.0])
    assert s.M == 3
    assert s.h == pytest.approx(0.25)
    np.testing.assert_allclose(s.xs, [0.25, 0.5, 0.75])


def test_grid_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GridState([])
    with pytest.raises(ValueError):
        GridState(np.ones((2, 2, 2)))
    # 2-D values are a batch of P states on one grid
    batch = GridState(np.ones((2, 3)))
    assert batch.batch == (2,) and batch.M == 3
    assert GridState(np.ones(3)).batch == ()


def test_grid_batch_matches_its_rows_and_rejects_other_sizes():
    rng = np.random.default_rng(5)
    a = GridState(rng.standard_normal((3, 4)))
    b = GridState(rng.standard_normal((3, 4)))
    c = GridState(rng.standard_normal(4))
    w = np.array([0.5, -1.0, 2.0])
    got = GridState.combine([(a, 1.0), (b, w), (c, w)])
    for k, (ak, bk) in enumerate(zip(a.values, b.values)):
        ak, bk = GridState(ak), GridState(bk)
        want = GridState.combine([(ak, 1.0), (bk, w[k]), (c, w[k])])
        np.testing.assert_array_equal(got.values[k], want.values)
        np.testing.assert_array_equal(a.rows([k]).values, [ak.values])
    np.testing.assert_array_equal(a.rows([2, 0]).values, a.values[[2, 0]])
    assert c.rows([0]) is c  # a single state has no rows to take
    one, three = GridState([1.0]), GridState([1.0, 2.0, 3.0])
    for bad in (
        lambda: GridState.combine([(one, 1.0), (three, 1.0)]),
        lambda: one + three,
        lambda: a + GridState(np.ones((3, 5))),
    ):
        with pytest.raises(ValueError, match="grid size mismatch"):
            bad()


def test_grid_arithmetic_and_size_check():
    a = GridState([1.0, 0.0])
    b = GridState([0.5, 2.0])
    np.testing.assert_allclose((a + b * 2.0).values, [2.0, 4.0])
    np.testing.assert_allclose((-a).values, [-1.0, 0.0])
    with pytest.raises(ValueError):
        a + GridState([1.0, 2.0, 3.0])


def test_grid_values_read_only():
    s = GridState([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 7.0


def test_sine_mode_values_and_norm():
    m, k = 15, 2
    mode = sine_mode(m, k)
    xs = mode.xs
    np.testing.assert_allclose(
        mode.values, math.sqrt(2.0) * np.sin(k * math.pi * xs), atol=1e-14
    )
    assert GridGeometry(m).norm_mid(mode) == pytest.approx(1.0, rel=1e-13)


def _inner(geo, u, v):
    """The geometry's inner product: its weights against the pointwise product."""
    return float(geo.weight_vector() @ (u.values * v.values))


def test_sine_modes_orthogonal():
    m = 20
    geo = GridGeometry(m)
    for j in range(1, 4):
        for k in range(j + 1, 5):
            assert abs(_inner(geo, sine_mode(m, j), sine_mode(m, k))) < 1e-13


def test_sine_mode_k_out_of_range():
    with pytest.raises(ValueError):
        sine_mode(8, 0)
    with pytest.raises(ValueError):
        sine_mode(8, 9)


def test_laplace_eigenvalue_closed_form():
    m, k = 31, 3
    h = 1.0 / (m + 1)
    want = -(2.0 / h**2) * (1.0 - math.cos(k * math.pi * h))
    assert laplace_eigenvalue(m, k) == pytest.approx(want, rel=1e-15)
    # small k approaches the continuum value -(k pi)^2
    assert laplace_eigenvalue(255, 1) == pytest.approx(-math.pi**2, rel=1e-4)


def test_grid_inner_is_trapezoid_free_h_weighted_dot():
    geo = GridGeometry(3)
    a = GridState([1.0, 2.0, 3.0])
    b = GridState([4.0, 5.0, 6.0])
    # every interior point weighs h, the end points included
    np.testing.assert_array_equal(geo.weight_vector(), [0.25, 0.25, 0.25])
    assert _inner(geo, a, b) == pytest.approx(0.25 * (4 + 10 + 18), rel=1e-15)
    assert geo.norm_mid(a) ** 2 == pytest.approx(0.25 * (1 + 4 + 9), rel=1e-15)
    assert geo.norm_diff(a, b) ** 2 == pytest.approx(0.25 * 27, rel=1e-15)


@pytest.mark.parametrize(
    "geo, state",
    [
        (GridGeometry(4), GridState),
        (HermiteGeometry(1, 3), lambda v: SpectralState(1, 3, v)),
    ],
    ids=["grid", "hermite"],
)
def test_norm_diff_is_the_norm_of_the_difference(rng, geo, state):
    one = state(rng.standard_normal((1, 4)))
    three = state(rng.standard_normal((3, 4)))
    single = state(rng.standard_normal(4))
    want = geo.norm_mid(three - single)
    np.testing.assert_allclose(geo.norm_diff(three, single), want, rtol=1e-14)
    np.testing.assert_allclose(geo.norm_diff(one, one), [0.0])
    # a 1-path batch meets a 3-path batch in neither form, so it raises
    with pytest.raises(ValueError, match="path count mismatch"):
        geo.norm_mid(one - three)
    with pytest.raises(ValueError, match="path count mismatch"):
        geo.norm_diff(one, three)
