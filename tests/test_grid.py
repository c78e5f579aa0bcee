"""Stencils, seminorms, and snapshot formats."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergopde import (
    Box,
    DimensionMismatch,
    EmptyRegion,
    GridFunction,
    OutOfRange,
    UniformGrid,
    holder_seminorm,
    lipschitz_seminorm,
    save_binary,
    save_csv,
)
from ergopde.grid import axis_slopes, gradient_field, hessian_field, prolong


def grid1d(n, lo=-1.0, hi=1.0):
    return UniformGrid((n,), Box((lo,), (hi,)))


def grid2d(n, m):
    return UniformGrid((n, m), Box((0.0, 0.0), (1.0, 1.0)))


def sample(grid, fn):
    return GridFunction(grid, fn(*grid.coords()))

class TestStencils:
    def test_gradient_exact_for_affine_1d(self):
        u = sample(grid1d(11), lambda x: x)
        (gx,) = gradient_field(u.values, u.grid.spacing)
        assert gx.shape == (9,)
        np.testing.assert_allclose(gx, 1.0, rtol=1e-12)

    def test_gradient_exact_for_affine_2d(self):
        u = sample(grid2d(9, 9), lambda x, y: x + 2.0 * y)
        gx, gy = gradient_field(u.values, u.grid.spacing)
        assert gx.shape == gy.shape == (7, 7)
        np.testing.assert_allclose(gx, 1.0, rtol=1e-12)
        np.testing.assert_allclose(gy, 2.0, rtol=1e-12)

    def test_gradient_exact_for_quadratic(self):
        g = grid1d(11, 0.0, 1.0)
        u = sample(g, lambda x: x**2)
        (gx,) = gradient_field(u.values, g.spacing)
        np.testing.assert_allclose(gx, 2.0 * g.axes()[0][1:-1], rtol=1e-12)

    def test_hessian_exact_for_quadratics(self):
        u = sample(grid2d(9, 9), lambda x, y: x**2 - y**2)
        dxx, dxy, dyy = hessian_field(u.values, u.grid.spacing)
        assert dxx.shape == dxy.shape == dyy.shape == (7, 7)
        assert np.allclose(dxx, 2.0, atol=1e-10)
        assert np.allclose(dxy, 0.0, atol=1e-10)
        assert np.allclose(dyy, -2.0, atol=1e-10)

    def test_hessian_cross_term(self):
        u = sample(grid2d(9, 9), lambda x, y: x * y)
        dxx, dxy, dyy = hessian_field(u.values, u.grid.spacing)
        assert np.allclose(dxy, 1.0, rtol=1e-12)
        assert np.abs(dxx).max() <= 1e-12 and np.abs(dyy).max() <= 1e-12

    def test_second_order_consistency(self):
        # max-node error of gradient and hessian drops at order >= 1.9
        errs_g, errs_h = [], []
        for n in (33, 65, 129):
            g = grid1d(n, 0.0, 1.0)
            u = sample(g, np.sin)
            x = g.axes()[0][1:-1]
            eg = np.abs(gradient_field(u.values, g.spacing)[0] - np.cos(x)).max()
            eh = np.abs(hessian_field(u.values, g.spacing)[0] + np.sin(x)).max()
            errs_g.append(eg)
            errs_h.append(eh)
        for errs in (errs_g, errs_h):
            orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert min(orders) >= 1.9


def _explicit_stencils(v, h):
    """The per-dimension formulas: (centered gradient, Hessian, one-sided slopes)."""
    if v.ndim == 1:
        grad = ((v[2:] - v[:-2]) / (2.0 * h[0]),)
        hess = ((v[2:] - 2.0 * v[1:-1] + v[:-2]) / h[0] ** 2,)
        one_sided = (((v[1:-1] - v[:-2]) / h[0], (v[2:] - v[1:-1]) / h[0]),)
        return grad, hess, one_sided
    gx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * h[0])
    gy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * h[1])
    dxx = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / h[0] ** 2
    dyy = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / h[1] ** 2
    dxy = (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4.0 * h[0] * h[1])
    c = v[1:-1, 1:-1]
    one_sided = (((c - v[:-2, 1:-1]) / h[0], (v[2:, 1:-1] - c) / h[0]),
                 ((c - v[1:-1, :-2]) / h[1], (v[1:-1, 2:] - c) / h[1]))
    return (gx, gy), (dxx, dxy, dyy), one_sided


@pytest.mark.parametrize("shape, spacing", [((17,), (0.37,)), ((9, 13), (0.11, 0.029))])
def test_axis_views_match_explicit_formulas_to_the_bit(shape, spacing):
    # the shared per-axis views give every stencil bit for bit as written out
    # per dimension, on random values and unequal spacings
    v = np.random.default_rng(7).normal(scale=3.0, size=shape)
    grad, hess, one_sided = _explicit_stencils(v, spacing)
    slopes = axis_slopes(v, spacing)
    assert len(slopes) == len(shape)
    for (back, fwd, d0), (back_ref, fwd_ref), g_ref in zip(slopes, one_sided, grad):
        for got, ref in ((back, back_ref), (fwd, fwd_ref), (d0, g_ref)):
            assert got.shape == ref.shape and np.array_equal(got, ref)
    for stencil, ref in ((gradient_field, grad), (hessian_field, hess)):
        got = stencil(v, spacing)
        assert len(got) == len(ref)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, ref))


class TestSeminorms:
    def test_constant_is_zero(self):
        u = sample(grid1d(21), lambda x: 0.0 * x + 5.0)
        assert lipschitz_seminorm(u) == 0.0

    def test_identity_slope(self):
        u = sample(grid1d(21, 0.0, 1.0), lambda x: 3.0 * x)
        assert lipschitz_seminorm(u) == pytest.approx(3.0)

    def test_abs_slope(self):
        u = sample(grid1d(21), np.abs)
        assert lipschitz_seminorm(u) == pytest.approx(1.0)

    def test_sqrt_holder_half(self):
        g = grid1d(65, 0.0, 1.0)
        u = sample(g, np.sqrt)
        val = holder_seminorm(u.values, g, 0.5)
        assert val == pytest.approx(1.0, rel=0.05)

    def test_monotone_in_region_inclusion(self):
        g = grid1d(41, 0.0, 1.0)
        u = sample(g, lambda x: np.sin(3.0 * x))
        inner = holder_seminorm(u.values, g, 0.5, subregion=Box((0.25,), (0.75,)))
        outer = holder_seminorm(u.values, g, 0.5)
        assert inner <= outer + 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_seminorm_homogeneity(self, scale):
        g = grid1d(31, 0.0, 1.0)
        u = sample(g, lambda x: np.cos(2.0 * x))
        base = holder_seminorm(u.values, g, 0.5)
        scaled = holder_seminorm(scale * u.values, g, 0.5)
        assert scaled == pytest.approx(abs(scale) * base, abs=1e-12)

    def test_gamma_range_enforced(self):
        g = grid1d(11)
        with pytest.raises(OutOfRange):
            holder_seminorm(np.zeros(11), g, 1.5)

    def test_vector_field_values_rejected(self):
        g = grid1d(11)
        with pytest.raises(DimensionMismatch):
            holder_seminorm(np.zeros((11, 2)), g, 0.5)

    def test_empty_region(self):
        g = grid1d(11)
        with pytest.raises(EmptyRegion):
            holder_seminorm(np.zeros(11), g, 0.5,
                            subregion=Box((0.49,), (0.5,)))


class TestBoundaryGeometry:
    def test_grid_requires_three_nodes(self):
        with pytest.raises(OutOfRange):
            grid1d(2)


class TestSnapshots:
    def test_binary_round_trip(self, tmp_path):
        u = sample(grid2d(7, 5), lambda x, y: np.sin(x) + y)
        path = tmp_path / "u.bin"
        save_binary(u, path)
        raw = path.read_bytes()  # magic, dim, counts, lo, hi, row-major LE float64
        assert raw[:4] == b"EGF1"
        assert struct.unpack("<i2i2d2d", raw[4:48]) == (2, 7, 5, 0.0, 0.0, 1.0, 1.0)
        values = np.frombuffer(raw[48:], dtype="<f8").reshape(7, 5)
        assert np.array_equal(values, u.values)

    def test_csv_has_header_and_rows(self, tmp_path):
        u = sample(grid1d(5), lambda x: x)
        path = tmp_path / "u.csv"
        save_csv(u, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 nodes
        assert lines[0] == "x,value"
        first = [float(tok) for tok in lines[1].split(",")]
        assert first == pytest.approx([-1.0, -1.0])


@pytest.mark.parametrize("shape", [(5,), (4, 6)])
def test_prolong_injects_and_is_bilinear(shape):
    # the coarse values at the shared nodes; a bilinear function exactly
    grid = UniformGrid(shape, Box((-1.0,) * len(shape), (1.0, 0.5)[:len(shape)]))
    fine = UniformGrid(tuple(2 * n - 1 for n in shape), grid.box)
    rng = np.random.default_rng(2)
    v = rng.normal(size=shape)
    assert np.array_equal(prolong(v)[(slice(None, None, 2),) * len(shape)], v)

    def bilinear(*xs):
        out = 0.3 + 0.7 * xs[0]
        return out * (1.0 - 0.4 * xs[1]) if len(xs) == 2 else out

    got = prolong(bilinear(*grid.coords()))
    assert got.shape == fine.shape
    np.testing.assert_allclose(got, bilinear(*fine.coords()), rtol=0, atol=1e-15)
