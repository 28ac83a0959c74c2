"""Grid, norm, shift and window primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csd1d import (
    ComplexField,
    RealField,
    TriangleMask,
    lp_norm,
    make_grid,
    windowed_mass,
)
from csd1d.lattice import shift_values, window_kernel


def test_make_grid_basics():
    g = make_grid(-8.0, 8.0, 512)
    assert g.dx == pytest.approx(16.0 / 512)
    assert g.dt == g.dx
    assert g.x_max == pytest.approx(8.0)
    assert len(g.centers) == 512
    assert g.centers[0] == pytest.approx(-8.0 + 0.5 * g.dx)
    assert g.centers[-1] == pytest.approx(8.0 - 0.5 * g.dx)


def test_make_grid_rejects_bad_extent():
    with pytest.raises(ValueError):
        make_grid(1.0, 1.0, 16)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1)


def test_field_validation():
    g = make_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        ComplexField(g, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        RealField(g, bad)


def test_field_values_are_immutable():
    g = make_grid(0.0, 1.0, 8)
    f = RealField(g, np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


# cell-aligned box of width w and amplitude a has L^p norm a * w^(1/p)
# exactly under the midpoint rule [DERIVED]
@pytest.mark.parametrize("p,expected", [
    (1.0, 2.0 * 3.0),
    (2.0, 2.0 * 3.0**0.5),
    (4.0, 2.0 * 3.0**0.25),
    (np.inf, 2.0),
])
def test_lp_norm_box_oracle(p, expected):
    g = make_grid(-8.0, 8.0, 512)
    f = RealField(g, 2.0 * (np.abs(g.centers) < 1.5))
    assert lp_norm(f, p) == pytest.approx(expected, rel=1e-14)


def test_lp_norm_gaussian_oracle():
    # || exp(-x^2) ||_2 = (pi/2)^(1/4) [DERIVED]; the midpoint rule is
    # spectrally accurate for smooth rapidly decaying integrands
    g = make_grid(-8.0, 8.0, 2048)
    f = RealField(g, np.exp(-(g.centers**2)))
    assert lp_norm(f, 2.0) == pytest.approx((np.pi / 2.0) ** 0.25, rel=1e-12)


def test_lp_norm_rejects_p_below_one():
    g = make_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        lp_norm(RealField(g, np.ones(8)), 0.5)


@given(st.integers(-10, 10))
@settings(max_examples=40, deadline=None)
def test_shift_roundtrip_exact(k):
    rng = np.random.default_rng(3)
    vals = np.zeros(64, complex)
    vals[20:44] = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    back = shift_values(shift_values(vals, k), -k)
    assert np.array_equal(back, vals)


def test_shift_fill_and_bounds():
    vals = np.arange(5.0)
    assert np.array_equal(shift_values(vals, 2), [0.0, 0.0, 0.0, 1.0, 2.0])
    assert np.array_equal(shift_values(vals, -2), [2.0, 3.0, 4.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        shift_values(vals, 6)


@given(st.integers(0, 30))
@settings(max_examples=30, deadline=None)
def test_shift_preserves_interior_l1(k):
    g = make_grid(-4.0, 4.0, 128)
    vals = np.zeros(128)
    vals[50:70] = 1.0 + np.arange(20.0)
    f = RealField(g, vals)
    moved = RealField(g, shift_values(vals, k))
    assert lp_norm(moved, 1.0) == pytest.approx(lp_norm(f, 1.0), rel=1e-14)


def test_window_kernel_total_weight():
    # the kernel integrates cells against the window, so its sum is the
    # window length 2r whenever the window sits inside the covered cells
    dx = 0.125
    for r in (0.25, 0.3, 1.0):
        assert window_kernel(r, dx).sum() == pytest.approx(2 * r, rel=1e-13)


def brute_window_mass(values, grid, r):
    # direct overlap integral of |f| over (x_j - r, x_j + r) [oracle]
    edges_lo = grid.x_min + np.arange(grid.n_cells) * grid.dx
    edges_hi = edges_lo + grid.dx
    best = 0.0
    for xc in grid.centers:
        lo = np.maximum(edges_lo, xc - r)
        hi = np.minimum(edges_hi, xc + r)
        overlap = np.clip(hi - lo, 0.0, None)
        best = max(best, float((np.abs(values) * overlap).sum()))
    return best


def test_windowed_mass_matches_brute_force():
    g = make_grid(-2.0, 2.0, 64)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(64)
    f = RealField(g, vals)
    for r in (0.125, 0.3, 0.7):
        assert windowed_mass(f, r) == pytest.approx(brute_window_mass(vals, g, r), rel=1e-12)


def test_windowed_mass_of_wide_box_is_window_length():
    g = make_grid(-4.0, 4.0, 256)
    f = RealField(g, (np.abs(g.centers) < 3.0).astype(float))
    assert windowed_mass(f, 0.5) == pytest.approx(1.0, rel=1e-13)


def test_windowed_mass_monotone_in_r():
    g = make_grid(-4.0, 4.0, 256)
    rng = np.random.default_rng(5)
    f = RealField(g, rng.standard_normal(256))
    radii = [0.1, 0.2, 0.4, 0.8, 1.6]
    masses = [windowed_mass(f, r) for r in radii]
    assert all(a <= b + 1e-13 for a, b in zip(masses, masses[1:]))


def test_windowed_mass_rejects_subcell_radius():
    g = make_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        windowed_mass(RealField(g, np.ones(8)), 0.01)


def test_triangle_mask_shrinks_with_time():
    g = make_grid(-4.0, 4.0, 128)
    mask = TriangleMask(x0=0.5, R=2.0)
    counts = [mask.indicator(g, t).sum() for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert mask.indicator(g, 2.5).sum() == 0

