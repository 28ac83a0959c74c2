"""Scalar characteristic transport and the bilinear product estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csd1d import (
    ComplexField,
    DomainOverflowError,
    RealField,
    SourceTrace,
    bilinear_bound_check,
    make_grid,
    solve_transport,
    spacetime_lp_norm,
)
import csd1d.transport
from csd1d.lattice import shift_values
from csd1d.transport import characteristic_integral_rows, data_shift_rows


def interior_bumps(grid, seed, margin_cells):
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.n_cells, complex)
    lo, hi = margin_cells, grid.n_cells - margin_cells
    vals[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    return vals


def test_free_transport_is_exact_shift():
    g = make_grid(-4.0, 4.0, 128)
    vals = interior_bumps(g, 0, 40)
    trace = solve_transport(ComplexField(g, vals), None, +1, 20)
    for i in range(21):
        assert np.array_equal(trace[i], shift_values(vals, i))


def test_transport_argument_validation():
    g = make_grid(-4.0, 4.0, 128)
    f = ComplexField(g, np.zeros(128, complex))
    with pytest.raises(ValueError):
        solve_transport(f, None, 0, 4)
    with pytest.raises(ValueError):
        solve_transport(f, None, +1, -1)
    short = SourceTrace(g, np.zeros((3, 128)))
    with pytest.raises(ValueError):
        solve_transport(f, short, +1, 5)


def test_containment_overflow_raises():
    g = make_grid(-4.0, 4.0, 128)
    vals = np.zeros(128)
    vals[2] = 1.0
    with pytest.raises(DomainOverflowError):
        solve_transport(RealField(g, vals), None, -1, 10)


def test_source_constant_along_characteristic_is_exact():
    # for F(t, x) = g(x - t) the solution of (d_t + d_x) u = F with u0 = 0
    # is u(t, x) = t * g(x - t); the integrand along the characteristic is
    # constant, so the trapezoidal rule is exact [DERIVED]
    g = make_grid(-8.0, 8.0, 256)
    prof = np.exp(-(g.centers**2)) * (np.abs(g.centers) < 4.0)
    steps = 32
    samples = np.stack([shift_values(prof, i) for i in range(steps + 1)])
    trace = solve_transport(
        RealField(g, np.zeros(256)), SourceTrace(g, samples), +1, steps
    )
    for i in range(steps + 1):
        t = i * g.dt
        assert np.allclose(trace[i], t * shift_values(prof, i), atol=1e-13)


def test_source_linear_in_time_is_exact():
    # F(t, x) = t * g(x - t) integrates to (t^2/2) g(x - t) along the
    # characteristic; the trapezoidal rule is exact for linear integrands
    g = make_grid(-8.0, 8.0, 256)
    prof = np.exp(-(g.centers**2)) * (np.abs(g.centers) < 4.0)
    steps = 32
    samples = np.stack([i * g.dt * shift_values(prof, i) for i in range(steps + 1)])
    trace = solve_transport(
        RealField(g, np.zeros(256)), SourceTrace(g, samples), +1, steps
    )
    for i in range(steps + 1):
        t = i * g.dt
        assert np.allclose(trace[i], 0.5 * t**2 * shift_values(prof, i), atol=1e-13)


def test_spacetime_norm_constant_oracle():
    # constant c on the slab: ||c||_{L^p L^p} = c * (T * L)^(1/p) [DERIVED]
    g = make_grid(0.0, 2.0, 64)
    steps = 32
    T = steps * g.dt
    trace = np.full((steps + 1, 64), 3.0)
    for p in (1.0, 2.0, 4.0):
        assert spacetime_lp_norm(trace, g, p) == pytest.approx(
            3.0 * (T * 2.0) ** (1.0 / p), rel=1e-13
        )
    assert spacetime_lp_norm(trace, g, np.inf) == pytest.approx(3.0)


def unit_box(grid, lo, hi):
    return ComplexField(grid, ((grid.centers > lo) & (grid.centers < hi)).astype(complex))


def test_bilinear_sharp_case_adjacent_boxes():
    # u_{+0} = chi_[-1,0], u_{-0} = chi_[0,1]: the supports cross exactly
    # once and the estimate is attained with equality
    g = make_grid(-8.0, 8.0, 4096)
    rep = bilinear_bound_check(
        unit_box(g, -1.0, 0.0), unit_box(g, 0.0, 1.0), None, None, 1.0, 1.0
    )
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)
    assert 0.499 <= rep.lhs <= 0.501
    assert rep.pass_


def test_bilinear_separating_supports_gives_zero_product():
    # supports moving apart never cross: LHS = 0
    g = make_grid(-8.0, 8.0, 1024)
    rep = bilinear_bound_check(
        unit_box(g, 0.0, 1.0), unit_box(g, -1.0, 0.0), None, None, 2.0, 1.0
    )
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(0.5**0.5, abs=1e-12)


@given(st.integers(0, 200), st.sampled_from([1.0, 1.5, 2.0, 4.0, np.inf]))
@settings(max_examples=60, deadline=None)
def test_bilinear_inequality_random_free_data(seed, p):
    g = make_grid(-8.0, 8.0, 256)
    rng = np.random.default_rng(seed)
    margin = 80
    u_p = ComplexField(g, interior_bumps(g, rng.integers(2**31), margin))
    u_m = ComplexField(g, interior_bumps(g, rng.integers(2**31), margin))
    rep = bilinear_bound_check(u_p, u_m, None, None, p, 1.0)
    assert rep.margin >= -rep.tolerance


def test_bilinear_with_sources_inequality():
    g = make_grid(-8.0, 8.0, 512)
    rng = np.random.default_rng(4)
    prof = np.exp(-(g.centers**2)) * (np.abs(g.centers) < 3.0)
    steps = 32
    t = np.arange(steps + 1) * g.dt
    F_p = SourceTrace(g, np.cos(3 * t)[:, None] * prof[None, :])
    F_m = SourceTrace(g, np.sin(2 * t)[:, None] * prof[None, :])
    u_p = ComplexField(g, prof * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    u_m = ComplexField(g, shift_values(prof, 17) * 0.7)
    for p in (1.0, 2.0, np.inf):
        rep = bilinear_bound_check(u_p, u_m, F_p, F_m, p, 1.0)
        assert rep.margin >= -rep.tolerance


def test_source_trace_validation():
    g = make_grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        SourceTrace(g, np.zeros((4, 15)))
    bad = np.zeros((4, 16))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        SourceTrace(g, bad)


def _signed_samples(rng, shape, dtype):
    """Random samples of the dtype with some entries -0.0."""
    vals = rng.standard_normal(shape)
    if dtype is complex:
        vals = vals + 1j * rng.standard_normal(shape)
    vals[rng.random(shape) < 0.2] = -0.0
    return vals


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("K", [5, 19])
def test_data_shift_rows_match_repeated_shifts(dtype, sign, K):
    # K = 19 shifts a 12-cell grid past its end
    data = _signed_samples(np.random.default_rng(K), 12, dtype)
    rows = data_shift_rows(data, sign, K)
    assert rows.shape == (K + 1, 12) and rows.dtype == data.dtype
    expected = [data]
    for _ in range(K):
        expected.append(shift_values(expected[-1], sign))
    assert rows.tobytes() == np.array(expected).tobytes()
    with pytest.raises(ValueError):
        rows[1, 3] = 1.0


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("sign", [+1, -1])
def test_characteristic_integral_rows_into_out(monkeypatch, dtype, sign, block_rows):
    if block_rows is not None:
        # bulk blocks that end inside the slab, one row and three rows long
        row_bytes = 16 * np.dtype(dtype).itemsize
        monkeypatch.setattr(csd1d.transport, "_BLOCK_BYTES", block_rows * row_bytes)
    rng = np.random.default_rng(7)
    F = _signed_samples(rng, (9, 16), dtype)
    base = data_shift_rows(_signed_samples(rng, 16, dtype), sign, 8)
    dt = 0.125
    # the trapezoid along the characteristic, one shifted row at a time
    expected = np.zeros_like(F)
    for i in range(1, 9):
        prev = shift_values(expected[i - 1], sign)
        row = shift_values(F[i - 1], sign) + F[i]
        expected[i] = prev + 0.5 * dt * row
    expected += base
    allocated = characteristic_integral_rows(F, sign, dt, base)
    buf = np.full_like(F, np.nan)
    written = characteristic_integral_rows(F, sign, dt, base, out=buf)
    assert written is buf
    assert buf.tobytes() == allocated.tobytes()
    assert np.array_equal(allocated, expected)
