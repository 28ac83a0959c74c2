"""Couplings, change of variables and data generation."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csd1d import (
    ComplexField,
    CouplingKind,
    DataSpec,
    ModelParams,
    RealField,
    RunConfig,
    SolverConfig,
    build_initial_state,
    diagonalize,
    generate_data,
    lp_norm,
    make_grid,
    solve_global,
    spacetime_lp_norm,
)
from csd1d.physics import coupling_values
from csd1d.report import RELATIVE_SLACK

GAUSSIAN_NULL = Path(__file__).parents[1] / "configs" / "gaussian_null.json"


# hand-computed point values [DERIVED]:
# (1+2i) * conj(3-i) = (1+2i)(3+i) = 1 + 7i
def test_coupling_point_oracle():
    pp = np.array([1.0 + 2.0j])
    pm = np.array([3.0 - 1.0j])
    assert coupling_values(pp, pm, CouplingKind.NULL_GAMMA0)[0] == pytest.approx(1.0)
    assert coupling_values(pp, pm, CouplingKind.NULL_GAMMA1)[0] == pytest.approx(7.0)
    # (|1+2i|^2 + |3-i|^2)/2 = (5 + 10)/2
    assert coupling_values(pp, pm, CouplingKind.IDENTITY)[0] == pytest.approx(7.5)


def test_coupling_values_are_real():
    rng = np.random.default_rng(0)
    pp = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    pm = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    for kind in CouplingKind:
        vals = coupling_values(pp, pm, kind)
        assert vals.dtype == np.float64


def test_identity_coupling_nonnegative_and_null_flag():
    rng = np.random.default_rng(1)
    pp = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    pm = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.all(coupling_values(pp, pm, CouplingKind.IDENTITY) >= 0)
    assert CouplingKind.NULL_GAMMA0.is_null
    assert CouplingKind.NULL_GAMMA1.is_null
    assert not CouplingKind.IDENTITY.is_null


@pytest.mark.parametrize("backend", ["march", "picard"])
def test_null_couplings_meet_null_form_bounds_identity_does_not(backend):
    # At m = 0 the moduli |psi_+-| are transported exactly.  A null P
    # pairs the right-mover psi_+ with the left-mover psi_-, so changing
    # to characteristic variables bounds, for all time,
    #   int_0^T ||P||_1 dt <= 1/2 ||psi_+0||_1 ||psi_-0||_1
    # and, along the characteristic of A_+ (A_-), which psi_+ (psi_-)
    # rides, sup|A_+-| by sup|A_+-0| + 1/2 max(||psi_+0||_inf ||psi_-0||_1,
    # ||psi_-0||_inf ||psi_+0||_1).  The identity P = (|psi_+|^2 +
    # |psi_-|^2)/2 pairs each mover with itself and must break both by
    # T = 8: that is the control.
    doc = json.loads(GAUSSIAN_NULL.read_text())
    doc["grid"] = {"x_min": -16.0, "x_max": 16.0, "n_cells": 512}
    doc["model"]["m"] = 0.0
    for alpha in ("gamma0", "gamma1", "identity"):
        doc["model"]["alpha"] = alpha
        state = build_initial_state(RunConfig.from_dict(doc))
        traj = solve_global(state, 8.0, SolverConfig(backend=backend, slab_T=0.25))
        P = coupling_values(traj.psi_plus, traj.psi_minus, state.params.alpha)
        l1_p, l1_m = lp_norm(state.psi_plus, 1.0), lp_norm(state.psi_minus, 1.0)
        gauge_gain = 0.5 * max(
            lp_norm(state.psi_plus, np.inf) * l1_m, lp_norm(state.psi_minus, np.inf) * l1_p
        )
        pairs = [
            (spacetime_lp_norm(P, state.grid, 1.0), 0.5 * l1_p * l1_m),
            (np.abs(traj.a_plus).max(), lp_norm(state.a_plus, np.inf) + gauge_gain),
            (np.abs(traj.a_minus).max(), lp_norm(state.a_minus, np.inf) + gauge_gain),
        ]
        if alpha == "identity":
            assert pairs[0][0] > pairs[0][1], pairs
            assert max(pairs[1][0] - pairs[1][1], pairs[2][0] - pairs[2][1]) > 0, pairs
        else:
            assert all(lhs <= rhs * (1.0 + RELATIVE_SLACK) for lhs, rhs in pairs), (alpha, pairs)


finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@given(
    hnp.arrays(np.float64, 16, elements=finite),
    hnp.arrays(np.float64, 16, elements=finite),
    hnp.arrays(np.float64, 16, elements=finite),
    hnp.arrays(np.float64, 16, elements=finite),
)
@settings(max_examples=50, deadline=None)
def test_diagonalize_roundtrip(re1, im1, a0v, a1v):
    g = make_grid(-1.0, 1.0, 16)
    psi1 = ComplexField(g, re1 + 1j * im1)
    psi2 = ComplexField(g, im1 - 1j * re1)
    a0 = RealField(g, a0v)
    a1 = RealField(g, a1v)
    state = diagonalize(psi1, psi2, a0, a1)
    # psi_pm = psi1 +- psi2, a_pm = a0 -+ a1
    assert np.array_equal(state.psi_plus.values, psi1.values + psi2.values)
    assert np.array_equal(state.psi_minus.values, psi1.values - psi2.values)
    assert np.array_equal(state.a_plus.values, a0.values - a1.values)
    assert np.array_equal(state.a_minus.values, a0.values + a1.values)


def test_diagonal_charge_identity():
    # |psi1|^2 + |psi2|^2 = (|psi_+|^2 + |psi_-|^2) / 2
    g = make_grid(-1.0, 1.0, 32)
    rng = np.random.default_rng(7)
    psi1 = ComplexField(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    psi2 = ComplexField(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    state = diagonalize(psi1, psi2, RealField(g, np.zeros(32)), RealField(g, np.zeros(32)))
    lhs = np.abs(psi1.values) ** 2 + np.abs(psi2.values) ** 2
    rhs = 0.5 * (np.abs(state.psi_plus.values) ** 2 + np.abs(state.psi_minus.values) ** 2)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
    with pytest.raises(ValueError):
        ModelParams(p=0.5)
    ModelParams(p=np.inf)  # allowed


def test_dataspec_validation():
    with pytest.raises(ValueError):
        DataSpec(kind="sawtooth")
    with pytest.raises(ValueError):
        DataSpec(kind="box", width=0.0)
    DataSpec(kind="zero", width=-1.0)  # width unused for zero data


def test_generate_data_rejects_unresolvable_width():
    g = make_grid(-1.0, 1.0, 16)  # dx = 0.125
    with pytest.raises(ValueError):
        generate_data(DataSpec(kind="gaussian", width=0.1), g)


def test_generate_box():
    g = make_grid(-4.0, 4.0, 256)
    spec = DataSpec(kind="box", center=1.0, width=0.5, amplitude=2.0, phase=np.pi / 2)
    f = generate_data(spec, g)
    inside = np.abs(g.centers - 1.0) < 0.25
    assert np.allclose(f.values[inside], 2.0j, atol=1e-14)
    assert np.all(f.values[~inside] == 0.0)


def test_generate_modulated_gaussian_modulus():
    g = make_grid(-4.0, 4.0, 256)
    plain = generate_data(DataSpec(kind="gaussian", width=0.7, amplitude=0.9), g)
    mod = generate_data(
        DataSpec(kind="modulated_gaussian", width=0.7, amplitude=0.9, wavenumber=5.0), g
    )
    assert np.allclose(np.abs(mod.values), np.abs(plain.values), atol=1e-14)


def test_random_bumps_deterministic_and_supported():
    g = make_grid(-8.0, 8.0, 512)
    spec = DataSpec(kind="random_bumps", width=0.8, amplitude=0.5, seed=9, spread=3.0)
    a = generate_data(spec, g)
    b = generate_data(spec, g)
    assert np.array_equal(a.values, b.values)
    # each bump is centered within spread of center, with half-width below width
    lo, hi = spec.center - (spec.spread + spec.width), spec.center + (spec.spread + spec.width)
    outside = (g.centers < lo) | (g.centers > hi)
    assert np.all(a.values[outside] == 0.0)
    c = generate_data(DataSpec(kind="random_bumps", width=0.8, amplitude=0.5, seed=10), g)
    assert not np.array_equal(a.values, c.values)


def test_zero_kind():
    g = make_grid(-1.0, 1.0, 16)
    f = generate_data(DataSpec(kind="zero"), g)
    assert np.all(f.values == 0.0)
