"""Estimate checks: charge, intrinsic bound, cones, windows, scaling."""

import numpy as np
import pytest

from csd1d import (
    CouplingKind,
    ModelParams,
    SolverConfig,
    State,
    charge_series,
    concentration_monitor,
    corollary_envelope_report,
    finite_speed_check,
    intrinsic_bound_report,
    localization_check,
    march,
    scaling_check,
    solve_decomposed,
    solve_global,
    make_grid,
)

from conftest import bump_state


def punctured_state(grid, params, seed, x0, R):
    s = bump_state(grid, params, seed)
    outside = (np.abs(grid.centers - x0) >= R).astype(float)
    return State.from_arrays(
        grid,
        s.psi_plus.values * outside,
        s.psi_minus.values * outside,
        s.a_plus.values * outside,
        s.a_minus.values * outside,
        params,
    )


def test_charge_report_march_massless(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0)
    traj = march(bump_state(grid, params, seed=21), 32)
    series, rep = charge_series(traj)
    assert len(series) == 33
    assert rep.tolerance == 1e-12  # structurally exact case
    assert rep.pass_


def test_charge_report_picard_uses_relative_slack(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    traj = solve_global(bump_state(grid, params, seed=22), 0.5, SolverConfig())
    _, rep = charge_series(traj)
    assert rep.tolerance == 1e-3
    assert rep.pass_


def test_intrinsic_bound_holds(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA1, m=1.0, p=1.0)
    dtraj = solve_decomposed(bump_state(grid, params, seed=23), 1.0, SolverConfig())
    for p in (1.0, 2.0, np.inf):
        rep = intrinsic_bound_report(dtraj, p)
        assert rep.margin >= -rep.tolerance


def test_intrinsic_bound_massless_is_zero(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    dtraj = solve_decomposed(bump_state(grid, params, seed=24), 0.5, SolverConfig())
    rep = intrinsic_bound_report(dtraj, 2.0)
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0
    assert rep.pass_


@pytest.mark.parametrize("backend", ["picard", "march"])
def test_finite_speed_zero_leak(grid, backend):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = punctured_state(grid, params, seed=25, x0=0.0, R=1.0)
    rep = finite_speed_check(s, 0.0, 1.0, SolverConfig(backend=backend))
    assert rep.lhs <= 1e-12
    assert rep.pass_


def test_finite_speed_widened_control_fires(grid):
    # widening the detection window past the cone must see the data
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = punctured_state(grid, params, seed=25, x0=0.0, R=1.0)
    rep = finite_speed_check(s, 0.0, 1.0, SolverConfig(), widen_cells=2)
    assert not rep.pass_


def test_finite_speed_rejects_tiny_cone(grid):
    params = ModelParams()
    s = State.zero(grid, params)
    with pytest.raises(ValueError):
        finite_speed_check(s, 0.0, grid.dx, SolverConfig())


def test_finite_speed_rejects_radius_off_the_step_lattice(grid):
    # R = 1.01 is 32.32 steps: the solve must not stop silently at t = 1
    s = State.zero(grid, ModelParams())
    with pytest.raises(ValueError, match=r"R=1\.01 is not a multiple of dt"):
        finite_speed_check(s, 0.0, 1.01, SolverConfig())


@pytest.mark.parametrize("backend", ["picard", "march"])
def test_localization_inside_cone(grid, backend):
    params = ModelParams(alpha=CouplingKind.IDENTITY, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=26)
    rep = localization_check(s, 0.0, 1.5, SolverConfig(backend=backend))
    assert rep.pass_


def test_localization_misaligned_control_fires(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=26)
    rep = localization_check(s, 0.0, 1.5, SolverConfig(), misalign_cells=40)
    assert not rep.pass_


def test_concentration_monitor_envelope(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=27)
    traj = march(s, 16)
    series, rep = concentration_monitor(traj, 1.0, initial=s)
    assert len(series) == 17
    assert rep.pass_
    with pytest.raises(ValueError):
        concentration_monitor(traj, 0.5 * grid.dx, initial=s)


def test_concentration_monotone_in_radius(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=28)
    traj = march(s, 16)
    prev = None
    for r in (2.0, 1.0, 0.5, 0.25):
        _, rep = concentration_monitor(traj, r, initial=s)
        if prev is not None:
            assert rep.lhs <= prev + 1e-12
        prev = rep.lhs


def test_scaling_check_identity_level(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    s = bump_state(grid, params, seed=29, amplitude=0.25)
    rep = scaling_check(s, 1, 0.5, SolverConfig())
    assert rep.lhs <= 10 * SolverConfig().picard_tol


def test_scaling_check_lambda_two(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA1, m=0.0, p=1.0)
    s = bump_state(grid, params, seed=30, amplitude=0.25)
    rep = scaling_check(s, 2, 0.5, SolverConfig())
    assert rep.margin >= -rep.tolerance


def test_scaling_check_requires_massless(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=31)
    with pytest.raises(ValueError):
        scaling_check(s, 2, 0.5, SolverConfig())


def test_envelope_constant_bounded_for_small_data(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=32, amplitude=0.1)
    traj = solve_global(s, 1.0, SolverConfig())
    rep = corollary_envelope_report(traj, 1.0)
    assert 0.0 < rep.metadata["C"] <= 1.1
