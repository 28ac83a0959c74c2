"""Coupled solver backends: marching scheme, Picard iteration, global
continuation and the linear/nonlinear decomposition."""

import tracemalloc

import numpy as np
import pytest

from csd1d import (
    ConvergenceFailureError,
    CouplingKind,
    ModelParams,
    SlabUnderflowError,
    SolverConfig,
    State,
    initial_size,
    march,
    picard_slab,
    solve_decomposed,
    solve_final_state,
    solve_global,
    make_grid,
)
from csd1d.lattice import shift_values
import csd1d.solver
from csd1d.solver import (
    _sup_distance,
    _unit_phase,
    contraction_ratios,
    measured_contraction,
)

from conftest import bump_state


def scale_state(state, c):
    return State.from_arrays(
        state.grid,
        c * state.psi_plus.values,
        c * state.psi_minus.values,
        c * state.a_plus.values,
        c * state.a_minus.values,
        state.params,
    )


def test_state_validation(grid):
    params = ModelParams()
    s = State.zero(grid, params)
    with pytest.raises(ValueError):
        State.from_arrays(
            grid, s.psi_plus.values, s.psi_minus.values,
            s.a_plus.values, s.a_minus.values, params, t=-1.0,
        )


def test_solver_config_validation(grid):
    with pytest.raises(ValueError):
        SolverConfig(backend="rk4")
    with pytest.raises(ValueError):
        SolverConfig(slab_T=0.0)
    with pytest.raises(ValueError):
        SolverConfig(slab_T=0.26).slab_steps(grid)  # not a multiple of dt
    assert SolverConfig(slab_T=0.25).slab_steps(grid) == 8


def test_march_free_field_is_exact_shift(grid):
    # psi_- = A = 0 with a null coupling: P vanishes identically, no
    # gauge field is regenerated and psi_+ is a pure lattice shift
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0)
    s = bump_state(grid, params, seed=3)
    zeros = np.zeros(grid.n_cells)
    free = State.from_arrays(
        grid, s.psi_plus.values, zeros.astype(complex), zeros, zeros, params
    )
    traj = march(free, 16)
    for i in range(17):
        assert np.array_equal(traj.psi_plus[i], shift_values(free.psi_plus.values, i))
        assert np.abs(traj.a_plus[i]).max() == 0.0


def test_march_massless_modulus_preserved(grid):
    # with m = 0 the gauge term is a pure phase: |psi(t)| is the shifted
    # |psi0| to roundoff even with a large gauge field
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0)
    s = bump_state(grid, params, seed=5, amplitude=0.8)
    traj = march(s, 24)
    for i in range(25):
        assert np.allclose(
            np.abs(traj.psi_plus[i]),
            np.abs(shift_values(s.psi_plus.values, i)),
            atol=1e-13,
        )


def test_march_massless_charge_exact(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA1, m=0.0)
    s = bump_state(grid, params, seed=6)
    traj = march(s, 32)
    q = traj.charge()
    assert np.abs(q - q[0]).max() <= 1e-12 * q[0]


def test_trajectory_bookkeeping(grid):
    params = ModelParams(m=1.0)
    s = bump_state(grid, params, seed=7)
    traj = march(s, 8)
    assert traj.n_steps == 8
    assert np.allclose(traj.times, np.arange(9) * grid.dt)
    fin = traj.final_state
    assert fin.t == pytest.approx(8 * grid.dt)
    assert np.array_equal(fin.psi_plus.values, traj.psi_plus[8])
    assert set(traj.field_traces()) == {"psi_plus", "psi_minus", "a_plus", "a_minus"}


def test_unit_phase_is_complex_exp_bitwise():
    # finite angles: signed zeros, subnormals, the smallest normal, and
    # eight random angles per decade from 1e-300 to 1e300, shuffled so
    # that the special values sit in different SIMD lanes
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -np.pi]
    decades = 10.0 ** np.arange(-300, 301)
    random = (rng.uniform(-1.0, 1.0, (8, 601)) * decades).ravel()
    theta = rng.permutation(np.concatenate([special, random]))

    def bits(z):
        return z.view(np.uint64)

    assert np.array_equal(bits(_unit_phase(theta)), bits(np.exp(1j * theta)))
    lengths = list(range(1, 65)) + [n + d for n in (128, 512, 1024, 2048, 4096) for d in (-1, 0)]
    for n in lengths:
        t = theta[n % 13 : n % 13 + n]
        assert np.array_equal(bits(_unit_phase(t)), bits(np.exp(1j * t))), n


@pytest.mark.parametrize("backend", ["march", "solve_decomposed"])
def test_march_evaluates_one_coupling_per_step(grid, monkeypatch, backend):
    # each step's new coupling also drives the next step's phases
    calls = []
    coupling_values = csd1d.solver.coupling_values

    def counted(*args):
        calls.append(args)
        return coupling_values(*args)

    monkeypatch.setattr(csd1d.solver, "coupling_values", counted)
    s = bump_state(grid, ModelParams(alpha=CouplingKind.IDENTITY, m=1.0), seed=8)
    k = 12
    if backend == "march":
        march(s, k)
    else:
        solve_decomposed(s, k * grid.dt, SolverConfig(backend="march"))
    assert len(calls) == k + 1


def test_picard_null_converges_and_matches_march(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=8)
    traj, history = picard_slab(s, SolverConfig(slab_T=0.25))
    assert history[-1]["sup"] < 1e-12
    ref = march(s, traj.n_steps)
    diff = np.abs(traj.psi_plus - ref.psi_plus).max()
    assert diff < 5e-3  # both backends are second order; O(dx^2) apart


def test_picard_identity_coupling_converges(grid):
    params = ModelParams(alpha=CouplingKind.IDENTITY, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=9)
    traj, history = picard_slab(s, SolverConfig(slab_T=0.25))
    assert history[-1]["sup"] < 1e-12
    ref = march(s, traj.n_steps)
    assert np.abs(traj.psi_plus - ref.psi_plus).max() < 5e-3


def test_backend_difference_shrinks_at_second_order():
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    diffs = []
    for n in (256, 512):
        g = make_grid(-8.0, 8.0, n)
        s = bump_state(g, params, seed=10)
        traj, _ = picard_slab(s, SolverConfig(slab_T=0.25))
        ref = march(s, traj.n_steps)
        diffs.append(np.abs(traj.psi_plus[-1] - ref.psi_plus[-1]).max())
    ratio = diffs[0] / diffs[1]
    assert 2.5 < ratio < 6.0


def test_contraction_small_data(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=11)
    s = scale_state(s, 0.05 / initial_size(s))
    _, history = picard_slab(s, SolverConfig(slab_T=0.25))
    assert measured_contraction(history) <= 0.5
    assert len(history) <= 45
    assert contraction_ratios(history)  # at least one ratio above the floor


def test_picard_divergence_raises_with_history(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=12)
    s = scale_state(s, 300.0 / initial_size(s))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceFailureError) as exc_info:
            picard_slab(s, SolverConfig(slab_T=0.25))
    assert len(exc_info.value.history) == 50


def test_solve_global_chains_slabs(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=13)
    traj = solve_global(s, 1.0, SolverConfig(slab_T=0.25))
    assert traj.n_steps == int(round(1.0 / grid.dt))
    assert len(traj.slab_histories) == 4
    assert traj.times[-1] == pytest.approx(1.0)
    # one long slab agrees with the chained solve to quadrature accuracy
    one, _ = picard_slab(s, SolverConfig(slab_T=1.0))
    assert np.abs(one.psi_plus[-1] - traj.psi_plus[-1]).max() < 5e-3


def test_solve_global_rejects_misaligned_T(grid):
    params = ModelParams()
    s = State.zero(grid, params)
    with pytest.raises(ValueError):
        solve_global(s, 0.26, SolverConfig())


def test_auto_slab_shrinks_for_moderate_data(grid):
    # data large enough that the full slab contracts too slowly but a
    # shorter slab still converges
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=14)
    s = scale_state(s, 40.0 / initial_size(s))
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve_global(s, 0.25, SolverConfig(slab_T=0.25))
    assert traj.n_steps == 8
    assert len(traj.slab_histories) > 1  # forced to subdivide


def test_slab_underflow_reports_norms(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=15)
    s = scale_state(s, 1e6 / initial_size(s))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SlabUnderflowError) as exc_info:
            solve_global(s, 0.25, SolverConfig(slab_T=0.25))
    err = exc_info.value
    assert err.slab_start == pytest.approx(0.0)
    assert set(err.norms) == {"psi_plus", "psi_minus", "a_plus", "a_minus"}
    assert "single-step floor" in str(err)


@pytest.mark.parametrize("kind", list(CouplingKind))
@pytest.mark.parametrize(
    "backend,n_cells,scale,slab_T,T",
    [
        # the solver halves the 0.5-long Picard slab here, so a rejected
        # attempt sits between the accepted ones
        ("picard", 256, 20.0, 0.5, 0.5),
        ("picard", 256, 20.0, 0.5, 0.0),
        ("march", 256, 20.0, 0.5, 0.5),
        # dt = 0.16: the six slab ends summed one by one miss 24 * dt
        ("picard", 100, 1.0, 0.64, 3.84),
    ],
    ids=["halved", "T0", "march", "six_slabs"],
)
def test_solve_final_state_is_last_row_of_solve_global(kind, backend, n_cells, scale, slab_T, T):
    grid = make_grid(-8.0, 8.0, n_cells)
    s = scale_state(bump_state(grid, ModelParams(alpha=kind, m=1.0, p=2.0), seed=3), scale)
    cfg = SolverConfig(backend=backend, slab_T=slab_T)
    want = solve_global(s, T, cfg)
    got = solve_final_state(s, T, cfg)
    if backend == "picard" and T > 0:
        assert len(want.slab_histories) > 1
    assert got.t == want.final_state.t
    for a, b in zip(got.arrays(), want.final_state.arrays()):
        assert a.tobytes() == b.tobytes()


def test_iterate_distance_nan_in_last_field_is_not_converged():
    # a running max(0.0, nan) is 0.0: the NaN must not be dropped
    new = [np.zeros((3, 8), complex), np.zeros((3, 8), complex), np.zeros((3, 8)), np.zeros((3, 8))]
    old = [a.copy() for a in new]
    new[3][1, 4] = np.nan
    d_sup = _sup_distance(new, old, np.empty((3, 8), complex), np.empty((3, 8)))
    assert not np.isfinite(d_sup)
    assert not d_sup < 1e-12


def test_picard_slab_peak_memory():
    # two iterate sets of 48 bytes a cell, the complex and real work
    # arrays and the coupling; the shifted data rows are views
    grid = make_grid(-8.0, 8.0, 1024)
    s = bump_state(grid, ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=2.0), seed=3)
    K = SolverConfig().slab_steps(grid)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        picard_slab(s, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    iterate_bytes = (K + 1) * grid.n_cells * 48
    assert peak <= 3.3 * iterate_bytes, peak / iterate_bytes


def test_decomposition_sums_to_march(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA1, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=16)
    dtraj = solve_decomposed(s, 0.5, SolverConfig())
    ref = march(s, dtraj.n_steps)
    # L + N is the full spinor; the gauge fields are stored whole
    assert np.abs(dtraj.psi_l_plus + dtraj.psi_n_plus - ref.psi_plus).max() < 1e-12
    assert np.abs(dtraj.psi_l_minus + dtraj.psi_n_minus - ref.psi_minus).max() < 1e-12
    assert np.abs(dtraj.a_plus - ref.a_plus).max() < 1e-12
    assert np.abs(dtraj.a_minus - ref.a_minus).max() < 1e-12


def test_decomposition_linear_part_modulus(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    s = bump_state(grid, params, seed=17)
    dtraj = solve_decomposed(s, 0.5, SolverConfig())
    for i in range(dtraj.n_steps + 1):
        assert np.allclose(
            np.abs(dtraj.psi_l_plus[i]),
            np.abs(shift_values(s.psi_plus.values, i)),
            atol=1e-13,
        )


def test_decomposition_nonlinear_part_vanishes_without_mass(grid):
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    s = bump_state(grid, params, seed=18)
    dtraj = solve_decomposed(s, 0.5, SolverConfig())
    assert np.abs(dtraj.psi_n_plus).max() == 0.0
    assert np.abs(dtraj.psi_n_minus).max() == 0.0


def test_zero_data_stays_zero(grid):
    params = ModelParams(alpha=CouplingKind.IDENTITY, m=1.0, p=1.0)
    s = State.zero(grid, params)
    traj = solve_global(s, 0.5, SolverConfig())
    for trace in traj.field_traces().values():
        assert np.abs(trace).max() == 0.0
