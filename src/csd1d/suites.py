"""Seeded verification suites behind `csd1d verify`.

Each suite produces one row per trial with the measured left/right hand
sides of the estimate it exercises.  Counter-test rows (deliberately
broken configurations) pass only when the detector fires, so a silent
always-pass check is caught.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .diagnostics import (
    EXACT_TOL,
    charge_series,
    concentration_monitor,
    finite_speed_check,
    intrinsic_bound_report,
    localization_check,
    scaling_check,
)
from .errors import ConvergenceFailureError
from .lattice import make_grid
from .physics import CouplingKind, DataSpec, ModelParams, generate_data
from .report import DiagnosticReport
from .solver import (
    SolverConfig,
    State,
    initial_size,
    march,
    measured_contraction,
    picard_slab,
    solve_decomposed,
    solve_global,
)
from .transport import SourceTrace, bilinear_bound_check

__all__ = ["SUITE_NAMES", "run_suite"]

P_CYCLE = (1.0, 1.5, 2.0, 4.0, np.inf)
COUPLINGS = (CouplingKind.NULL_GAMMA0, CouplingKind.NULL_GAMMA1, CouplingKind.IDENTITY)


def _report_row(report: DiagnosticReport, seed: int) -> dict:
    return {
        "name": report.name,
        "seed": seed,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "margin": float(report.margin),
        "pass": bool(report.pass_),
    }


def _bound_row(name: str, seed: int, lhs: float, rhs: float) -> dict:
    """Row of lhs <= rhs with no slack.  A detector-sensitivity control
    passes its detection threshold as lhs and the leak as rhs, so that
    it passes only when the detector fires."""
    return _report_row(DiagnosticReport(name, lhs, rhs, 0.0), seed)


def _random_state(grid, params, rng, amplitude=0.5, spread=3.0) -> State:
    def bumps(seed):
        return generate_data(
            DataSpec(kind="random_bumps", width=0.8, amplitude=amplitude,
                     seed=seed, n_bumps=3, spread=spread),
            grid,
        )

    seeds = rng.integers(0, 2**31, size=4)
    return State.from_arrays(
        grid,
        bumps(int(seeds[0])).values,
        bumps(int(seeds[1])).values,
        bumps(int(seeds[2])).values.real,
        bumps(int(seeds[3])).values.real,
        params,
    )


def _scaled_to_size(state: State, target_M: float) -> State:
    cur = initial_size(state)
    if cur == 0.0:
        raise ValueError("cannot rescale zero data")
    c = target_M / cur
    return State.from_arrays(
        state.grid,
        c * state.psi_plus.values,
        c * state.psi_minus.values,
        c * state.a_plus.values,
        c * state.a_minus.values,
        state.params,
    )


# ---------------------------------------------------------------------------
# suites


def _bilinear_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial))
    grid = make_grid(-8.0, 8.0, 512)
    p = P_CYCLE[trial % len(P_CYCLE)]
    u_p = generate_data(
        DataSpec(kind="random_bumps", width=0.7, amplitude=1.0,
                 seed=int(rng.integers(2**31)), spread=3.0), grid)
    u_m = generate_data(
        DataSpec(kind="random_bumps", width=0.7, amplitude=1.0,
                 seed=int(rng.integers(2**31)), spread=3.0), grid)
    steps = int(round(0.5 / grid.dt))
    t = np.arange(steps + 1) * grid.dt

    def source():
        g = generate_data(
            DataSpec(kind="random_bumps", width=0.6, amplitude=0.8,
                     seed=int(rng.integers(2**31)), spread=3.0), grid)
        h = np.cos(rng.uniform(0, 6) * t + rng.uniform(0, 2 * np.pi))
        return SourceTrace(grid, h[:, None] * g.values[None, :])

    rep = bilinear_bound_check(u_p, u_m, source(), source(), p, steps * grid.dt)
    return [_report_row(rep, trial)]


def _intrinsic_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 1))
    grid = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=COUPLINGS[trial % 3], m=1.0, p=1.0)
    state = _random_state(grid, params, rng, amplitude=0.4)
    dtraj = solve_decomposed(state, 0.5, SolverConfig())
    p = (1.0, 2.0, np.inf)[trial % 3]
    return [_report_row(intrinsic_bound_report(dtraj, p), trial)]


def _punctured_state(grid, params, rng, x0: float, R: float) -> State:
    state = _random_state(grid, params, rng, amplitude=0.4, spread=3.0)
    outside = (np.abs(grid.centers - x0) >= R).astype(float)
    return State.from_arrays(
        grid,
        state.psi_plus.values * outside,
        state.psi_minus.values * outside,
        state.a_plus.values * outside,
        state.a_minus.values * outside,
        params,
    )


def _finite_speed_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 2))
    grid = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=COUPLINGS[trial % 3], m=float(trial % 2), p=1.0)
    cfg = SolverConfig(backend="march" if trial % 2 else "picard", slab_T=0.25)
    state = _punctured_state(grid, params, rng, x0=0.0, R=1.0)
    rows = [_report_row(finite_speed_check(state, 0.0, 1.0, cfg), trial)]
    widened = finite_speed_check(state, 0.0, 1.0, cfg, widen_cells=2)
    rows.append(_bound_row("finite_speed_widened_control", trial, EXACT_TOL, widened.lhs))
    return rows


def _localization_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 3))
    grid = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=COUPLINGS[trial % 3], m=float(trial % 2), p=1.0)
    cfg = SolverConfig(backend="march" if trial % 2 else "picard", slab_T=0.25)
    state = _random_state(grid, params, rng, amplitude=0.4)
    rows = [_report_row(localization_check(state, 0.0, 1.5, cfg), trial)]
    moved = localization_check(state, 0.0, 1.5, cfg, misalign_cells=40)
    rows.append(_bound_row("localization_misaligned_control", trial, 1e-10, moved.lhs))
    return rows


def _contraction_trial(trial: int, seed: int, large_m: bool = False) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 4))
    grid = make_grid(-8.0, 8.0, 256)
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    state = _scaled_to_size(
        _random_state(grid, params, rng, amplitude=0.5), 300.0 if large_m else 0.05
    )
    cfg = SolverConfig(slab_T=0.25, auto_slab=False)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _, history = picard_slab(state, cfg)
        ratio = measured_contraction(history)
        iters = len(history)
    except ConvergenceFailureError as exc:
        ratio = max(measured_contraction(exc.history), 1.0)
        if not np.isfinite(ratio):
            ratio = 1e300
        iters = len(exc.history)
    rows = [_bound_row("contraction_ratio", trial, ratio, 0.5)]
    rows.append(_bound_row("contraction_iters", trial, float(iters), 45.0))
    return rows


def _scaling_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 5))
    grid = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=0.0, p=1.0)
    state = _random_state(grid, params, rng, amplitude=0.25, spread=2.0)
    cfg = SolverConfig(slab_T=0.25)
    rows = []
    for lam in (1, 2):
        rep = scaling_check(state, lam, 0.5, cfg)
        rows.append(_report_row(rep, trial))
    return rows


def _charge_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 6))
    grid = make_grid(-8.0, 8.0, 512)
    rows = []
    for backend in ("march", "picard"):
        for m in (0.0, 1.0):
            params = ModelParams(alpha=COUPLINGS[trial % 3], m=m, p=1.0)
            state = _random_state(grid, params, rng, amplitude=0.4)
            traj = solve_global(state, 0.5, SolverConfig(backend=backend, slab_T=0.25))
            _, rep = charge_series(traj)
            rows.append(_report_row(replace(rep, name=f"charge_{backend}_m{int(m)}"), trial))
    return rows


def _concentration_trial(trial: int, seed: int) -> list[dict]:
    rng = np.random.default_rng((seed, trial, 7))
    grid = make_grid(-8.0, 8.0, 512)
    params = ModelParams(alpha=CouplingKind.NULL_GAMMA0, m=1.0, p=1.0)
    state = _random_state(grid, params, rng, amplitude=0.4)
    traj = march(state, int(round(0.5 / grid.dt)))
    rows = []
    prev = None
    for r in (1.0, 0.5, 0.25):
        _, rep = concentration_monitor(traj, r, initial=state)
        rows.append(_report_row(replace(rep, name=f"concentration_r{r}"), trial))
        if prev is not None:
            rows.append(_bound_row(f"concentration_monotone_r{r}", trial, rep.lhs, prev))
        prev = rep.lhs
    return rows


_SUITES = {
    "bilinear": (_bilinear_trial, 100),
    "intrinsic": (_intrinsic_trial, 20),
    "finite_speed": (_finite_speed_trial, 20),
    "localization": (_localization_trial, 20),
    "contraction": (_contraction_trial, 10),
    "scaling": (_scaling_trial, 5),
    "charge": (_charge_trial, 5),
    "concentration": (_concentration_trial, 5),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, seed: int, large_m: bool = False) -> list[dict]:
    """All rows of one suite (or of every suite for "all"), trial by
    trial in trial order.  ``large_m`` switches the contraction suite to
    oversized data, also inside "all"."""
    if name == "all":
        return [row for sub in _SUITES for row in run_suite(sub, seed, large_m)]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn, n_trials = _SUITES[name]
    extra = (large_m,) if name == "contraction" else ()
    return [row for t in range(n_trials) for row in fn(t, seed, *extra)]
