"""Numerical certification of the structural properties the solver is
expected to satisfy: charge conservation, the intrinsic bound on the
nonlinear spinor part, finite speed of propagation, localization,
non-concentration, scale invariance and the exponential envelope.

Identities that the discretization makes exact (shift transport, the
unimodular phase factor) are checked at 1e-12; genuine continuum
inequalities get a relative slack of 1e-3, the quadrature-error scale
at the working resolutions.
"""

from __future__ import annotations

import numpy as np

from .lattice import Grid, TriangleMask, lp_norm, row_lp, step_count, window_kernel, windowed_mass
from .report import EXACT_TOL, RELATIVE_SLACK, DiagnosticReport
from .solver import (
    DecomposedTrajectory,
    SolverConfig,
    State,
    Trajectory,
    solve_global,
)

__all__ = [
    "EXACT_TOL",
    "RELATIVE_SLACK",
    "charge_series",
    "intrinsic_bound_report",
    "finite_speed_check",
    "localization_check",
    "concentration_monitor",
    "scaling_check",
    "corollary_envelope_report",
]


def charge_series(traj: Trajectory) -> tuple[np.ndarray, DiagnosticReport]:
    """Charge per step and the maximum relative drift from its initial
    value.

    The tolerance is 1e-12 only for massless marching runs, where the
    phase-factor scheme conserves charge to roundoff; the Picard
    quadrature conserves it at second order.
    """
    series = traj.charge()
    c0 = series[0]
    if c0 == 0.0:
        drift = float(np.abs(series).max(initial=0.0))
        scale = 1.0
    else:
        drift = float(np.abs(series - c0).max()) / c0
        scale = c0
    is_march = not traj.slab_histories
    tol = EXACT_TOL if (traj.params.m == 0.0 and is_march) else RELATIVE_SLACK
    return series, DiagnosticReport(
        name="charge_conservation",
        lhs=drift,
        rhs=0.0,
        tolerance=tol,
        metadata={"m": traj.params.m, "n_cells": traj.grid.n_cells, "charge0": scale},
    )


def intrinsic_bound_report(dtraj: DecomposedTrajectory, p: float) -> DiagnosticReport:
    """Nonlinear-part bound m(||psi_+0||_p + ||psi_-0||_p)(e^{mt}+t-1),
    with the left side measured in both L^p and L^inf."""
    m = dtraj.params.m
    dx = dtraj.grid.dx
    t = dtraj.times - dtraj.times[0]
    lhs_t = np.zeros(len(t))
    for trace in (dtraj.psi_n_plus, dtraj.psi_n_minus):
        mag = np.abs(trace)
        lhs_t += np.maximum(row_lp(mag, dx, p), row_lp(mag, dx, np.inf))
    data_norm = row_lp(np.abs(dtraj.psi_l_plus[0]), dx, p) + row_lp(
        np.abs(dtraj.psi_l_minus[0]), dx, p
    )
    rhs_t = m * data_norm * (np.exp(m * t) + t - 1.0)
    worst = int(np.argmax(lhs_t - rhs_t))
    rhs_max = float(rhs_t.max(initial=0.0))
    return DiagnosticReport(
        name="intrinsic_bound",
        lhs=float(lhs_t[worst]),
        rhs=float(rhs_t[worst]),
        tolerance=RELATIVE_SLACK * max(rhs_max, EXACT_TOL),
        metadata={"p": p, "m": m, "T": float(t[-1]), "worst_step": worst},
    )


def _cone_max(mask: TriangleMask, traj: Trajectory, other: Trajectory | None = None) -> float:
    """Largest modulus of any field of traj, or of its difference from
    the same field of other, over the cone of mask at each stored step."""
    t = traj.times - traj.times[0]
    inside = mask.indicator(traj.grid, t[:, None]).astype(bool)
    traces = traj.field_traces()
    if other is not None:
        traces = {name: v - other.field_traces()[name] for name, v in traces.items()}
    return float(np.max([np.abs(v[inside]).max(initial=0.0) for v in traces.values()]))


def finite_speed_check(
    data: State, x0: float, R: float, cfg: SolverConfig, widen_cells: int = 0
) -> DiagnosticReport:
    """Solve and measure field leakage into the shrinking cone over
    {|x - x0| <= R - t}.  widen_cells > 0 enlarges the detection window
    (a deliberate counter-test: the detector must then fire for data
    that merely vanishes on |x - x0| < R)."""
    grid = data.grid
    if R <= 2 * grid.dx:
        raise ValueError(f"R={R} must exceed a few cells (dx={grid.dx})")
    steps = step_count("R", R, grid.dt)
    traj = solve_global(data, steps * grid.dt, cfg)
    leak = _cone_max(TriangleMask(x0=x0, R=R + widen_cells * grid.dx), traj)
    return DiagnosticReport(
        name="finite_speed",
        lhs=leak,
        rhs=0.0,
        tolerance=EXACT_TOL,
        metadata={"x0": x0, "R": R, "widen_cells": widen_cells, "steps": steps},
    )


def localization_check(
    data: State, x0: float, R: float, cfg: SolverConfig, misalign_cells: int = 0
) -> DiagnosticReport:
    """Solve with full data and with data cut to the base interval
    |x - x0| <= R, then compare all fields over the triangle.

    misalign_cells shifts the cut interval without moving the comparison
    cone (a counter-test: the cone then ingests altered data)."""
    grid = data.grid
    cut = data.weighted(TriangleMask(x0=x0 + misalign_cells * grid.dx, R=R).indicator(grid, 0.0))
    T = step_count("R", R, grid.dt) * grid.dt
    traj_full = solve_global(data, T, cfg)
    traj_cut = solve_global(cut, T, cfg)
    diff = _cone_max(TriangleMask(x0=x0, R=R), traj_full, traj_cut)
    return DiagnosticReport(
        name="localization",
        lhs=diff,
        rhs=0.0,
        tolerance=max(1e-10, 10 * cfg.picard_tol),
        metadata={"x0": x0, "R": R, "misalign_cells": misalign_cells},
    )


def concentration_monitor(
    traj: Trajectory, r: float, initial: State
) -> tuple[np.ndarray, DiagnosticReport]:
    """Largest window mass sup_x int_{|x-y|<r} (|psi_+|+|psi_-|+|A_+|+|A_-|)
    per step, against the envelope assembled from the window mass of the
    data initial, the nonlinear-part sup bound and the four-product
    source bound."""
    grid = traj.grid
    if r < grid.dx:
        raise ValueError(f"window radius {r} below dx={grid.dx}")
    kernel = window_kernel(r, grid.dx)
    total = (
        np.abs(traj.psi_plus)
        + np.abs(traj.psi_minus)
        + np.abs(traj.a_plus)
        + np.abs(traj.a_minus)
    )
    series = np.array(
        [np.convolve(row, kernel, mode="same").max(initial=0.0) for row in total]
    )

    m = traj.params.m
    T = float(traj.times[-1] - traj.times[0])

    psi_l1 = lp_norm(initial.psi_plus, 1.0) + lp_norm(initial.psi_minus, 1.0)
    k_n = m * psi_l1 * (np.exp(m * T) + T - 1.0)  # sup bound on the nonlinear part
    env = 0.0
    for f in (initial.psi_plus, initial.psi_minus):
        env += windowed_mass(f, r) + 2 * r * k_n
    for f, g in ((initial.a_plus, initial.psi_plus), (initial.a_minus, initial.psi_minus)):
        other_l1 = psi_l1 - lp_norm(g, 1.0)
        env += (
            windowed_mass(f, r)
            + (other_l1 + k_n * T) * windowed_mass(g, r)
            + 2 * r * (k_n * other_l1 + k_n**2 * T)
        )
    measured = float(series.max(initial=0.0))
    return series, DiagnosticReport(
        name="concentration",
        lhs=measured,
        rhs=env,
        tolerance=RELATIVE_SLACK * max(env, EXACT_TOL),
        metadata={"r": r, "T": T, "m": m, "nonlinear_sup_bound": k_n},
    )


def scaling_check(
    data: State, lam: int, T: float, cfg: SolverConfig
) -> DiagnosticReport:
    """Compare lambda * psi(lambda t, lambda x) of a base solve against
    a solve of the scaled data on the lambda-refined grid (m = 0 only)."""
    if data.params.m != 0.0:
        raise ValueError("scaling invariance requires m = 0")
    if lam < 1:
        raise ValueError(f"lambda must be a positive integer, got {lam}")
    grid = data.grid
    steps = step_count("T", T, grid.dt)
    traj = solve_global(data, steps * grid.dt, cfg)

    fine = Grid(x_min=grid.x_min, n_cells=lam * grid.n_cells, dx=grid.dx / lam)
    # fine center k0 + i sits exactly at (base center i) / lam
    offset = grid.x_min * (1 - lam) / grid.dx
    k0 = int(round(offset))
    if abs(offset - k0) > 1e-9:
        raise ValueError("grid does not admit an exact lambda-rescaling alignment")
    idx = np.arange(grid.n_cells)
    fine_x = fine.centers

    # sample lam*f(lam y) everywhere it is defined (off-lattice points of
    # the base grid get piecewise-constant values of the base cells)
    def resample(values):
        y = lam * fine_x
        cells = np.floor((y - grid.x_min) / grid.dx).astype(int)
        inside = (cells >= 0) & (cells < grid.n_cells)
        out = np.zeros(fine.n_cells, dtype=values.dtype)
        out[inside] = lam * values[cells[inside]]
        return out

    scaled = State.from_arrays(
        fine,
        resample(data.psi_plus.values),
        resample(data.psi_minus.values),
        resample(data.a_plus.values),
        resample(data.a_minus.values),
        data.params,
    )
    traj_s = solve_global(scaled, steps * fine.dt, cfg)

    j = k0 + idx
    diff = 0.0
    for name in traj.field_traces():
        base = traj.field_traces()[name]
        fine_tr = traj_s.field_traces()[name]
        # fine step k corresponds to base step k: lam * t_fine = t_base
        d = lam * base[:, idx] - fine_tr[:, j]
        diff = max(diff, float(np.abs(d).max(initial=0.0)))
    return DiagnosticReport(
        name="scaling",
        lhs=diff,
        rhs=0.0,
        tolerance=10 * cfg.picard_tol if lam == 1 else RELATIVE_SLACK,
        metadata={"lambda": lam, "T": T, "n_cells": grid.n_cells},
    )


def corollary_envelope_report(traj: Trajectory, p: float) -> DiagnosticReport:
    """Smallest constant C with ||psi_pm(t)||_p <= C * (sum of data
    norms) * (e^{mt} + t) over the run."""
    dx = traj.grid.dx
    m = traj.params.m
    t = traj.times - traj.times[0]
    lp_plus, lp_minus = (row_lp(np.abs(v), dx, p) for v in (traj.psi_plus, traj.psi_minus))
    data_norm = lp_plus[0] + lp_minus[0]
    envelope = (np.exp(m * t) + t) * data_norm
    lhs_t = np.maximum(lp_plus, lp_minus)
    if data_norm == 0.0:
        c_fit = 0.0
    else:
        c_fit = float((lhs_t / envelope).max())
    return DiagnosticReport(
        name="corollary_envelope",
        lhs=c_fit,
        rhs=c_fit,  # the fitted constant is the result, not a bound
        tolerance=1.0,
        metadata={"p": p, "m": m, "C": c_fit, "T": float(t[-1])},
    )
