"""Coupled solver for the diagonalized Chern-Simons-Dirac system.

Two backends produce the same trajectories up to second order:

* ``picard_slab`` iterates the integral equations of the successive
  approximation scheme on a time slab with trapezoidal characteristic
  quadrature.  One loop serves every coupling: the gauge update is the
  characteristic integral of the coupling source, and only the spinor
  update differs.  Null couplings integrate the spinor sources and start
  from zero; the identity coupling marches the spinor equation, linear
  in the new iterate, against the frozen gauge trace and starts from
  the initial data held constant in time.  Each iteration appends one
  history entry: ``sup``, the largest change of any field at any grid
  point and time (NaN once any change is), which decides convergence,
  and ``weighted``, the proof's bookkeeping metric between the two
  iterates, reported but not used to decide.
* ``march`` advances step by step along characteristics.  The gauge
  term is applied as an exact unimodular phase factor, so the modulus
  of a free spinor and the m = 0 charge are preserved to roundoff.

``solve_global`` chains converged slabs, shrinking the slab length
until the measured contraction factor drops below 1/2 when requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailureError, SlabUnderflowError
from .lattice import ComplexField, Grid, RealField, lp_norm, row_lp, shift_values, step_count
from .physics import ModelParams, coupling_values
from .transport import (
    SourceTrace,
    characteristic_integral_rows,
    check_containment,
    data_shift_rows,
    spacetime_lp_norm,
)

__all__ = [
    "State",
    "SolverConfig",
    "Trajectory",
    "DecomposedTrajectory",
    "picard_slab",
    "march",
    "solve_global",
    "solve_decomposed",
    "lipschitz_probe",
    "initial_size",
]


@dataclass(frozen=True)
class State:
    grid: Grid
    t: float
    psi_plus: ComplexField
    psi_minus: ComplexField
    a_plus: RealField
    a_minus: RealField
    params: ModelParams

    def __post_init__(self):
        for f in (self.psi_plus, self.psi_minus, self.a_plus, self.a_minus):
            if f.grid != self.grid:
                raise ValueError("state fields must share the state grid")
        if self.t < 0:
            raise ValueError(f"state time must be >= 0, got {self.t}")

    @classmethod
    def from_arrays(cls, grid, psi_plus, psi_minus, a_plus, a_minus, params, t=0.0):
        return cls(
            grid=grid,
            t=t,
            psi_plus=ComplexField(grid, psi_plus),
            psi_minus=ComplexField(grid, psi_minus),
            a_plus=RealField(grid, a_plus),
            a_minus=RealField(grid, a_minus),
            params=params,
        )

    @classmethod
    def zero(cls, grid: Grid, params: ModelParams):
        n = grid.n_cells
        return cls.from_arrays(
            grid, np.zeros(n, complex), np.zeros(n, complex), np.zeros(n), np.zeros(n), params
        )

    def arrays(self):
        return (
            self.psi_plus.values,
            self.psi_minus.values,
            self.a_plus.values,
            self.a_minus.values,
        )


def initial_size(state: State, p: float | None = None) -> float:
    """Smallness bookkeeping: twice the summed L^p norms of the data."""
    p = state.params.p if p is None else p
    return 2.0 * sum(float(row_lp(np.abs(v), state.grid.dx, p)) for v in state.arrays())


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "picard"  # "picard" | "march"
    slab_T: float = 0.25
    picard_tol: float = 1e-12
    max_picard_iters: int = 50
    auto_slab: bool = True

    def __post_init__(self):
        if self.backend not in ("picard", "march"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.slab_T <= 0 or self.picard_tol <= 0 or self.max_picard_iters < 1:
            raise ValueError("slab_T, picard_tol and max_picard_iters must be positive")

    def slab_steps(self, grid: Grid) -> int:
        return step_count("slab_T", self.slab_T, grid.dt, positive=True)


@dataclass(frozen=True)
class Trajectory:
    """Solution samples at t = t0, t0+dt, ... plus per-slab iterate
    difference histories (empty for the marching backend)."""

    grid: Grid
    params: ModelParams
    t0: float
    psi_plus: np.ndarray  # (n_steps+1, n_cells) complex
    psi_minus: np.ndarray
    a_plus: np.ndarray  # (n_steps+1, n_cells) real
    a_minus: np.ndarray
    slab_histories: list = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return self.psi_plus.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.grid.dt

    def state_at(self, i: int) -> State:
        return State.from_arrays(
            self.grid,
            self.psi_plus[i],
            self.psi_minus[i],
            self.a_plus[i],
            self.a_minus[i],
            self.params,
            t=float(self.times[i]),
        )

    @property
    def final_state(self) -> State:
        return self.state_at(self.n_steps)

    def charge(self) -> np.ndarray:
        """||psi_+(t)||_2^2 + ||psi_-(t)||_2^2 per stored time."""
        dx = self.grid.dx
        return (
            (np.abs(self.psi_plus) ** 2).sum(axis=1) + (np.abs(self.psi_minus) ** 2).sum(axis=1)
        ) * dx

    def lp_series(self, p: float) -> dict:
        return {
            name: row_lp(np.abs(trace), self.grid.dx, p)
            for name, trace in self.field_traces().items()
        }

    def field_traces(self) -> dict:
        return {
            "psi_plus": self.psi_plus,
            "psi_minus": self.psi_minus,
            "a_plus": self.a_plus,
            "a_minus": self.a_minus,
        }

    def psi_source_traces(self) -> tuple[SourceTrace, SourceTrace]:
        """The nonlinear spinor sources i A_-+ psi_pm - i m psi_-+
        evaluated on the stored solution."""
        m = self.params.m
        f_p = 1j * self.a_minus * self.psi_plus - 1j * m * self.psi_minus
        f_m = 1j * self.a_plus * self.psi_minus - 1j * m * self.psi_plus
        return SourceTrace(self.grid, f_p), SourceTrace(self.grid, f_m)

    def extended_with(self, other: "Trajectory") -> "Trajectory":
        if not np.isclose(other.t0, float(self.times[-1]), atol=1e-9 * self.grid.dt):
            raise ValueError("trajectories are not contiguous in time")
        cat = lambda a, b: np.concatenate([a, b[1:]], axis=0)
        return Trajectory(
            grid=self.grid,
            params=self.params,
            t0=self.t0,
            psi_plus=cat(self.psi_plus, other.psi_plus),
            psi_minus=cat(self.psi_minus, other.psi_minus),
            a_plus=cat(self.a_plus, other.a_plus),
            a_minus=cat(self.a_minus, other.a_minus),
            slab_histories=self.slab_histories + other.slab_histories,
        )


@dataclass(frozen=True)
class DecomposedTrajectory:
    """Trajectory of the linear/nonlinear spinor split: the linear part
    carries the data with exactly transported modulus, the nonlinear
    part starts from zero and is driven by the mass coupling."""

    grid: Grid
    params: ModelParams
    t0: float
    psi_l_plus: np.ndarray
    psi_l_minus: np.ndarray
    psi_n_plus: np.ndarray
    psi_n_minus: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.psi_l_plus.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.grid.dt

    def total(self) -> Trajectory:
        return Trajectory(
            grid=self.grid,
            params=self.params,
            t0=self.t0,
            psi_plus=self.psi_l_plus + self.psi_n_plus,
            psi_minus=self.psi_l_minus + self.psi_n_minus,
            a_plus=self.a_plus,
            a_minus=self.a_minus,
        )


# ---------------------------------------------------------------------------
# marching backend


def _march_phases(ap, am, P, dt):
    """Trapezoidal averages of the gauge fields along the incoming
    characteristics, as unimodular factors, and the gauge update that
    completes the step from the new coupling source.  Each shifted array
    is formed once and serves both."""
    sap, sam = shift_values(ap, +1), shift_values(am, -1)
    sPp, sPm = shift_values(P, +1), shift_values(P, -1)
    # A_-+ at the foot of the +- characteristic, one cell to the left/right
    phase_p = np.exp(1j * dt * 0.5 * (shift_values(am, +1) + (sam + dt * sPm)))
    phase_m = np.exp(1j * dt * 0.5 * (shift_values(ap, -1) + (sap - dt * sPp)))

    def gauge_update(P_new):
        return sap - 0.5 * dt * (sPp + P_new), sam + 0.5 * dt * (sPm + P_new)

    return phase_p, phase_m, gauge_update


def _march_spinor(phase_p, phase_m, own_p, own_m, pp, pm, m, dt):
    """Phase factor times the shifted own part (own_p, own_m) and, for
    m > 0, the trapezoidal mass coupling of the full spinor (pp, pm),
    predicted by an explicit Euler step."""
    # operand orders are part of the output: complex products are not
    # bitwise commutative
    if m == 0.0:
        return shift_values(own_p, +1) * phase_p, shift_values(own_m, -1) * phase_m
    foot_m = shift_values(pm, +1)
    foot_p = shift_values(pp, -1)
    pp_pred = phase_p * shift_values(pp, +1) - 1j * m * dt * foot_m
    pm_pred = phase_m * shift_values(pm, -1) - 1j * m * dt * foot_p
    return (
        phase_p * (shift_values(own_p, +1) - 1j * m * 0.5 * dt * foot_m)
        - 1j * m * 0.5 * dt * pm_pred,
        phase_m * (shift_values(own_m, -1) - 1j * m * 0.5 * dt * foot_p)
        - 1j * m * 0.5 * dt * pp_pred,
    )


def march(initial: State, steps: int) -> Trajectory:
    """Stepwise characteristic advance; independent cross-check of the
    Picard backend."""
    grid = initial.grid
    check_containment(grid, steps, *initial.arrays())
    dt = grid.dt
    m, alpha = initial.params.m, initial.params.alpha
    n = grid.n_cells
    pp = np.empty((steps + 1, n), complex)
    pm = np.empty((steps + 1, n), complex)
    ap = np.empty((steps + 1, n), float)
    am = np.empty((steps + 1, n), float)
    pp[0], pm[0], ap[0], am[0] = initial.arrays()
    for i in range(steps):
        phase_p, phase_m, gauge_update = _march_phases(
            ap[i], am[i], coupling_values(pp[i], pm[i], alpha), dt
        )
        pp[i + 1], pm[i + 1] = _march_spinor(phase_p, phase_m, pp[i], pm[i], pp[i], pm[i], m, dt)
        ap[i + 1], am[i + 1] = gauge_update(coupling_values(pp[i + 1], pm[i + 1], alpha))
    return Trajectory(grid, initial.params, initial.t, pp, pm, ap, am)


def solve_decomposed(initial: State, T_final: float, cfg: SolverConfig) -> DecomposedTrajectory:
    """Evolve the (psi_L, psi_N, A) triple with the marching scheme.

    The linear part receives only the phase factor, so its modulus is
    the exactly transported data modulus; the nonlinear part starts at
    zero and receives the mass coupling of the full spinor.
    """
    grid = initial.grid
    steps = step_count("T_final", T_final, grid.dt)
    check_containment(grid, steps, *initial.arrays())
    dt = grid.dt
    m, alpha = initial.params.m, initial.params.alpha
    n = grid.n_cells
    lp = np.empty((steps + 1, n), complex)
    lm = np.empty((steps + 1, n), complex)
    np_ = np.empty((steps + 1, n), complex)
    nm = np.empty((steps + 1, n), complex)
    ap = np.empty((steps + 1, n), float)
    am = np.empty((steps + 1, n), float)
    lp[0], lm[0] = initial.psi_plus.values, initial.psi_minus.values
    np_[0] = np.zeros(n, complex)
    nm[0] = np.zeros(n, complex)
    ap[0], am[0] = initial.a_plus.values, initial.a_minus.values
    for i in range(steps):
        pp_tot = lp[i] + np_[i]
        pm_tot = lm[i] + nm[i]
        P = coupling_values(pp_tot, pm_tot, alpha)
        phase_p, phase_m, gauge_update = _march_phases(ap[i], am[i], P, dt)
        lp[i + 1] = phase_p * shift_values(lp[i], +1)
        lm[i + 1] = phase_m * shift_values(lm[i], -1)
        np_[i + 1], nm[i + 1] = _march_spinor(
            phase_p, phase_m, np_[i], nm[i], pp_tot, pm_tot, m, dt
        )
        ap[i + 1], am[i + 1] = gauge_update(
            coupling_values(lp[i + 1] + np_[i + 1], lm[i + 1] + nm[i + 1], alpha)
        )
    return DecomposedTrajectory(grid, initial.params, initial.t, lp, lm, np_, nm, ap, am)


# ---------------------------------------------------------------------------
# Picard backend


def _iterate_distance(new, old, grid: Grid, p: float) -> tuple[float, float]:
    """(sup difference, weighted metric) between two Picard iterates.

    The weighted metric is the proof's bookkeeping metric: sup-in-time
    L^p distances of the fields plus weight-3 space-time L^p distances
    of the quadratic products, summed over both sign choices.  Each
    field difference is formed once; each product difference is formed
    and dropped before the next.  The sup is NaN when any field
    difference is, so a diverged iterate never reads as converged.
    """
    sups = []
    weighted = 0.0
    for a, b in zip(new, old):
        mag = np.abs(a - b)
        sups.append(mag.max(initial=0.0))
        weighted += float(row_lp(mag, grid.dx, p).max(initial=0.0))
    del mag
    np_p, np_m, na_p, na_m = new
    op_p, op_m, oa_p, oa_m = old
    # both orders of the psi product are kept: complex multiplication is
    # not bitwise commutative
    for a, b, c, d in (
        (np_p, na_m, op_p, oa_m),
        (np_m, na_p, op_m, oa_p),
        (np_p, np_m, op_p, op_m),
        (np_m, np_p, op_m, op_p),
    ):
        diff = a * b
        diff -= c * d
        weighted += 3.0 * spacetime_lp_norm(diff, grid, p)
    return float(np.max(sups)), weighted


def _inner_linear_march(data_p, data_m, ap_trace, am_trace, m, dt, K):
    """Implicit trapezoidal characteristic march of the spinor pair with
    a frozen gauge trace; the update is linear in the new iterate."""
    n = data_p.shape[0]
    pp = np.empty((K + 1, n), complex)
    pm = np.empty((K + 1, n), complex)
    pp[0], pm[0] = data_p, data_m
    c = 1j * m * 0.5 * dt
    for i in range(K):
        f_p = 1j * am_trace[i] * pp[i] - 1j * m * pm[i]
        f_m = 1j * ap_trace[i] * pm[i] - 1j * m * pp[i]
        b_p = shift_values(pp[i] + 0.5 * dt * f_p, +1)
        b_m = shift_values(pm[i] + 0.5 * dt * f_m, -1)
        a11 = 1.0 - 0.5j * dt * am_trace[i + 1]
        a22 = 1.0 - 0.5j * dt * ap_trace[i + 1]
        det = a11 * a22 - c * c
        pp[i + 1] = (a22 * b_p - c * b_m) / det
        pm[i + 1] = (a11 * b_m - c * b_p) / det
    return pp, pm


def _picard(initial: State, K: int, cfg: SolverConfig):
    """Successive approximation on a K-step slab.  Both schemes share
    the gauge update; the spinor update is the integral map for null
    couplings and the frozen-gauge linear march for the identity."""
    dt = initial.grid.dt
    m, alpha, p = initial.params.m, initial.params.alpha, initial.params.p
    data_p, data_m, data_ap, data_am = initial.arrays()
    base_ap = data_shift_rows(data_ap, +1, K)
    base_am = data_shift_rows(data_am, -1, K)
    if alpha.is_null:
        base_pp = data_shift_rows(data_p, +1, K)
        base_pm = data_shift_rows(data_m, -1, K)
        it = tuple(np.zeros((K + 1,) + v.shape, v.dtype) for v in initial.arrays())
    else:
        # first iterate: data held constant in time
        it = tuple(np.tile(v, (K + 1, 1)) for v in initial.arrays())

    def spinor_update(pp, pm, ap, am):
        if not alpha.is_null:
            return _inner_linear_march(data_p, data_m, ap, am, m, dt, K)
        f_pp = 1j * (am * pp) - 1j * m * pm
        f_pm = 1j * (ap * pm) - 1j * m * pp
        return (
            characteristic_integral_rows(f_pp, +1, dt, base_pp),
            characteristic_integral_rows(f_pm, -1, dt, base_pm),
        )

    history = []
    # divergence of the fixed-point map is detected, not a numerical bug;
    # let the iterates overflow quietly and report the history instead
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_picard_iters):
            P = coupling_values(it[0], it[1], alpha)
            new = (
                *spinor_update(*it),
                characteristic_integral_rows(-P, +1, dt, base_ap),
                characteristic_integral_rows(P, -1, dt, base_am),
            )
            del P
            d_sup, d_w = _iterate_distance(new, it, initial.grid, p)
            history.append({"sup": d_sup, "weighted": d_w})
            it = new
            if d_sup < cfg.picard_tol:
                return it, history
    raise ConvergenceFailureError(
        f"Picard iteration did not reach {cfg.picard_tol} in "
        f"{cfg.max_picard_iters} iterations (last diff {history[-1]['sup']:.3e})",
        history=history,
    )


def picard_slab(initial: State, cfg: SolverConfig, steps: int | None = None):
    """One converged slab of the successive-approximation scheme.

    Returns (Trajectory over [t, t + steps*dt], iterate history), where
    the history holds per-iteration sup and weighted-metric differences.
    """
    grid = initial.grid
    if steps is None:
        steps = cfg.slab_steps(grid)
    check_containment(grid, steps, *initial.arrays())
    (pp, pm, ap, am), history = _picard(initial, steps, cfg)
    traj = Trajectory(grid, initial.params, initial.t, pp, pm, ap, am, slab_histories=[history])
    return traj, history


def contraction_ratios(history, floor: float = 1e-12) -> list[float]:
    """d_{n+1}/d_n for successive sup differences above the floor,
    starting from the first pair."""
    d = [h["sup"] for h in history]
    return [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > floor and d[i + 1] > floor]


def measured_contraction(history, floor: float = 1e-12) -> float:
    ratios = contraction_ratios(history, floor)
    return max(ratios) if ratios else 0.0


def solve_global(initial: State, T_final: float, cfg: SolverConfig) -> Trajectory:
    """Continue slab solves up to T_final.

    With auto_slab the slab length is halved whenever an iteration fails
    to converge or its measured contraction factor is >= 1/2, mirroring
    the role of the implicit smallness-of-T condition.
    """
    grid = initial.grid
    total_steps = step_count("T_final", T_final, grid.dt)
    if cfg.backend == "march":
        return march(initial, total_steps)

    slab_steps = min(cfg.slab_steps(grid), max(total_steps, 1))
    done = 0
    cur = initial
    traj: Trajectory | None = None
    while done < total_steps:
        k = min(slab_steps, total_steps - done)
        try:
            piece, history = picard_slab(cur, cfg, steps=k)
            if cfg.auto_slab and k > 1 and measured_contraction(history) >= 0.5:
                raise ConvergenceFailureError("contraction factor >= 1/2", history=history)
        except ConvergenceFailureError as exc:
            if not cfg.auto_slab or k <= 1:
                norms = {
                    name: lp_norm(getattr(cur, name), cur.params.p)
                    for name in ("psi_plus", "psi_minus", "a_plus", "a_minus")
                }
                where = (
                    "at the single-step floor"
                    if k <= 1
                    else f"with a {k}-step slab and auto_slab off"
                )
                raise SlabUnderflowError(
                    f"slab starting at t={cur.t:.6g} failed {where}: {exc}",
                    slab_start=cur.t,
                    norms=norms,
                ) from exc
            slab_steps = max(1, slab_steps // 2)
            continue
        traj = piece if traj is None else traj.extended_with(piece)
        cur = piece.final_state
        done += k
    if traj is None:  # zero-length run
        traj, _ = picard_slab(cur, cfg, steps=0)
    return traj


def lipschitz_probe(data_a: State, data_b: State, T: float, cfg: SolverConfig) -> float:
    """Ratio of solution L^p distance (sup over time, summed over the
    four fields) to data L^p distance."""
    if data_a.grid != data_b.grid:
        raise ValueError("both datasets must live on one grid")
    p = data_a.params.p
    dx = data_a.grid.dx
    denom = sum(
        float(row_lp(np.abs(va - vb), dx, p)) for va, vb in zip(data_a.arrays(), data_b.arrays())
    )
    if denom == 0.0:
        raise ValueError("datasets are identical; difference quotient undefined")
    traj_a = solve_global(data_a, T, cfg)
    traj_b = solve_global(data_b, T, cfg)
    num = 0.0
    for name in ("psi_plus", "psi_minus", "a_plus", "a_minus"):
        diff = traj_a.field_traces()[name] - traj_b.field_traces()[name]
        num += float(row_lp(np.abs(diff), dx, p).max(initial=0.0))
    return num / denom
