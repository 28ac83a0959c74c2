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
  history entry ``{"sup": d}``: d is the largest change of any field at
  any grid point and time (NaN once any change is), and decides
  convergence.  A slab allocates its working memory once: two iterate
  sets, written in turn, and one complex and one real work array of the
  iterate shape.  Nothing is reused from one slab to the next.
* ``march`` advances step by step along characteristics.  The gauge
  term is applied as an exact unimodular phase factor, so the modulus
  of a free spinor and the m = 0 charge are preserved to roundoff.  The
  factor exp(i theta) is formed as cos(theta) + i sin(theta), bitwise
  equal to numpy's complex exponential for every finite angle, and the
  coupling of each new step's spinor serves both that step's gauge
  update and the next step's phases.

``solve_global`` chains converged slabs, shrinking the slab length
until the measured contraction factor drops below 1/2;
``solve_final_state`` runs the same slab loop and keeps only the state
at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import ConvergenceFailureError, SlabUnderflowError
from .lattice import (
    ComplexField,
    Grid,
    RealField,
    is_finite_number,
    lp_norm,
    quoted,
    row_lp,
    shift_values,
    step_count,
)
from .physics import ModelParams, coupling_values
from .transport import (
    SourceTrace,
    characteristic_integral_rows,
    check_containment,
    data_shift_rows,
)

__all__ = [
    "State",
    "SolverConfig",
    "Trajectory",
    "DecomposedTrajectory",
    "picard_slab",
    "march",
    "solve_global",
    "solve_final_state",
    "solve_decomposed",
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

    def weighted(self, w) -> "State":
        """This state with every field multiplied by w, a number or an
        array over the grid."""
        return State.from_arrays(self.grid, *(v * w for v in self.arrays()), self.params, t=self.t)


def initial_size(state: State) -> float:
    """Smallness bookkeeping: twice the summed L^p norms of the data."""
    p = state.params.p
    return 2.0 * sum(float(row_lp(np.abs(v), state.grid.dx, p)) for v in state.arrays())


@dataclass(frozen=True)
class SolverConfig:
    backend: str = "picard"  # "picard" | "march"
    slab_T: float = 0.25
    # the Picard stopping rule and slab halving are part of the scheme,
    # not options
    picard_tol: ClassVar[float] = 1e-12
    max_picard_iters: ClassVar[int] = 50

    def __post_init__(self):
        if self.backend not in ("picard", "march"):
            raise ValueError(f"unknown backend {quoted(self.backend)}")
        if not (is_finite_number(self.slab_T) and self.slab_T > 0):
            raise ValueError(f"slab_T must be a positive number, got {quoted(self.slab_T)}")
        object.__setattr__(self, "slab_T", float(self.slab_T))

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


# ---------------------------------------------------------------------------
# marching backend


def _unit_phase(theta):
    """exp(1j * theta) for a real array theta, as cos + i sin written
    into one complex array.

    For finite angles the result is bitwise that of np.exp(1j * theta).
    There the imaginary part of 1j * theta is +0.0 where theta is -0.0,
    so the sine is taken of theta + 0.0.  An infinite angle gives a NaN
    whose sign bit is the opposite of np.exp's, and numpy's invalid-value
    warning names cos instead of exp; both NaNs print as nan.
    """
    theta = theta + 0.0
    out = np.empty(theta.shape, complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _march_phases(ap, am, P, dt):
    """Trapezoidal averages of the gauge fields along the incoming
    characteristics, as unimodular factors, and the gauge update that
    completes the step from the new coupling source.  Each shifted array
    is formed once and serves both."""
    sap, sam = shift_values(ap, +1), shift_values(am, -1)
    sPp, sPm = shift_values(P, +1), shift_values(P, -1)
    # A_-+ at the foot of the +- characteristic, one cell to the left/right
    phase_p = _unit_phase(dt * 0.5 * (shift_values(am, +1) + (sam + dt * sPm)))
    phase_m = _unit_phase(dt * 0.5 * (shift_values(ap, -1) + (sap - dt * sPp)))

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
    P = coupling_values(pp[0], pm[0], alpha)
    for i in range(steps):
        phase_p, phase_m, gauge_update = _march_phases(ap[i], am[i], P, dt)
        pp[i + 1], pm[i + 1] = _march_spinor(phase_p, phase_m, pp[i], pm[i], pp[i], pm[i], m, dt)
        P = coupling_values(pp[i + 1], pm[i + 1], alpha)
        ap[i + 1], am[i + 1] = gauge_update(P)
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
    # the full spinor and its coupling at the current step
    pp_tot, pm_tot = lp[0] + np_[0], lm[0] + nm[0]
    P = coupling_values(pp_tot, pm_tot, alpha)
    for i in range(steps):
        phase_p, phase_m, gauge_update = _march_phases(ap[i], am[i], P, dt)
        lp[i + 1] = phase_p * shift_values(lp[i], +1)
        lm[i + 1] = phase_m * shift_values(lm[i], -1)
        np_[i + 1], nm[i + 1] = _march_spinor(
            phase_p, phase_m, np_[i], nm[i], pp_tot, pm_tot, m, dt
        )
        pp_tot, pm_tot = lp[i + 1] + np_[i + 1], lm[i + 1] + nm[i + 1]
        P = coupling_values(pp_tot, pm_tot, alpha)
        ap[i + 1], am[i + 1] = gauge_update(P)
    return DecomposedTrajectory(grid, initial.params, initial.t, lp, lm, np_, nm, ap, am)


# ---------------------------------------------------------------------------
# Picard backend


def _sup_distance(new, old, cwork, rwork) -> float:
    """The largest change of any field between two Picard iterates, at
    any grid point and time, formed in the complex and real work arrays
    of the iterate shape.  It is NaN when any field difference is, so a
    diverged iterate never reads as converged."""
    sups = []
    for a, b in zip(new, old):
        diff = cwork if np.iscomplexobj(a) else rwork
        np.subtract(a, b, out=diff)
        np.absolute(diff, out=rwork)
        sups.append(rwork.max(initial=0.0))
    return float(np.max(sups))


def _inner_linear_march(data_p, data_m, ap_trace, am_trace, m, dt, pp, pm):
    """Implicit trapezoidal characteristic march of the spinor pair with
    a frozen gauge trace, written into the rows of pp and pm; the update
    is linear in the new iterate."""
    pp[0], pm[0] = data_p, data_m
    c = 1j * m * 0.5 * dt
    for i in range(pp.shape[0] - 1):
        f_p = 1j * am_trace[i] * pp[i] - 1j * m * pm[i]
        f_m = 1j * ap_trace[i] * pm[i] - 1j * m * pp[i]
        b_p = shift_values(pp[i] + 0.5 * dt * f_p, +1)
        b_m = shift_values(pm[i] + 0.5 * dt * f_m, -1)
        a11 = 1.0 - 0.5j * dt * am_trace[i + 1]
        a22 = 1.0 - 0.5j * dt * ap_trace[i + 1]
        det = a11 * a22 - c * c
        pp[i + 1] = (a22 * b_p - c * b_m) / det
        pm[i + 1] = (a11 * b_m - c * b_p) / det


def _picard(initial: State, K: int, cfg: SolverConfig):
    """Successive approximation on a K-step slab.  Both schemes share
    the gauge update; the spinor update is the integral map for null
    couplings and the frozen-gauge linear march for the identity.

    A slab's working memory is allocated once: two iterate sets, the
    current one and the one before, and a complex and a real work array
    of the iterate shape.  Each iteration writes the new iterate over
    the one before and swaps the two sets.  The shifted data rows are
    read-only views of one zero-padded copy of each field.
    """
    dt = initial.grid.dt
    m, alpha = initial.params.m, initial.params.alpha
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
    spare = tuple(np.empty_like(v) for v in it)
    cwork = np.empty_like(it[0])
    rwork = np.empty_like(it[2])

    def null_spinor_update(own, other, a, sign, base, out):
        # 1j * (a * own) - 1j * m * other, operand for operand; the mass
        # term waits in out until the integral overwrites it
        np.multiply(a, own, out=cwork)
        np.multiply(1j, cwork, out=cwork)
        np.multiply(1j * m, other, out=out)
        np.subtract(cwork, out, out=cwork)
        characteristic_integral_rows(cwork, sign, dt, base, out=out)

    history = []
    # divergence of the fixed-point map is detected, not a numerical bug;
    # let the iterates overflow quietly and report the history instead
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_picard_iters):
            pp, pm, ap, am = it
            P = coupling_values(pp, pm, alpha)
            if alpha.is_null:
                null_spinor_update(pp, pm, am, +1, base_pp, spare[0])
                null_spinor_update(pm, pp, ap, -1, base_pm, spare[1])
            else:
                _inner_linear_march(data_p, data_m, ap, am, m, dt, spare[0], spare[1])
            np.negative(P, out=rwork)
            characteristic_integral_rows(rwork, +1, dt, base_ap, out=spare[2])
            characteristic_integral_rows(P, -1, dt, base_am, out=spare[3])
            del P
            d_sup = _sup_distance(spare, it, cwork, rwork)
            history.append({"sup": d_sup})
            it, spare = spare, it
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
    the history holds one {"sup": d} entry per iteration.
    """
    grid = initial.grid
    if steps is None:
        steps = cfg.slab_steps(grid)
    check_containment(grid, steps, *initial.arrays())
    (pp, pm, ap, am), history = _picard(initial, steps, cfg)
    traj = Trajectory(grid, initial.params, initial.t, pp, pm, ap, am, slab_histories=[history])
    return traj, history


def contraction_ratios(history) -> list[float]:
    """d_{n+1}/d_n for successive sup differences above 1e-12, starting
    from the first pair."""
    d = [h["sup"] for h in history]
    return [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 1e-12 and d[i + 1] > 1e-12]


def measured_contraction(history) -> float:
    ratios = contraction_ratios(history)
    return max(ratios) if ratios else 0.0


def _accepted_slabs(initial: State, total_steps: int, cfg: SolverConfig):
    """Yield (done, slab, history) for each accepted Picard slab of a
    total_steps > 0 solve, done being the steps before the slab.

    The slab length is halved whenever an iteration fails to converge or
    its measured contraction factor is >= 1/2, mirroring the role of the
    implicit smallness-of-T condition; SlabUnderflowError ends a failure
    at the single-step floor.  Each slab, rejected or accepted, is
    dropped here before the next slab's solve; a consumer must drop its
    own reference too.
    """
    slab_steps = min(cfg.slab_steps(initial.grid), total_steps)
    done = 0
    cur = initial
    while done < total_steps:
        k = min(slab_steps, total_steps - done)
        try:
            piece, history = picard_slab(cur, cfg, steps=k)
            if k > 1 and measured_contraction(history) >= 0.5:
                del piece  # not kept alive through the retry
                raise ConvergenceFailureError("contraction factor >= 1/2", history=history)
        except ConvergenceFailureError as exc:
            if k <= 1:
                norms = {
                    name: lp_norm(getattr(cur, name), cur.params.p)
                    for name in ("psi_plus", "psi_minus", "a_plus", "a_minus")
                }
                raise SlabUnderflowError(
                    f"slab starting at t={cur.t:.6g} failed at the single-step floor: {exc}",
                    slab_start=cur.t,
                    norms=norms,
                ) from exc
            slab_steps = max(1, slab_steps // 2)
            continue
        yield done, piece, history
        cur = piece.final_state  # copies, so the slab's arrays can go
        del piece  # not alive during the next slab's solve
        done += k


def solve_global(initial: State, T_final: float, cfg: SolverConfig) -> Trajectory:
    """Continue slab solves up to T_final (see _accepted_slabs).

    The rows of each accepted Picard slab are copied into one trajectory
    allocated up front, and the slab is dropped before the next one is
    solved.  `convergence`, which needs only the final state, calls
    solve_final_state instead and holds one slab at a time.  Its
    slab_histories hold the history of each accepted slab, as
    picard_slab returns it.
    """
    grid = initial.grid
    total_steps = step_count("T_final", T_final, grid.dt)
    if cfg.backend == "march":
        return march(initial, total_steps)
    if total_steps == 0:
        return picard_slab(initial, cfg, steps=0)[0]
    traces = [np.empty((total_steps + 1, grid.n_cells), v.dtype) for v in initial.arrays()]
    histories = []
    for done, piece, history in _accepted_slabs(initial, total_steps, cfg):
        k = piece.n_steps
        # the first slab gives row 0 and each later slab rows 1..k: a
        # slab's row 0 can differ from its start state in a zero's sign
        first = 0 if done == 0 else 1
        for out, rows in zip(traces, piece.field_traces().values()):
            out[done + first : done + k + 1] = rows[first:]
        histories.append(history)
        del piece, rows  # not alive during the next slab's solve
    return Trajectory(grid, initial.params, initial.t, *traces, slab_histories=histories)


def solve_final_state(initial: State, T_final: float, cfg: SolverConfig) -> State:
    """The state at T_final of solve_global(initial, T_final, cfg), bit
    for bit, without storing the trajectory; the solve that
    `convergence` runs on each level.

    On the Picard backend only one slab is alive at a time: each
    accepted slab is dropped once its final state is taken.  The march
    backend and T_final = 0 go through solve_global.
    """
    grid = initial.grid
    total_steps = step_count("T_final", T_final, grid.dt)
    if cfg.backend == "march" or total_steps == 0:
        return solve_global(initial, T_final, cfg).final_state
    for _, piece, _ in _accepted_slabs(initial, total_steps, cfg):
        final = piece.final_state
        del piece  # not alive during the next slab's solve
    # the time as solve_global's trajectory forms it, not summed per slab
    return replace(final, t=float(initial.t + total_steps * grid.dt))
