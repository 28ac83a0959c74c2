"""Scalar transport along lattice characteristics and the bilinear
space-time product estimate.

The solution formula u(t, x) = u0(x -+ t) + integral of the source along
the incoming characteristic is evaluated exactly for the shift part and
by the trapezoidal rule for the source integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainOverflowError
from .lattice import Field, Grid, row_lp, step_count
from .report import RELATIVE_SLACK, DiagnosticReport

__all__ = [
    "SourceTrace",
    "solve_transport",
    "spacetime_lp_norm",
    "bilinear_bound_check",
]


@dataclass(frozen=True)
class SourceTrace:
    """Source samples F(t_i, x_j), i = 0..steps, spaced by dt = dx."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2 or s.shape[1] != self.grid.n_cells:
            raise ValueError(f"trace shape {s.shape} does not match grid")
        if not np.all(np.isfinite(s.view(np.float64) if np.iscomplexobj(s) else s)):
            raise ValueError("trace contains non-finite samples")
        object.__setattr__(self, "samples", s)

    @property
    def steps(self) -> int:
        return self.samples.shape[0] - 1


def support_cells(values: np.ndarray, atol: float) -> tuple[int, int] | None:
    """(lo, hi) index range where |values| > atol, or None if empty."""
    idx = np.nonzero(np.abs(values) > atol)[0]
    if len(idx) == 0:
        return None
    return int(idx[0]), int(idx[-1])


def check_containment(grid: Grid, steps: int, *arrays: np.ndarray) -> None:
    """Refuse solves whose cone of support would leave the grid."""
    # each array's modulus once, as its largest modulus per cell over time
    profiles = [np.abs(a) if a.ndim == 1 else np.abs(a).max(axis=0) for a in arrays]
    scale = max((float(v.max(initial=0.0)) for v in profiles), default=0.0)
    atol = 1e-14 * max(1.0, scale)
    lo, hi = grid.n_cells, -1
    for v in profiles:
        rng = support_cells(v, atol)
        if rng is not None:
            lo, hi = min(lo, rng[0]), max(hi, rng[1])
    if hi < 0:
        return
    if lo - steps < 0 or hi + steps > grid.n_cells - 1:
        raise DomainOverflowError(
            f"support cells [{lo}, {hi}] fattened by {steps} steps leave the "
            f"grid of {grid.n_cells} cells"
        )


# Bytes per bulk block of the characteristic recursion.  Bulk steps over
# the whole slab fell out of cache and were slower than one row at a time
# from n = 4096 up; one row at a time paid numpy's per-call cost and was
# slower below n = 2048.  A block this size stays in cache at every n.
_BLOCK_BYTES = 256 * 1024


def characteristic_integral_rows(
    F_rows: np.ndarray, sign: int, dt: float, base: np.ndarray, out: np.ndarray | None = None
):
    """Rows base_i + I_i(x), where I_i is the trapezoid of F along the
    characteristic reaching (t_i, x) and I_0 = 0, written into out when
    given (out must not overlap F_rows or base).

    The trapezoid increments of a block of rows are formed with three
    bulk operations, then each row of the block adds the previous row
    along the characteristic.  Every cell receives the same sums as a
    row-by-row shift; the only missing term, 0.0 in the cell the shift
    fills, is supplied by the base rows, which are zero there for i >= 1.
    """
    dst, src = (np.s_[1:], np.s_[:-1]) if sign > 0 else (np.s_[:-1], np.s_[1:])
    fill = 0 if sign > 0 else -1
    if out is None:
        out = np.empty_like(F_rows)
    out[0] = 0.0
    rows = out.shape[0]
    block = max(1, _BLOCK_BYTES // out[0].nbytes)
    for lo in range(1, rows, block):
        hi = min(lo + block, rows)
        incr = out[lo:hi]
        incr[:, dst] = F_rows[lo - 1 : hi - 1, src]
        incr[:, fill] = 0.0
        incr += F_rows[lo:hi]
        np.multiply(0.5 * dt, incr, out=incr)
        for i in range(lo, hi):
            out[i, dst] += out[i - 1, src]
    out += base
    return out


def data_shift_rows(data: np.ndarray, sign: int, K: int) -> np.ndarray:
    """Rows i = 0..K of the data shifted i cells along the characteristic,
    as a read-only view of one zero-padded copy of the data."""
    n = data.shape[0]
    padded = np.zeros(n + K, dtype=data.dtype)
    if sign > 0:
        # row i is padded[K - i : K - i + n]
        padded[K:] = data
        return sliding_window_view(padded, n)[::-1]
    padded[:n] = data
    return sliding_window_view(padded, n)


def solve_transport(u0: Field, F: SourceTrace | None, sign: int, steps: int) -> np.ndarray:
    """Trace u(t_i, x_j) of d_t u + sign * d_x u = F, i = 0..steps.

    With F absent or zero the result is the exact lattice shift of u0.
    Returns an array of shape (steps + 1, n_cells), complex if u0 or F
    is complex.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    grid = u0.grid
    if F is not None and F.steps < steps:
        raise ValueError(f"source trace has {F.steps} steps, need {steps}")
    arrays = [u0.values] + ([F.samples[: steps + 1]] if F is not None else [])
    check_containment(grid, steps, *arrays)

    complex_out = np.iscomplexobj(u0.values) or (F is not None and np.iscomplexobj(F.samples))
    dtype = np.complex128 if complex_out else np.float64
    base = data_shift_rows(u0.values.astype(dtype, copy=False), sign, steps)
    if F is None:
        return base.copy()
    F_rows = F.samples[: steps + 1].astype(dtype, copy=False)
    out = characteristic_integral_rows(F_rows, sign, grid.dt, base)
    out[0] = u0.values  # verbatim: 0.0 + u0 would turn -0.0 into +0.0
    return out


def _time_weights(steps: int, dt: float) -> np.ndarray:
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def spacetime_lp_norm(trace: np.ndarray, grid: Grid, p: float) -> float:
    """L^p norm over the slab [0, T] x R, trapezoidal in time, exact in
    space for the piecewise-constant representation."""
    mag = np.abs(trace)
    if p == np.inf:
        return float(mag.max(initial=0.0))
    steps = trace.shape[0] - 1
    w = _time_weights(steps, grid.dt)
    return float((w @ (mag**p).sum(axis=1)) * grid.dx) ** (1.0 / p)


def _trace_source_l1_in_time(F: SourceTrace | None, steps: int, grid: Grid, p: float) -> float:
    """integral_0^T ||F(s)||_p ds by the trapezoidal rule."""
    if F is None:
        return 0.0
    per_t = row_lp(np.abs(F.samples[: steps + 1]), grid.dx, p)
    return float(_time_weights(steps, grid.dt) @ per_t)


def bilinear_bound_check(
    u_plus0: Field,
    u_minus0: Field,
    F_plus: SourceTrace | None,
    F_minus: SourceTrace | None,
    p: float,
    T: float,
) -> DiagnosticReport:
    """Measure ||u_+ u_-|| over the slab against the product bound with
    constant (1/2)^(1/p)."""
    if p != np.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    grid = u_plus0.grid
    steps = step_count("T", T, grid.dt)

    # the two traces are dropped once their product is formed
    product = solve_transport(u_plus0, F_plus, +1, steps) * solve_transport(
        u_minus0, F_minus, -1, steps
    )
    lhs = spacetime_lp_norm(product, grid, p)
    half = 0.5 ** (1.0 / p)  # 1 for p = inf

    def factor(u0_v, F):
        return float(row_lp(np.abs(u0_v), grid.dx, p)) + _trace_source_l1_in_time(F, steps, grid, p)

    rhs = half * factor(u_plus0.values, F_plus) * factor(u_minus0.values, F_minus)
    return DiagnosticReport(
        name="bilinear",
        lhs=lhs,
        rhs=rhs,
        tolerance=RELATIVE_SLACK * rhs,
        metadata={"p": p, "T": T, "n_cells": grid.n_cells},
    )
