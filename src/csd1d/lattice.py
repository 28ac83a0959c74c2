"""Characteristic-aligned 1D lattice: grids, field containers, norms,
masks and exact shift transport.

The time step always equals the cell width (unit CFL), so the
characteristics x - t and x + t pass through lattice points and free
transport is an integer shift with no interpolation error.  Boundaries
are zero-extended; correctness then relies on the domain containing the
data support fattened by the simulated time, which the solver checks.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "ComplexField",
    "RealField",
    "TriangleMask",
    "make_grid",
    "step_count",
    "lp_norm",
    "row_lp",
    "windowed_mass",
]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid with dt = dx."""

    x_min: float
    n_cells: int
    dx: float

    @property
    def dt(self) -> float:
        return self.dx

    @property
    def x_max(self) -> float:
        return self.x_min + self.n_cells * self.dx

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


def is_integer(value) -> bool:
    """An integer that is not a boolean; 3.0 is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A real number that is not a boolean (JSON true/false) and converts
    to a finite float; an integer too large for one does not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def quoted(value) -> str:
    """repr(value) for an error message, cut to keep the line short:
    10**400 has 401 digits."""
    text = repr(value)
    return text if len(text) <= 27 else f"{text[:24]}... ({len(text)} characters)"


def make_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    if not x_max > x_min:
        raise ValueError(f"grid extent must be positive, got [{x_min}, {x_max}]")
    if not is_integer(n_cells):
        raise ValueError(f"n_cells must be an integer, got {quoted(n_cells)}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    if n_cells > sys.float_info.max:
        raise ValueError(f"n_cells is too large for a float, got {quoted(n_cells)}")
    dx = (x_max - x_min) / n_cells
    return Grid(x_min=float(x_min), n_cells=int(n_cells), dx=dx)


def step_count(name: str, T: float, dt: float, positive: bool = False) -> int:
    """T / dt as a whole number of steps; ValueError unless T is a
    multiple (a positive one, if asked) of dt and T / dt is finite."""
    ratio = T / dt
    # a T too large for a finite ratio is far from 0 steps and fails below
    steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if (positive and steps < 1) or not np.isclose(steps * dt, T, rtol=1e-9, atol=1e-12):
        what = "a positive multiple" if positive else "a multiple"
        raise ValueError(f"{name}={T} is not {what} of dt={dt}")
    return steps


def _check_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != (grid.n_cells,):
        raise ValueError(
            f"field length {values.shape} does not match grid ({grid.n_cells},)"
        )
    if not np.all(np.isfinite(values.view(np.float64) if np.iscomplexobj(values) else values)):
        raise ValueError("field contains non-finite samples")
    return values


@dataclass(frozen=True)
class ComplexField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _check_values(self.grid, self.values).astype(np.complex128)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class RealField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = _check_values(self.grid, self.values).astype(np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


Field = ComplexField | RealField


@dataclass(frozen=True)
class TriangleMask:
    """Backward light cone with apex time R over the interval
    |x - x0| <= R: active set at time t is {|x - x0| <= R - t}."""

    x0: float
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"mask half-width must be positive, got {self.R}")

    def indicator(self, grid: Grid, t: float | np.ndarray) -> np.ndarray:
        """1.0 on the active set at time t; a column of times gives one
        row per time."""
        # half-cell slack keeps edge cells from flickering under roundoff
        return (np.abs(grid.centers - self.x0) <= self.R - t + 1e-12 * grid.dx).astype(
            np.float64
        )


def row_lp(mag: np.ndarray, dx: float, p: float):
    """L^p norm of each row (last axis) of a modulus array, as a
    piecewise-constant grid function with cell width dx."""
    if p == np.inf:
        return mag.max(axis=-1, initial=0.0)
    return ((mag**p).sum(axis=-1) * dx) ** (1.0 / p)


def lp_norm(f: Field, p: float) -> float:
    """Lebesgue norm of the piecewise-constant grid function."""
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(row_lp(np.abs(f.values), f.grid.dx, p))


def shift_values(values: np.ndarray, k: int) -> np.ndarray:
    """out[j] = values[j - k], zero where j - k leaves the grid."""
    n = len(values)
    if abs(k) > n:
        raise ValueError(f"|shift| {abs(k)} exceeds n_cells {n}")
    out = np.empty_like(values)
    if k >= 0:
        out[:k] = 0.0
        out[k:] = values[: n - k]
    else:
        out[n + k :] = 0.0
        out[: n + k] = values[-k:]
    return out


def window_kernel(r: float, dx: float) -> np.ndarray:
    """Cell-overlap weights of the open window (-r, r) against cells
    centered at multiples of dx.  Summing |f_j| * w against the kernel is
    the exact integral of the piecewise-constant |f| over the window."""
    k_max = int(np.ceil((r + 0.5 * dx) / dx))
    offsets = np.arange(-k_max, k_max + 1) * dx
    return np.clip(r - np.abs(offsets) + 0.5 * dx, 0.0, dx)


def windowed_mass(f: Field, r: float) -> float:
    """sup over cell centers x of integral_{|x-y|<r} |f(y)| dy."""
    if r < f.grid.dx:
        raise ValueError(f"window radius {r} below cell width {f.grid.dx}")
    kernel = window_kernel(r, f.grid.dx)
    sums = np.convolve(np.abs(f.values), kernel, mode="same")
    return float(sums.max())

