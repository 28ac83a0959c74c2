"""Characteristic-aligned 1D lattice: grids, field containers, norms,
masks and exact shift transport.

The time step always equals the cell width (unit CFL), so the
characteristics x - t and x + t pass through lattice points and free
transport is an integer shift with no interpolation error.  Boundaries
are zero-extended; correctness then relies on the domain containing the
data support fattened by the simulated time, which the solver checks.
"""

from __future__ import annotations

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
    "shift",
    "windowed_mass",
    "apply_mask",
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


def make_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    if not x_max > x_min:
        raise ValueError(f"grid extent must be positive, got [{x_min}, {x_max}]")
    if isinstance(n_cells, bool) or not isinstance(n_cells, (int, np.integer)):
        raise ValueError(f"n_cells must be an integer, got {n_cells!r}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be >= 2, got {n_cells}")
    dx = (x_max - x_min) / n_cells
    return Grid(x_min=float(x_min), n_cells=int(n_cells), dx=dx)


def step_count(name: str, T: float, dt: float, positive: bool = False) -> int:
    """T / dt as a whole number of steps; ValueError unless T is a
    multiple (a positive one, if asked) of dt."""
    steps = int(round(T / dt))
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


def _like(f: Field, values: np.ndarray) -> Field:
    return type(f)(f.grid, values)


@dataclass(frozen=True)
class TriangleMask:
    """Backward light cone with apex time R over the interval
    |x - x0| <= R: active set at time t is {|x - x0| <= R - t}."""

    x0: float
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"mask half-width must be positive, got {self.R}")

    def indicator(self, grid: Grid, t: float) -> np.ndarray:
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


def shift_values(values: np.ndarray, k: int, fill=0.0) -> np.ndarray:
    """out[j] = values[j - k], zero (or fill) where j - k leaves the grid."""
    n = len(values)
    if abs(k) > n:
        raise ValueError(f"|shift| {abs(k)} exceeds n_cells {n}")
    out = np.empty_like(values)
    if k >= 0:
        out[:k] = fill
        out[k:] = values[: n - k]
    else:
        out[n + k :] = fill
        out[: n + k] = values[-k:]
    return out


def shift(f: Field, k: int, fill=0.0) -> Field:
    return _like(f, shift_values(f.values, k, fill))


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


def apply_mask(f: Field, mask: TriangleMask, t: float) -> Field:
    if t < 0:
        raise ValueError(f"mask time must be >= 0, got {t}")
    return _like(f, f.values * mask.indicator(f.grid, t))
