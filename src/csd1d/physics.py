"""Model definition: coupling choices, the diagonalization map and
initial-data generators.

The solver works in the diagonal variables psi_pm = psi1 +- psi2 and
a_pm = a0 -+ a1, which turn the principal part into decoupled left/right
transport.  Users specify data in the physical variables; the map here
converts them to the diagonal ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .lattice import ComplexField, Grid, RealField, quoted

__all__ = [
    "CouplingKind",
    "ModelParams",
    "DataSpec",
    "diagonalize",
    "coupling_values",
    "generate_data",
]


class CouplingKind(enum.Enum):
    """Admissible coupling matrices of the gauge source term."""

    NULL_GAMMA0 = "gamma0"
    NULL_GAMMA1 = "gamma1"
    IDENTITY = "identity"

    @property
    def is_null(self) -> bool:
        return self is not CouplingKind.IDENTITY


@dataclass(frozen=True)
class ModelParams:
    alpha: CouplingKind = CouplingKind.NULL_GAMMA0
    m: float = 0.0
    # Lebesgue exponent used in reports only; the discrete evolution is
    # identical for every p.
    p: float = 1.0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"mass must be >= 0, got {self.m}")
        if self.p != np.inf and self.p < 1:
            raise ValueError(f"p must be >= 1 or inf, got {self.p}")


def _require_shared_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields do not share one grid")
    return grid


def coupling_values(
    psi_plus: np.ndarray, psi_minus: np.ndarray, alpha: CouplingKind
) -> np.ndarray:
    """Pointwise gauge source P(psi_plus, psi_minus) as a real array."""
    if alpha is CouplingKind.NULL_GAMMA0:
        return np.real(psi_plus * np.conj(psi_minus))
    if alpha is CouplingKind.NULL_GAMMA1:
        return np.imag(psi_plus * np.conj(psi_minus))
    return 0.5 * (np.abs(psi_plus) ** 2 + np.abs(psi_minus) ** 2)


def diagonalize(
    psi1: ComplexField,
    psi2: ComplexField,
    a0: RealField,
    a1: RealField,
    params: ModelParams | None = None,
):
    """(psi1, psi2, a0, a1) -> State in the diagonal variables."""
    from .solver import State  # avoid a cycle at import time

    grid = _require_shared_grid(psi1, psi2, a0, a1)
    return State(
        grid=grid,
        t=0.0,
        psi_plus=ComplexField(grid, psi1.values + psi2.values),
        psi_minus=ComplexField(grid, psi1.values - psi2.values),
        a_plus=RealField(grid, a0.values - a1.values),
        a_minus=RealField(grid, a0.values + a1.values),
        params=params or ModelParams(),
    )


@dataclass(frozen=True)
class DataSpec:
    """Deterministic initial-data generator.

    kinds:
      gaussian           amplitude * exp(-((x-center)/width)^2) * e^{i phase}
      box                amplitude on |x-center| < width/2
      modulated_gaussian gaussian times e^{i wavenumber x}
      random_bumps       n_bumps seeded compactly-supported bumps
    """

    kind: str = "gaussian"
    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0
    phase: float = 0.0
    wavenumber: float = 0.0
    seed: int = 0
    n_bumps: int = 3
    spread: float = 4.0  # random_bumps: centers drawn from [-spread, spread]

    _KINDS = ("gaussian", "box", "modulated_gaussian", "random_bumps", "zero")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown data kind {quoted(self.kind)}")
        if self.kind != "zero" and not self.width > 0:
            raise ValueError(f"width must be positive, got {self.width}")


def _bump(u: np.ndarray) -> np.ndarray:
    """Smooth bump supported exactly on |u| < 1, peak value 1."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
    return out


def generate_data(spec: DataSpec, grid: Grid) -> ComplexField:
    if spec.kind == "zero":
        return ComplexField(grid, np.zeros(grid.n_cells, dtype=np.complex128))
    if spec.width < 2 * grid.dx:
        raise ValueError(
            f"feature width {spec.width} not resolvable on dx={grid.dx} (need >= 2 dx)"
        )
    x = grid.centers
    if spec.kind == "box":
        profile = (np.abs(x - spec.center) < spec.width / 2).astype(np.float64)
        vals = spec.amplitude * profile * np.exp(1j * spec.phase)
    elif spec.kind in ("gaussian", "modulated_gaussian"):
        profile = np.exp(-(((x - spec.center) / spec.width) ** 2))
        carrier = spec.phase + (spec.wavenumber * x if spec.kind == "modulated_gaussian" else 0.0)
        vals = spec.amplitude * profile * np.exp(1j * carrier)
    else:  # random_bumps
        rng = np.random.default_rng(spec.seed)
        vals = np.zeros(grid.n_cells, dtype=np.complex128)
        for _ in range(spec.n_bumps):
            c = spec.center + rng.uniform(-spec.spread, spec.spread)
            w = spec.width * rng.uniform(0.5, 1.0)
            a = spec.amplitude * rng.uniform(0.3, 1.0)
            ph = rng.uniform(0.0, 2 * np.pi)
            vals = vals + a * np.exp(1j * ph) * _bump((x - c) / w)
    return ComplexField(grid, vals)
