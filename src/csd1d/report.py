"""Estimate-check report container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# identities the discretization makes exact are checked at EXACT_TOL;
# continuum inequalities may be violated by discretization only at
# quadrature-error scale, so they pass when margin >= -RELATIVE_SLACK*RHS
EXACT_TOL = 1e-12
RELATIVE_SLACK = 1e-3


@dataclass(frozen=True)
class DiagnosticReport:
    """One named inequality check: measured LHS against theoretical RHS.

    pass_ is recomputable from (lhs, rhs, tolerance); reports carry no
    hidden state.
    """

    name: str
    lhs: float
    rhs: float
    tolerance: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for v in (self.lhs, self.rhs, self.tolerance):
            if not np.isfinite(v):
                raise ValueError(f"non-finite report value in {self.name!r}")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def pass_(self) -> bool:
        return self.margin >= -self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "tolerance": self.tolerance,
            "pass": self.pass_,
            "metadata": dict(self.metadata),
        }
