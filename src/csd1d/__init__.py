"""Characteristic-lattice solver and estimate checks for the 1+1D
Chern-Simons-Dirac system in diagonal variables."""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, build_initial_state, load_config
from .errors import ConvergenceFailureError, DomainOverflowError, SlabUnderflowError
from .lattice import (
    ComplexField,
    Grid,
    RealField,
    TriangleMask,
    apply_mask,
    lp_norm,
    make_grid,
    shift,
    windowed_mass,
)
from .physics import (
    CouplingKind,
    DataSpec,
    ModelParams,
    coupling_P,
    diagonalize,
    generate_data,
    undiagonalize,
)
from .report import DiagnosticReport
from .solver import (
    DecomposedTrajectory,
    SolverConfig,
    State,
    Trajectory,
    initial_size,
    lipschitz_probe,
    march,
    picard_slab,
    solve_decomposed,
    solve_global,
)
from .transport import (
    SourceTrace,
    bilinear_bound_check,
    solve_transport,
    spacetime_lp_norm,
)
from .diagnostics import (
    charge_series,
    concentration_monitor,
    corollary_envelope_report,
    finite_speed_check,
    intrinsic_bound_report,
    localization_check,
    scaling_check,
)

__all__ = [
    "__version__",
    "ConfigError",
    "RunConfig",
    "build_initial_state",
    "load_config",
    "ConvergenceFailureError",
    "DomainOverflowError",
    "SlabUnderflowError",
    "ComplexField",
    "Grid",
    "RealField",
    "TriangleMask",
    "apply_mask",
    "lp_norm",
    "make_grid",
    "shift",
    "windowed_mass",
    "CouplingKind",
    "DataSpec",
    "ModelParams",
    "coupling_P",
    "diagonalize",
    "generate_data",
    "undiagonalize",
    "DiagnosticReport",
    "DecomposedTrajectory",
    "SolverConfig",
    "State",
    "Trajectory",
    "initial_size",
    "lipschitz_probe",
    "march",
    "picard_slab",
    "solve_decomposed",
    "solve_global",
    "SourceTrace",
    "bilinear_bound_check",
    "solve_transport",
    "spacetime_lp_norm",
    "charge_series",
    "concentration_monitor",
    "corollary_envelope_report",
    "finite_speed_check",
    "intrinsic_bound_report",
    "localization_check",
    "scaling_check",
]
