"""Minimum-cost fail-safe sizing and placement of linear viscous dampers.

Public surface: structural model containers and assembly (`model`),
failure-scenario enumeration (`scenarios`), time integration (`dynamics`),
the smooth drift-constraint machinery (`constraints`), adjoint gradients
(`adjoint`), the cutting-plane SLP optimizer (`optimizer`), and the
expanding working-set driver (`failsafe`). The command-line entry point
lives in `cli`.
"""

from .adjoint import adjoint_gradient, fd_gradient, gradient_check
from .constraints import (
    ConstraintParams,
    ConstraintValue,
    aggregate,
    evaluate_drift_constraint,
    exact_peak,
)
from .dynamics import (
    GroundMotion,
    ResponseHistory,
    load_ground_motion,
    newmark_solve,
    select_dominant_record,
    spectral_displacement,
)
from .errors import ConvergenceError, InputError
from .failsafe import (
    FailSafeConfig,
    FinalDesign,
    evaluate_all,
    run_failsafe,
    select_critical,
)
from .model import (
    DesignVector,
    StructuralModel,
    assemble_added_damping,
    build_rayleigh,
    compute_lowest_modes,
)
from .optimizer import (
    CuttingPlane,
    CuttingPlanes,
    EvalCounter,
    SlpConfig,
    SlpResult,
    slp_solve,
    solve_lp,
)
from .scenarios import FailureScenario, ScenarioSet, enumerate_scenarios, no_failure

__version__ = "0.1.0"

__all__ = [
    "ConstraintParams",
    "ConstraintValue",
    "ConvergenceError",
    "CuttingPlane",
    "CuttingPlanes",
    "DesignVector",
    "EvalCounter",
    "FailSafeConfig",
    "FailureScenario",
    "FinalDesign",
    "GroundMotion",
    "InputError",
    "ResponseHistory",
    "ScenarioSet",
    "SlpConfig",
    "SlpResult",
    "StructuralModel",
    "adjoint_gradient",
    "aggregate",
    "assemble_added_damping",
    "build_rayleigh",
    "compute_lowest_modes",
    "enumerate_scenarios",
    "evaluate_all",
    "evaluate_drift_constraint",
    "exact_peak",
    "fd_gradient",
    "gradient_check",
    "load_ground_motion",
    "newmark_solve",
    "no_failure",
    "run_failsafe",
    "select_critical",
    "select_dominant_record",
    "slp_solve",
    "solve_lp",
    "spectral_displacement",
]
