"""Finite element solver and diagnostics for a weakly coupled damped wave system.

Two wave fields u and v on an interval or polygonal domain, coupled through
a zeroth-order exchange term alpha (u - v) and damped by eps_u u_t and
eps_v v_t, are discretized with P1 elements in space and a fully implicit
two-level scheme in time.  The package exposes the mesh/assembly layer, the
coupled stepper, energy and decay diagnostics, a manufactured-solution
convergence harness, and a config-driven CLI.
"""

from .assembly import (
    AssemblyError,
    EmptySystemError,
    assemble_mass,
    assemble_stiffness,
    element_mass,
    element_stiffness,
    interpolate,
)
from .config import ConfigError, RunConfig, parse_config

# the energy() op itself stays in its submodule: re-exporting it here would
# shadow the coupledwave.energy module object
from .energy import (
    DecayFit,
    DissipationBreakdown,
    EnergyRecord,
    EnergyTracker,
    InsufficientDataError,
    LyapunovParams,
    fit_decay_rate,
)
from .mesh import (
    BOUNDARY,
    Mesh,
    MeshError,
    generate_unit_interval,
    generate_unit_square,
    interior_dof_map,
    read_mesh,
    refine_uniform,
    validate,
    write_mesh,
)
from .mms import (
    ErrorReport,
    ManufacturedCase,
    build_case,
    convergence_study,
    measure_error,
)
from .scheme import BlockOperator, SchemeParams, State, initial_preset, initialize, run, step
from .sparse_linalg import SolverConfig, SolverFailure, cg_jacobi, solve_spd

__version__ = "0.1.0"
