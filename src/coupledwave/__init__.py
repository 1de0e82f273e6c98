"""Finite element solver and diagnostics for a weakly coupled damped wave system.

Two wave fields u and v on an interval or polygonal domain, coupled through
a zeroth-order exchange term alpha (u - v) and damped by eps_u u_t and
eps_v v_t, are discretized with P1 elements in space and a fully implicit
two-level scheme in time.  The package exposes the mesh/assembly layer, the
coupled stepper, energy and decay diagnostics, a manufactured-solution
convergence harness, and a config-driven CLI.
"""

import importlib.util
import sys

import numpy


def _defer_unused_numpy_submodules():
    # scipy.sparse's `from numpy import *` executes each lazily loaded submodule in numpy.__all__;
    # no run uses these four, so each waits for its first attribute access (scipy uses np.random)
    for name in ("f2py", "testing", "ma", "polynomial"):
        full = f"numpy.{name}"
        if full not in sys.modules and (spec := importlib.util.find_spec(full)) is not None:
            spec.loader = importlib.util.LazyLoader(spec.loader)
            sys.modules[full] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            setattr(numpy, name, module)  # else numpy.__getattr__ re-imports it forever


_defer_unused_numpy_submodules()

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
from .energy import DecayFit, EnergyTracker, InsufficientDataError, LyapunovParams, fit_decay_rate
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
