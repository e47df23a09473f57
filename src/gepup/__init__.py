"""High-order finite-element solver for the 2D incompressible Navier-Stokes equations.

The evolved velocity is allowed to be slightly non-solenoidal; a discrete
divergence-free projection and an unconstrained pressure Poisson solve
recover the physical velocity and pressure after every Runge-Kutta stage.
Equal-order continuous Lagrange elements are used for velocity and
pressure, time integration is ERK-ESDIRK, and all linear systems are solved
directly by fast diagonalization in the 1D generalized eigenbases of the
tensor-product grid.
"""

from .mesh import (
    RectDomain,
    StructuredQuadMesh,
    build_mesh,
    boundary_faces,
    UNIT_SQUARE,
)
from .fem import (
    FeSpace,
    build_space,
    shape_eval,
    assemble_mass,
    assemble_stiffness,
    interpolate,
    error_norm,
    vector_error_norm,
)
from .linsolve import SolverError
from .operators import CaseDefinition, GepupState, GepupOperators, check_boundary_compatibility
from .imex import ButcherTableau, StepperConfig, load_tableau, validate_tableau, advance_step, courant_dt
from .cases import taylor_green_case, single_vortex_case, lid_cavity_case
from .bench import (
    ConvergenceTable,
    MarkingResult,
    run_simulation,
    run_convergence,
    vorticity_indicator,
    dorfler_mark,
)

__version__ = "0.1.0"
