"""Optimal distribution of boundary insulation on polygonal bodies.

Solves the thin-layer transmission problem, its vanishing-layer Robin
limit, and the reduced non-smooth convex problem whose minimizer yields the
optimal thickness profile in closed form; ships a numerical harness that
compares the three along shrinking-layer sweeps.
"""

from .convergence import (
    GammaSweepReport,
    gamma_sweep,
    lebesgue_limit_check,
    recovery_sequence,
)
from .errors import (
    ConvergenceCheckFailure,
    DegenerateFiber,
    InsuloptError,
    MeshFailure,
    MeshMismatch,
    ModeInvalid,
    NoConvergence,
    NonInjectiveLayer,
    NonpositiveWeight,
    NonUniqueWarning,
    SchemaError,
    TransversalityFailure,
    UnknownLabel,
    ZeroTrace,
)
from .fem import (
    EnergyReport,
    ProblemData,
    boundary_l1,
    eval_E_eps,
    eval_E_limit,
    eval_I,
)
from .geometry import (
    FacetLabel,
    InsulationDistribution,
    PolygonalDomain,
    TransversalField,
    build_transversal_field,
    layer_area,
    layer_jacobian,
    layer_point,
    transversal_mass,
)
from .layer_solver import solve_eps
from .meshing import TriMesh, extrude_layer, insulated_chain, triangulate_bulk
from .reduced_solver import ProxWorkspace, prox_squared_l1, solve_reduced
from .robin_solver import solve_limit
from .thickness import reconstruct_distribution, to_normal_thickness

__all__ = [
    "ConvergenceCheckFailure", "DegenerateFiber", "EnergyReport",
    "FacetLabel", "GammaSweepReport", "InsulationDistribution",
    "InsuloptError", "MeshFailure", "MeshMismatch", "ModeInvalid",
    "NoConvergence", "NonInjectiveLayer", "NonpositiveWeight",
    "NonUniqueWarning", "PolygonalDomain", "ProblemData", "ProxWorkspace",
    "SchemaError", "TransversalField", "TransversalityFailure", "TriMesh",
    "UnknownLabel", "ZeroTrace", "boundary_l1", "build_transversal_field",
    "eval_E_eps", "eval_E_limit", "eval_I", "extrude_layer", "gamma_sweep",
    "insulated_chain", "layer_area", "layer_jacobian", "layer_point",
    "lebesgue_limit_check", "prox_squared_l1", "reconstruct_distribution",
    "recovery_sequence", "solve_eps", "solve_limit", "solve_reduced",
    "to_normal_thickness", "transversal_mass", "triangulate_bulk",
]
