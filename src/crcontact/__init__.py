"""2D Crouzeix-Raviart solver for quasi-static Tresca frictional contact."""

from crcontact.mesh import (
    BoundaryLabel,
    BoundarySegment,
    Domain,
    Mesh,
    MeshError,
    edge_sets,
    generate_structured,
    refine_uniform,
)
from crcontact.material import MaterialModel, lame_from_engineering
from crcontact.space import CRFunction, CRSpace, build_space, interpolate_cr, prolongate
from crcontact.assembly import (
    DiscreteSystem,
    LoadSpec,
    assemble_load,
    assemble_stiffness,
    friction_rhs,
    friction_value,
)
from crcontact.solver import (
    TimeGrid,
    TrajectorySolution,
    UzawaConfig,
    UzawaError,
    march,
    projection_P,
    uzawa_step_solve,
)
from crcontact.analysis import (
    EnergyNormBreakdown,
    brute_force_vi_oracle,
    energy_norm,
    inter_mesh_error,
)

__all__ = [
    "BoundaryLabel",
    "BoundarySegment",
    "Domain",
    "Mesh",
    "MeshError",
    "edge_sets",
    "generate_structured",
    "refine_uniform",
    "MaterialModel",
    "lame_from_engineering",
    "CRFunction",
    "CRSpace",
    "build_space",
    "interpolate_cr",
    "prolongate",
    "DiscreteSystem",
    "LoadSpec",
    "assemble_load",
    "assemble_stiffness",
    "friction_rhs",
    "friction_value",
    "TimeGrid",
    "TrajectorySolution",
    "UzawaConfig",
    "UzawaError",
    "march",
    "projection_P",
    "uzawa_step_solve",
    "EnergyNormBreakdown",
    "brute_force_vi_oracle",
    "energy_norm",
    "inter_mesh_error",
]
