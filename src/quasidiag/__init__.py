"""Quasi-diagonal preconditioning of discrete negative-order norms."""

from .assembly import (
    BasisSet,
    assemble_L,
    assemble_M,
    assemble_R,
    assemble_mass_p1,
    assemble_stiffness,
    basis_set,
    boundary_vertices,
    make_p1_bubbles,
    p1_vertex_ids,
)
from .errors import (
    ConfigError,
    DegenerateSimplex,
    DimensionError,
    EigsNotConverged,
    EmptySpace,
    MeshError,
    NonManifoldMesh,
    SolverFailure,
    UnsupportedDimension,
)
from .experiments import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentRow,
    csv_writer,
    format_row,
    read_csv,
    run_experiment,
    write_csv,
)
from .mesh import (
    FacetTopology,
    SimplicialMesh,
    boundary_measure,
    enumerate_facets,
    initial_mesh,
    validate_mesh,
)
from .precond import (
    Preconditioner,
    build_C,
    build_D,
    build_Dp,
    build_incidence,
    diagonal_lambda_min,
    diagonal_preconditioner,
    quasi_diagonal_preconditioner,
)
from .refine import (
    adaptive_refine,
    corner_singularity,
    corner_singularity_gradient,
    dorfler_mark,
    h1_projection_indicator,
    nvb_refine,
    singular_indicator,
    uniform_refine,
)
from .spectral import (
    GramOperator,
    SpectralReport,
    dense_action,
    dense_condition_number,
    extreme_eigs,
    gram_operator,
    solve_spd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
