"""Exception types shared across the package."""


class MeshError(Exception):
    """Base class for mesh construction and topology failures."""


class DegenerateSimplex(MeshError):
    """A simplex (or facet) with numerically vanishing measure."""


class NonManifoldMesh(MeshError):
    """A mesh that does not conform.

    Raised for a facet shared by more than two elements, and by
    :func:`quasidiag.mesh.validate_mesh` for a volume or boundary measure
    that differs from the domain's.
    """


class UnsupportedDimension(MeshError):
    """Requested space dimension is outside the supported range {2, 3, 4}."""


class EmptySpace(Exception):
    """A finite element space ended up with no degrees of freedom."""


class DimensionError(Exception):
    """Operand shapes or sizes do not match."""


class ConfigError(Exception):
    """Invalid experiment configuration."""


class SolverFailure(Exception):
    """An iterative solve or eigenvalue estimate broke down.

    Raised when conjugate gradients miss their tolerance within the
    iteration cap, when conjugate gradients or Lanczos meet a direction of
    non-positive curvature (an operator that is not positive definite), and
    when their preconditioner gives r . P r < 0 (a preconditioner that is
    not positive definite).
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EigsNotConverged(Exception):
    """Eigenvalue iteration hit its cap; ``report`` carries the best estimates."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
