"""Exception hierarchy.

Three families map onto the CLI exit codes: configuration (1),
geometry/meshing (2), solver (3).
"""


class InsuloptError(Exception):
    pass


# -- configuration ------------------------------------------------------------

class ConfigError(InsuloptError):
    pass


class SchemaError(ConfigError):
    """Invalid run configuration; ``path`` points at the offending key."""

    def __init__(self, path, message=""):
        self.path = path
        super().__init__(f"{path}: {message}" if message else path)


class UnknownLabel(ConfigError):
    pass


# -- geometry / meshing --------------------------------------------------------

class GeometryError(InsuloptError):
    pass


class InvalidDomain(GeometryError):
    pass


class TransversalityFailure(GeometryError):
    pass


class ModeInvalid(GeometryError):
    pass


class NonInjectiveLayer(GeometryError):
    pass


class MeshFailure(GeometryError):
    pass


# -- solvers -------------------------------------------------------------------

class SolverError(InsuloptError):
    pass


class NoConvergence(SolverError):
    pass


class NonpositiveWeight(SolverError):
    pass


class ZeroTrace(SolverError):
    pass


class MeshMismatch(SolverError):
    pass


class ConvergenceCheckFailure(SolverError):
    """A vanishing-layer harness check failed: the sandwich inequality, the
    equi-coercivity monitor, or the observed Lebesgue-limit order."""


class NonUniqueWarning(UserWarning):
    """Minimizer uniqueness relies on domain connectivity (no Dirichlet part)."""
