"""Shared exception types."""


class MeshMismatchError(ValueError):
    """A lattice function and a grid disagree on the mesh size h."""


class AssemblyError(RuntimeError):
    """System assembly failed (vanishing factor, non-finite entries)."""


class NearSingularError(RuntimeError):
    """The assembled linear system is singular or numerically near-singular.

    Carries the condition estimate; raised when it exceeds the threshold
    separating discretization artifacts from genuinely non-unique systems.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class NormEstimateError(RuntimeError):
    """Power iteration failed to converge within the iteration budget."""

    def __init__(self, message: str, iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class InvalidConfigurationError(ValueError):
    """An experiment configuration is internally inconsistent."""


class ConfigError(ValueError):
    """A config file failed to parse or validate.

    ``line``, when known, is the 1-based line number the message starts with.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
