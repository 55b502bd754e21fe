"""Shared exception types and numerical guard constants."""

# Guard used for vector norms and log arguments everywhere in the package.
EPS = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically degenerate (e.g. zero norm)."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


class CorruptFileError(ContractError, OSError):
    """A checkpoint or cohort file exists but cannot be parsed; the message
    names the file. An `OSError`, so the CLI reports it as an IO error."""


class ConfigurationError(ValueError):
    """A run configuration is inconsistent or missing prerequisites."""


class DivergenceError(RuntimeError):
    """Training produced non-finite losses."""

    def __init__(self, message, last_finite_loss=None, epoch=None):
        super().__init__(message)
        self.last_finite_loss = last_finite_loss
        self.epoch = epoch
