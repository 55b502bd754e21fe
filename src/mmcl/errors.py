"""Shared exception types, numerical guard constants, size limits and the
type tests that configurations and cohort specs apply to their fields."""

import numbers

# Guard used for vector norms everywhere in the package.
EPS = 1e-12

# Upper bounds on sizes, each checked where its value enters the program
MAX_WIDTH = 1024  # embedding, hidden, head and latent widths
MAX_PATIENTS = 100_000  # patients in a generated cohort
MAX_IG_STEPS = 10_000  # integrated-gradients path points per sample
MAX_SEEDS = 1_000  # seeds in one sweep


# a bool is neither an int nor a real
def is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


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
