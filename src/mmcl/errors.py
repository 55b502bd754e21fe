"""Shared exception types, numerical guard constants, the floating-point
policy, size limits, and `check_fields`: the one checker of the kind and
range of every field of a run configuration and of a cohort spec."""

import numbers

import numpy as np

# Guard used for vector norms everywhere in the package.
EPS = 1e-12

# The floating-point policy: an overflow, or a NaN made from finite numbers
# (say a loaded weight of 1e308), raises FloatingPointError instead of
# warning. The harness entry points and every CLI verb run under it as a
# decorator (an errstate object enters a `with` block once only); a local
# `np.errstate(over="ignore")` that reports its own typed error opts out.
STRICT_FLOATS = np.errstate(over="raise", invalid="raise")

# Upper bounds on sizes, each checked where its value enters the program
MAX_WIDTH = 1024  # embedding, hidden, head, latent, observation and label widths
MAX_PATIENTS = 100_000  # patients in a generated cohort
MAX_IG_STEPS = 10_000  # integrated-gradients path points per sample
MAX_SEEDS = 1_000  # seeds in one sweep


# a bool is neither an int nor a real
def is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_int_in(lo, hi=float("inf")):
    return lambda value: is_int(value) and lo <= value <= hi


def check_fields(obj, rules, error, owner=""):
    """Raise `error("<field><owner> must be <what>, got <value>")` for the first
    field of `obj` that fails its row of `rules`, a table of (what, test, field names)."""
    for what, holds, names in rules:
        for name in names:
            value = getattr(obj, name)
            if not holds(value):
                raise error(f"{name}{owner} must be {what}, got {value!r}")


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
