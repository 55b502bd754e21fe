"""Multimodal contrastive learning toolkit: weighted One-vs-Others
objectives, modality-gated LSTM fusion, and a sweep harness over synthetic
multimodal cohorts."""

from .autodiff import Parameter, Tensor
from .errors import (ConfigurationError, ContractError, DegenerateInputError,
                     DimensionError, DivergenceError)

__all__ = [
    "Parameter", "Tensor",
    "ConfigurationError", "ContractError", "DegenerateInputError",
    "DimensionError", "DivergenceError",
]

__version__ = "0.1.0"
