"""Vibro-acoustic contact sensing: synthetic plants to cloned policies.

Submodules:
  signal    chirp excitation, modal plants, noise
  features  FFT magnitude rows, cosine-kernel PCA
  learn     MLP estimators with Adam, eval tables, serialization
  envsim    peg-insertion pose grid, expert, noisy observations
  policy    history-window behavior cloning and evaluation
  plants    plant presets and session-level parameter jitter
  pipeline  run configs, dataset synthesis, band slices, train/eval
  cli       command-line entry points
"""

from .container import PayloadKind, read_container, write_container
from .errors import (
    DataError,
    DegenerateInputError,
    NumericalError,
    ParameterError,
    VcasError,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DegenerateInputError",
    "NumericalError",
    "ParameterError",
    "PayloadKind",
    "VcasError",
    "read_container",
    "write_container",
    "__version__",
]
