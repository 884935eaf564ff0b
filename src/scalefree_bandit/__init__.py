"""Scale- and translation-invariant adversarial multi-armed bandit toolkit.

Modules: :mod:`core` (the learner), :mod:`competitions` (competition models and
complexity), :mod:`environments` (loss streams), :mod:`reference`
(verification oracles and an Exp3 comparison), :mod:`harness` (experiment
runner and CSV output), :mod:`verify` (self-check suites).
"""

from .competitions import (
    CompetitionModel,
    complexity,
    complexity_budget,
    default_gamma,
    fixed_arm_model,
    fixed_share_model,
    parse_model,
)
from .core import (
    AdaptiveState,
    NumericalDegeneracyError,
    ProtocolError,
    ScaleFreeBandit,
)
from .environments import LossStream, affine, load_csv, piecewise_stationary, scripted
from .harness import ExperimentConfig, RegretReport, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState",
    "CompetitionModel",
    "ExperimentConfig",
    "LossStream",
    "NumericalDegeneracyError",
    "ProtocolError",
    "RegretReport",
    "ScaleFreeBandit",
    "affine",
    "complexity",
    "complexity_budget",
    "default_gamma",
    "fixed_arm_model",
    "fixed_share_model",
    "load_csv",
    "parse_config",
    "parse_model",
    "piecewise_stationary",
    "run_experiment",
    "scripted",
    "__version__",
]
