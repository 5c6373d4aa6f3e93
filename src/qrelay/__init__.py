"""Measure-and-retransmit strategies for symmetric qubit ensembles.

The package answers two questions about an eavesdropping relay that must
measure each incoming signal and send a fresh state onward: how often can it
identify the signal (minimum-error discrimination), and how close to the
original can the retransmitted state be on average (maximum fidelity)?

Both optima are available in closed form for symmetric ensembles, together
with fixed-point numerical searches and a Monte Carlo simulator that
check them independently.
"""

from .ensembles import SymmetricEnsemble, symmetric_ensemble
from .errors import DomainError, OptimizationError, ValidationError
from .fidelity import (FidelityReport, Strategy, fidelity_of_strategy,
                       max_fidelity_analytic, optimal_retransmission,
                       optimal_strategy_analytic, retransmission_colatitude)
from .measurements import (Assignment, Pom, error_probability, greedy_assignment,
                           identity_sum_residual, min_error_analytic,
                           square_root_measurement, validate_pom)
from .optimizer import OptimizerConfig, SearchTrace, optimize_error, optimize_fidelity
from .qubit import Hermitian2, PureQubit, make_qubit
from .simulator import (SimResult, counter_uniforms, simulate_error, simulate_fidelity,
                        simulate_strategy)
from .strategy_io import load_strategy, parse_strategy_document, save_strategy

__version__ = "0.1.0"

__all__ = [
    "Assignment", "DomainError", "FidelityReport", "Hermitian2", "OptimizationError",
    "OptimizerConfig", "Pom", "PureQubit", "SearchTrace", "SimResult", "Strategy",
    "SymmetricEnsemble", "ValidationError", "counter_uniforms", "error_probability",
    "fidelity_of_strategy", "greedy_assignment", "identity_sum_residual",
    "load_strategy", "make_qubit", "max_fidelity_analytic", "min_error_analytic",
    "optimal_retransmission", "optimal_strategy_analytic", "optimize_error",
    "optimize_fidelity", "parse_strategy_document", "retransmission_colatitude",
    "save_strategy", "simulate_error", "simulate_fidelity", "simulate_strategy",
    "square_root_measurement", "symmetric_ensemble", "validate_pom",
]
