"""Utility-maximizing power allocation for uplink multi-user MIMO.

Combines the spectral/energy-efficiency tradeoff (per-user preference
weights) with proportional fairness, and solves the resulting allocation
problem two ways: a centralized convexization solver and a distributed
primal-dual integration, both with full KKT / Lyapunov verification
instrumentation.
"""

from .channel import (
    SingularGramError,
    compute_effective_gains,
    gains_from_db,
    load_channel_csv,
)
from .metrics import jain_index, summarize
from .primal_dual import PdSettings, Trajectory, integrate
from .scenario import LoadedScenario, build_scenario, load_scenario
from .solver import (
    Allocation,
    BudgetCase,
    ConvergenceError,
    Scenario,
    compute_pu,
    kkt_residuals,
    solve_centralized,
)
from .utility import ee, se, utility, utility_grad, utility_hess

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BudgetCase",
    "ConvergenceError",
    "LoadedScenario",
    "PdSettings",
    "Scenario",
    "SingularGramError",
    "Trajectory",
    "build_scenario",
    "compute_effective_gains",
    "compute_pu",
    "ee",
    "gains_from_db",
    "integrate",
    "jain_index",
    "kkt_residuals",
    "load_channel_csv",
    "load_scenario",
    "se",
    "solve_centralized",
    "summarize",
    "utility",
    "utility_grad",
    "utility_hess",
]
