"""Fairness and summary metrics over solved allocations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import Allocation, Scenario
from .utility import utility


@dataclass
class FairnessReport:
    """Jain index over exponentiated utilities plus the raw ingredients."""

    jain: float
    per_user_utility: np.ndarray
    per_user_exp_utility: np.ndarray
    total_utility: float


def jain_index(utilities) -> float:
    """Jain fairness of exp(U_i): [sum exp(U)]^2 / (N * sum exp(U)^2).

    Lies in [1/N, 1]; equals 1 iff all exp(U_i) coincide. Computed on the
    max-shifted utilities, which leaves the index unchanged and cannot
    overflow.
    """
    u = np.atleast_1d(np.asarray(utilities, dtype=float))
    if not np.all(np.isfinite(u)):
        raise ValueError("utilities must be finite")
    x = np.exp(u - np.max(u))
    return float(np.sum(x) ** 2 / (u.size * np.sum(x**2)))


def summarize(sc: Scenario, alloc: Allocation) -> FairnessReport:
    """Recompute per-user utilities from the powers alone and aggregate."""
    p = np.asarray(alloc.p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("allocation has non-positive powers")
    utilities = utility(p, sc.w, sc.p_circuit, sc.delta)
    return FairnessReport(
        jain=jain_index(utilities),
        per_user_utility=utilities,
        per_user_exp_utility=np.exp(utilities),
        total_utility=float(np.sum(utilities)),
    )

