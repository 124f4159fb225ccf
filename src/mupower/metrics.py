"""Fairness and summary metrics of allocations.

The solver returns powers and a certificate; an allocation's utilities,
their total and its Jain index are computed here, from the powers alone.
"""
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
    total_utility: float


def jain_index(utilities):
    """Jain fairness of exp(U_i): [sum exp(U)]^2 / (N * sum exp(U)^2).

    The users lie on the last axis: one set of utilities gives a float,
    sets stacked as (B, N) give B indices. Lies in [1/N, 1]; equals 1 iff
    all exp(U_i) coincide. Computed on the max-shifted utilities, which
    leaves the index unchanged and cannot overflow.
    """
    u = np.atleast_1d(np.asarray(utilities, dtype=float))
    if not np.all(np.isfinite(u)):
        raise ValueError("utilities must be finite")
    x = np.exp(u - np.max(u, axis=-1, keepdims=True))
    # s * s, not s ** 2: a numpy scalar squares through pow, an array does not
    s = np.sum(x, axis=-1)
    j = s * s / (u.shape[-1] * np.sum(x * x, axis=-1))
    return j if j.ndim else float(j)


def summarize(sc: Scenario, alloc: Allocation) -> FairnessReport:
    """Per-user utilities from the powers alone, their total and Jain index."""
    utilities = utility(alloc.p, sc.w, sc.p_circuit, sc.delta)
    return FairnessReport(
        jain=jain_index(utilities),
        per_user_utility=utilities,
        total_utility=float(np.sum(utilities)),
    )
