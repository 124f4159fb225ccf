"""Distributed primal-dual power allocation.

Each user ascends its own marginal utility minus the broadcast budget
price, while the receiver raises the price with the budget violation:

    dP_i/dt    = k_i * [U_i'(P_i) - lambda]  clamped to keep P_i in [0, p_u_i]
    dlambda/dt = g   * [sum(P) - p_sum_max]  clamped to keep lambda >= 0

integrated here with explicit Euler steps of unit virtual time, each
projected back onto that set, so k_i and g are the literal per-iteration
gains. The only signalling is one price broadcast down and one power
report per user up, per step.

The quadratic distance to the centralized optimum,

    V = 1/2 sum_i (P_i - P_i*)^2 / k_i + (lambda - lambda*)^2 / (2 g),

is non-increasing along the continuous flow, a convergence certificate
(up to explicit-Euler slack). A run records only its state (t, p, lambda)
every RECORD_EVERY steps and at its last step; the records' utility and V
are computed once the run ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import P_FLOOR, Allocation, Scenario, solve_centralized
from .utility import utility, utility_grad

# Convergence: the largest per-step move of any power or of the price.
TOL_EQ = 1e-10
# Steps between two recorded states of a run.
RECORD_EVERY = 100


@dataclass(frozen=True)
class PdSettings:
    """Gains, start and step budget for the primal-dual integrator.

    k may be a scalar (broadcast over users) or a per-user vector;
    init_p defaults to half the individual caps when left as None. A run
    stops when no coordinate moves more than TOL_EQ in one step, or after
    max_steps steps; its state is recorded every RECORD_EVERY steps.
    """

    k: float | np.ndarray = 1e-3
    g: float = 1e-3
    init_p: np.ndarray | None = None
    init_lambda: float = 0.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not np.all(np.asarray(self.k) > 0):
            raise ValueError("primal gains k must be > 0")
        if not self.g > 0:
            raise ValueError("dual gain g must be > 0")
        if not self.init_lambda >= 0:
            raise ValueError("init_lambda must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class Trajectory:
    """Decimated time series of the integration plus overhead counters.

    The last record is always the final state: p[-1], lam[-1] at t[-1] = steps_taken.
    """

    t: np.ndarray               # recorded step indices
    p: np.ndarray               # shape (n_records, n_users)
    lam: np.ndarray
    total_utility: np.ndarray
    v: np.ndarray               # Lyapunov distance to the centralized optimum
    messages_uplink: int        # power reports = n_users * steps taken
    converged: bool
    steps_taken: int            # also the number of price broadcasts


def step(state, sc: Scenario, p_u: np.ndarray, settings: PdSettings):
    """One explicit-Euler step of the primal-dual dynamics.

    The Euler update is projected onto the feasible set: the powers onto
    [P_FLOOR, p_u] (the floor stands in for p = 0) and the price onto
    lambda >= 0. This gives the same state as clamping the drive at a
    boundary and also absorbs Euler overshoot. Costs one price broadcast
    plus one power report per user.

    Finiteness is tested on max(p_new) and lambda_new alone: a projected
    power lies in [P_FLOOR, p_u] unless it is NaN (an infinite drive is
    clipped to a bound), and max propagates NaN, so this is the same test
    as isfinite on every entry. A k whose shape broadcasts the powers to
    another shape raises ValueError.
    """
    p, lam = state
    drive = utility_grad(p, sc.w, sc.p_circuit, sc.delta) - lam
    p_new = np.minimum(np.maximum(p + settings.k * drive, P_FLOOR), p_u)
    if p_new.shape != p.shape:
        raise ValueError(f"k has shape {np.shape(settings.k)}, expected a scalar or {p.shape}")
    lam_new = max(0.0, lam + settings.g * (float(p.sum()) - sc.p_sum_max))
    if not (math.isfinite(p_new.max()) and math.isfinite(lam_new)):
        raise FloatingPointError(
            "primal-dual state became non-finite; gains are likely too large"
        )
    return p_new, lam_new


def lyapunov(p, lam, p_star, lam_star, settings: PdSettings):
    """Gain-weighted squared distance to the reference point (0 iff equal).

    The users lie on the last axis of p. One state gives a float; states
    stacked as p of shape (R, N) and lam of shape (R,) give R distances.
    """
    p = np.asarray(p, dtype=float)
    k = np.broadcast_to(np.asarray(settings.k, dtype=float), p.shape)
    dist_p = np.sum((p - np.asarray(p_star)) ** 2 / k, axis=-1)
    v = 0.5 * dist_p + (lam - lam_star) ** 2 / (2.0 * settings.g)
    return v if v.ndim else float(v)


def integrate(
    sc: Scenario,
    settings: PdSettings | None = None,
    reference: Allocation | None = None,
) -> Trajectory:
    """Run the primal-dual dynamics until per-step motion dies out.

    Convergence is declared when the largest coordinate move (powers and
    price) in one step drops below TOL_EQ. The Lyapunov monitor needs the
    centralized optimum and the box needs its caps; both come from the
    reference allocation, which is solved internally when not supplied.
    """
    settings = settings or PdSettings()
    if reference is None:
        reference = solve_centralized(sc)
    p_u, p_star, lam_star = reference.p_u, reference.p, reference.lam
    k = np.asarray(settings.k)
    if k.ndim > 1 or k.size not in (1, p_u.size):
        raise ValueError(f"k has shape {k.shape}, expected a scalar or {p_u.shape}")

    if settings.init_p is None:
        p = 0.5 * p_u
    else:
        p = np.array(settings.init_p, dtype=float)
        if p.shape != p_u.shape:
            raise ValueError(f"init_p has shape {p.shape}, expected {p_u.shape}")
        if not np.all((p > 0) & (p <= p_u)):
            raise ValueError("init_p must lie in (0, p_u]")
    p = np.clip(p, P_FLOOR, p_u)
    lam = float(settings.init_lambda)

    # step returns a new p every call, so a record never aliases the state
    records = [(0, p, lam)]
    converged = False
    steps = 0
    for t in range(1, settings.max_steps + 1):
        p_next, lam_next = step((p, lam), sc, p_u, settings)
        motion = max(float(abs(p_next - p).max()), abs(lam_next - lam))
        p, lam = p_next, lam_next
        steps = t
        if t % RECORD_EVERY == 0:
            records.append((t, p, lam))
        if motion <= TOL_EQ:
            converged = True
            break
    if steps % RECORD_EVERY != 0:
        records.append((steps, p, lam))

    t_rec, p_rec, lam_rec = (np.array(col) for col in zip(*records))
    return Trajectory(
        t=t_rec,
        p=p_rec,
        lam=lam_rec,
        total_utility=np.sum(utility(p_rec, sc.w, sc.p_circuit, sc.delta), axis=1),
        v=lyapunov(p_rec, lam_rec, p_star, lam_star, settings),
        messages_uplink=sc.n_users * steps,
        converged=converged,
        steps_taken=steps,
    )
