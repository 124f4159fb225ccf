"""Distributed primal-dual power allocation.

Each user ascends its own marginal utility minus the broadcast budget
price, while the receiver raises the price with the budget violation:

    dP_i/dt    = k_i * [U_i'(P_i) - lambda]  clamped to keep P_i in [0, p_u_i]
    dlambda/dt = g   * [sum(P) - p_sum_max]  clamped to keep lambda >= 0

integrated here with explicit Euler steps of unit virtual time, so k_i
and g are the literal per-iteration gains. Each step is projected onto
the feasible set, the powers onto [P_FLOOR, p_u] (the floor stands in
for P_i = 0) and the price onto lambda >= 0: the same state as clamping
the drive at a boundary, with Euler overshoot absorbed. The only
signalling is one price broadcast down and one power report per user up,
per step. As in that scheme, each user's update, U_i' included, and the
receiver's sum run on Python floats; sum(P) builds up left to right,
bit-identical to numpy's sum for N < 8 users (numpy sums pairwise from 8 on).

A user parked at its cap, P_i = p_u_i with lambda <= U_i'(p_u_i), keeps
p_u_i without evaluating U_i' again: U_i'(p_u_i) is computed once per run
by the step's own expression, and with k_i > 0 and U_i' - lambda >= 0 the
Euler step lands at or above p_u_i, where the projection puts it back.
The skip is exact, so the states are those of the full update bit for
bit; a parked user still reports its unchanged power, so the uplink count
stays N reports per step. The floor is not skipped: U_i' is large there.

The quadratic distance to the centralized optimum,

    V = 1/2 sum_i (P_i - P_i*)^2 / k_i + (lambda - lambda*)^2 / (2 g),

is non-increasing along the continuous flow, a convergence certificate
(up to explicit-Euler slack). A run records only its state (t, p, lambda)
every RECORD_EVERY steps and at its last step; the records' utility and V
are computed once the run ends.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .solver import P_FLOOR, Allocation, Scenario, solve_centralized
from .utility import utility

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
        k = np.asarray(self.k, dtype=float)
        if not np.all(np.isfinite(k) & (k > 0)):
            raise ValueError(f"primal gains k must be finite and > 0, got {self.k!r}")
        if not (math.isfinite(self.g) and self.g > 0):
            raise ValueError(f"dual gain g must be finite and > 0, got {self.g!r}")
        if not (math.isfinite(self.init_lambda) and self.init_lambda >= 0):
            raise ValueError(f"init_lambda must be finite and >= 0, got {self.init_lambda!r}")
        # an integral count: 1e3 is 1000, while 2.5, inf and True are errors
        steps = self.max_steps
        if isinstance(steps, float) and steps.is_integer():
            steps = int(steps)
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        object.__setattr__(self, "max_steps", int(steps))


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

    Each step runs on Python floats, U_i' included, and only a recorded
    state becomes an array. A user at its cap p_u_i whose U_i'(p_u_i),
    computed once before the first step, is at least the current price
    skips its update and keeps p_u_i: the full update gives the same float,
    since its step is non-negative (k_i > 0, U_i' - lambda >= 0) and the
    projection clips it back to p_u_i. A NaN U_i'(p_u_i) fails the test and
    takes the full update. A parked user still counts in messages_uplink,
    as it reports its unchanged power. Convergence is declared when the
    largest coordinate move (powers and price) in one step drops below
    TOL_EQ. A non-finite state raises FloatingPointError; testing sum(p)
    and lambda suffices, since a projected power is NaN or lies in
    [P_FLOOR, p_u] (an infinite drive is clipped to a bound; U_i' needs no
    p > 0 check), and a NaN power passes the projection's comparisons and
    makes the sum NaN.
    The Lyapunov monitor needs the centralized optimum and the box its caps;
    both come from the reference allocation, solved here when not supplied.
    """
    settings = settings or PdSettings()
    if reference is None:
        reference = solve_centralized(sc)
    p_u, p_star, lam_star = reference.p_u, reference.p, reference.lam
    k, g = settings.k, settings.g
    if np.ndim(k) > 1 or np.size(k) not in (1, p_u.size):
        raise ValueError(f"k has shape {np.shape(k)}, expected a scalar or {p_u.shape}")
    w, p_circuit, delta, p_sum_max = sc.w, sc.p_circuit, sc.delta, sc.p_sum_max

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

    # U_i' in utility_grad's operation order but with libm's log1p; the two
    # ifs are min(max(., P_FLOOR), p_u_i) without the calls, NaN passing both.
    # u_cap_i is U_i'(p_u_i) by the same expression, for the parked skip
    log1p, isfinite, floor = math.log1p, math.isfinite, P_FLOOR
    users = []
    for k_i, p_u_i, delta_i, p_c_i, c_i in np.column_stack(
            np.broadcast_arrays(k, p_u, delta, p_circuit, 1.0 - w)).tolist():
        total, dp = p_u_i + p_c_i, delta_i * p_u_i
        u_cap_i = (delta_i * total / ((1.0 + dp) * log1p(dp)) - c_i) / total
        users.append((k_i, p_u_i, delta_i, p_c_i, c_i, u_cap_i))
    x, p_sum = p.tolist(), float(p.sum())
    records = [(0, p, lam)]
    for t in range(1, settings.max_steps + 1):
        lam_next = lam + g * (p_sum - p_sum_max)
        lam_next = lam_next if lam_next > 0.0 else 0.0  # max(0.0, .), NaN to 0.0 too
        x_next, p_sum, motion = [], 0.0, abs(lam_next - lam)
        for x_i, (k_i, p_u_i, delta_i, p_c_i, c_i, u_cap_i) in zip(x, users):
            if x_i == p_u_i and lam <= u_cap_i:
                x_next.append(x_i)
                p_sum += x_i
                continue
            total, dp = x_i + p_c_i, delta_i * x_i
            u_i = (delta_i * total / ((1.0 + dp) * log1p(dp)) - c_i) / total
            x_i_next = x_i + k_i * (u_i - lam)
            if x_i_next < floor:
                x_i_next = floor
            if x_i_next > p_u_i:
                x_i_next = p_u_i
            x_next.append(x_i_next)
            p_sum += x_i_next
            move = x_i_next - x_i
            if move > motion:
                motion = move
            elif -move > motion:
                motion = -move
        if not (isfinite(p_sum) and isfinite(lam_next)):
            raise FloatingPointError("primal-dual state became non-finite; gains are likely too large")
        x, lam = x_next, lam_next
        if t % RECORD_EVERY == 0:
            records.append((t, np.array(x), lam))
        if motion <= TOL_EQ:
            break
    if t % RECORD_EVERY != 0:  # t is bound: PdSettings makes max_steps >= 1
        records.append((t, np.array(x), lam))

    t_rec, p_rec, lam_rec = (np.array(col) for col in zip(*records))
    return Trajectory(
        t=t_rec,
        p=p_rec,
        lam=lam_rec,
        total_utility=np.sum(utility(p_rec, w, p_circuit, delta), axis=1),
        v=lyapunov(p_rec, lam_rec, p_star, lam_star, settings),
        messages_uplink=sc.n_users * t,
        converged=motion <= TOL_EQ,
        steps_taken=t,
    )
