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
bit; a NaN U_i'(p_u_i) fails the test and takes the full update. A parked
user still reports its unchanged power, so the uplink count stays N per
step. The floor is not skipped: U_i' is large there.

The Euler loop is a kernel generated for the scenario's N users from one
U_i' fragment: its prologue puts U_i' at each cap, for the skip, and its
step holds N straight-line user blocks, each the same template with only
the user index put in, so no scenario data enters the source. Updating
each power in place is exact since user i's update reads only P_i and
lambda; each user block keeps its power from before the step. The budget
gap sum(P) - p_sum_max is computed once per step, for the step's tests and
the next step's price. A step that leaves sum(P) or lambda non-finite
raises FloatingPointError. A step that moves every P_i by at most
TOL_KKT k_i (k_i (U_i' - lambda) inside the box, 0 when parked), with
|lambda (sum(P) - p_sum_max)| <= TOL_KKT and sum(P) - p_sum_max <= TOL_KKT
(the certificate's comp_sum and sum_gap), runs the solver's certificate on
the state, and the run stops if the state passes. The steps run in blocks
of RECORD_EVERY, and a record ends each block and the run. Every
float operation keeps its expression and its order (U_i' with libm's log1p,
the floor clamp before the cap clamp, sum(P) as one addition per user in
index order), so the kernel computes what a loop over the users computes,
bit for bit, without the interpreter's per-user loop work. Building it
costs about 0.15 ms and 60 KiB of compiler memory per user.

The quadratic distance to the centralized optimum,

    V = 1/2 sum_i (P_i - P_i*)^2 / k_i + (lambda - lambda*)^2 / (2 g),

is non-increasing along the continuous flow (up to explicit-Euler slack):
a monitor, not the stop test, which a caller holding the optimum computes
with lyapunov. A run stores (t, p, lambda) and its certificate; counters and utility derive from them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import P_FLOOR, PdSettings, Scenario, _checked
from .solver import TOL_KKT, KktReport, _certificate, compute_pu

# Steps between two recorded states of a run.
RECORD_EVERY = 100


@dataclass
class Trajectory:
    """Decimated records of a run and its end state's KKT report; the read-only counters derive from them.

    The last record is always the final state: p[-1], lam[-1] at t[-1] = steps_taken.
    """

    t: np.ndarray               # recorded step indices
    p: np.ndarray               # shape (n_records, n_users)
    lam: np.ndarray
    kkt: KktReport              # the solver's certificate of the final state
    steps_taken = property(lambda self: int(self.t[-1]))  # also the number of price broadcasts
    messages_uplink = property(lambda self: self.p.shape[1] * self.steps_taken)  # power reports, N per step
    converged = property(lambda self: bool(self.kkt.max_residual <= TOL_KKT))


def lyapunov(p, lam, p_star, lam_star, settings: PdSettings):
    """Gain-weighted squared distance to the reference point (0 iff equal),
    one per state when p stacks R states as (R, N) and lam as (R,)."""
    p = np.asarray(p, dtype=float)
    dist_p = np.sum((p - np.asarray(p_star)) ** 2 / settings.k, axis=-1)
    return 0.5 * dist_p + (lam - lam_star) ** 2 / (2.0 * settings.g)


# U_i' at x, written once for the step (at x_i) and the prologue (at p_u_i,
# into u_cap_i): utility_grad's expression with libm's log1p.
_GRAD = ("{pad}total, dp = {x} + p_c{i}, delta{i} * {x}\n"
         "{pad}{u} = (delta{i} * total / ((1.0 + dp) * log1p(dp)) - c{i}) / total\n")
# Each block keeps P_i in o_i and updates x_i in place; p_sum starts at user
# 0's term (0.0 + x is x). The two ifs are min(max(., P_FLOOR), p_u_i) without
# the calls: each x_i lies in the box or is NaN, so p_sum < inf fails only on a NaN.
_USER = """\
            o{i} = x{i}
            if not (x{i} == p_u{i} and lam <= u_cap{i}):
{grad}                x{i} = x{i} + k{i} * (u - lam)
                if x{i} < floor:
                    x{i} = floor
                if x{i} > p_u{i}:
                    x{i} = p_u{i}
            p_sum {add}= x{i}
"""
_LOOP = """\
def euler(users, x, lam, gap, g, p_sum_max, max_steps, records, certificate):
    log1p, inf, floor, array = math.log1p, math.inf, P_FLOOR, np.array
    {consts}= users
    {xs}, = x
{caps}    for start in range(0, max_steps, RECORD_EVERY):
        for t in range(start + 1, min(start + RECORD_EVERY, max_steps) + 1):
{users}            lam = lam + g * gap  # after the users, who read the last price
            lam = lam if lam > 0.0 else 0.0  # max(0.0, .), NaN to 0.0 too
            gap = p_sum - p_sum_max
            if not (p_sum < inf and lam < inf):
                raise FloatingPointError("primal-dual state became non-finite; gains are likely too large")
            if ({stop}
                    and (kkt := certificate(array([{xs}]), lam)).max_residual <= TOL_KKT):
                records.append((t, array([{xs}]), lam))
                return t, kkt
        records.append((t, array([{xs}]), lam))
    return t, kkt if {stop} else certificate(array([{xs}]), lam)  # the last step's report, if its stop rule made one
"""


@functools.lru_cache(maxsize=8)  # kernels kept built, one per user count
def _kernel(n: int):
    """The Euler loop for n users, compiled at the first run with n users."""
    # one unpacking statement each for the constants and the powers: it
    # compiles in less memory than a statement per user
    src = _LOOP.format(
        consts="".join(f"k{i}, p_u{i}, delta{i}, p_c{i}, c{i}, tol{i}, " for i in range(n)),
        caps="".join(_GRAD.format(i=i, x=f"p_u{i}", u=f"u_cap{i}", pad=" " * 4) for i in range(n)),
        users="".join(_USER.format(i=i, add="+" if i else "", grad=_GRAD.format(i=i, x=f"x{i}", u="u", pad=" " * 16))
                      for i in range(n)),
        stop="gap <= TOL_KKT and -TOL_KKT <= lam * gap <= TOL_KKT"
             + "".join(f" and -tol{i} <= x{i} - o{i} <= tol{i}" for i in range(n)),
        xs=", ".join(f"x{i}" for i in range(n)),
    )
    namespace = {}
    exec(compile(src, f"<primal-dual kernel, {n} users>", "exec"), globals(), namespace)
    return namespace["euler"]


def integrate(sc: Scenario, settings: PdSettings | None = None) -> Trajectory:
    """Run the primal-dual dynamics until the state is certified; return the Trajectory.

    settings defaults to PdSettings(). Each cap p_u is compute_pu's per-user
    closed form, so the run solves no centralized problem. Raises ValueError
    for a k neither scalar nor per user or an init_p of another shape or
    outside (0, p_u], and FloatingPointError once the state is non-finite.
    """
    settings = settings or PdSettings()
    n, g, lam = sc.n_users, settings.g, settings.init_lambda
    k = _checked("k", settings.k, (n,))
    p_u = compute_pu(sc)
    w, p_circuit, delta, p_sum_max = sc.w, sc.p_circuit, sc.delta, sc.p_sum_max

    if settings.init_p is None:
        p = 0.5 * p_u
    else:
        p = _checked("init_p", settings.init_p, (n,))
        i = np.argmax(p > p_u)  # the first user above its cap, else user 0
        if p[i] > p_u[i]:
            raise ValueError(f"init_p must lie in (0, p_u], got {p[i]} > p_u {p_u[i]} at user {i + 1}")
    p = np.clip(p, P_FLOOR, p_u)

    users = np.column_stack(np.broadcast_arrays(k, p_u, delta, p_circuit, 1.0 - w, TOL_KKT * k)).ravel().tolist()
    records = [(0, p, lam)]
    t, kkt = _kernel(n)(users, p.tolist(), lam, float(p.sum()) - p_sum_max, g, p_sum_max, settings.max_steps, records,
                        lambda x, lam: _certificate(w, p_circuit, delta, p_sum_max, x, p_u, lam))

    t_rec, p_rec, lam_rec = (np.array(col) for col in zip(*records))
    return Trajectory(t=t_rec, p=p_rec, lam=lam_rec, kkt=kkt)
