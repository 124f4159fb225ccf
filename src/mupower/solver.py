"""Centralized optimal power allocation.

The non-convex sum-utility problem is solved by tightening each user's box
to the cap p_u_i at which the individual utility peaks (unique because
beta is strictly decreasing), which makes the objective separable and
strictly concave on the shrunken box [P_FLOOR, p_u]:

  * if the caps fit the system budget, the caps are the optimum;
  * otherwise the optimum lies on the slice sum(p) = p_sum_max, where the
    interior users share one marginal utility U' = lambda (the budget
    price) and users at a bound have their marginal on the bound's side.

Since U'(p) = [beta(p) - (1 - w)] / (p + pc), a cap is the root of beta(p) =
1 - w, the single-link EE optimum (Miao, Himayat & Li, IEEE Trans. Commun. 2010;
Isheden, Chong, Jorswieck & Fettweis, IEEE Trans. Wireless Commun. 2012). With
x = 1 + delta p and c = 1 - w > 0 it solves x (c ln x - 1) = delta pc - 1, and
z = ln x - 1/c gives z e^z = a = ((delta pc - 1) / c) e^(-1/c) >= -1/e. As the left
side, c z e^(z + 1/c), is -1 at x = 1, falls until z = -1 and rises after, and the
right side exceeds -1, the root with p > 0 has z > -1: ln x = 1/c + W0(a), on the
principal branch (_caps; branch-point series: Corless et al., Adv. Comput. Math. 1996).

A budget-tight row is then solved by the projected Newton method of
Bertsekas ("Projected Newton methods for optimization problems with
simple constraints", SIAM J. Control Optim. 20(2), 1982) applied to its
KKT system, with no inner root solved per price.

The solver works on a batch: B scenarios that share their users' circuit
powers, power limits and budget and differ row by row in w or delta, held
as (B, N) arrays. The caps of every row are found at once, and the
budget-tight rows iterate together, each stopping on its own. A row's
result depends only on that row, so solve_centralized is the B = 1 case.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .scenario import P_FLOOR, Scenario, _checked
from .utility import _beta, _beta_prime, utility_grad, utility_hess

# Largest KKT residual a returned allocation may have.
TOL_KKT = 1e-8
# Iteration budget of the projected Newton solve of a budget-tight row.
_MAX_ITER = 100_000

_EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """An iterative stage exhausted its budget or failed its certificate."""


class BudgetCase(enum.Enum):
    """Whether the system power budget binds at the optimum."""

    SUM_SLACK = "sum_slack"
    SUM_TIGHT = "sum_tight"


@dataclass
class KktReport:
    """Residuals of the first-order optimality system at an allocation.

    Multipliers are reconstructed from (p, p_u, lambda): mu for the lower
    bounds (active when p sits at the arithmetic floor), nu for the caps.
    Per-user terms have shape (N,) for one allocation and (B, N) for a
    batch; the budget terms are one value per allocation.
    """

    stationarity: np.ndarray         # |U' + mu - nu - lambda| per user
    scaled_stationarity: np.ndarray  # stationarity / max(1, lambda)
    comp_lower: np.ndarray           # |mu * (p - P_FLOOR)|
    comp_upper: np.ndarray           # |nu * (p - p_u)|
    comp_sum: float                  # |lambda * (sum p - p_sum_max)|
    box_gap: np.ndarray              # violation of 0 <= p <= p_u
    sum_gap: float                   # violation of sum p <= p_sum_max
    mu: np.ndarray
    nu: np.ndarray

    @property
    def max_residual(self):
        """The largest residual: a float, or one per row for a batch."""
        worst = np.maximum(self.comp_sum, self.sum_gap)
        for per_user in (self.stationarity, self.comp_lower, self.comp_upper, self.box_gap):
            worst = np.maximum(worst, per_user.max(axis=-1))  # no (4, B, N) stack
        return worst


@dataclass
class Diagnostics:
    """What a solve did: its KKT certificate and one iteration count.

    refine_evaluations counts the projected-Newton iterations of a
    budget-tight row, and is 0 when the budget has slack (the caps have a
    closed form). In a batch each field has a leading row axis. An
    allocation's SE, EE and utilities are not kept here: they follow from
    its powers (utility.se, utility.ee, utility.utility).
    """

    kkt: KktReport
    refine_evaluations: int


@dataclass
class Allocation:
    """Solver output: powers, caps, budget price and diagnostics.

    Solver-produced instances satisfy P_FLOOR <= p <= p_u <= p_max and
    sum(p) <= p_sum_max (tight in the SUM_TIGHT case). The container does
    not enforce this so that hand-built points can be fed to the KKT
    checker. solve_batch returns one allocation per row in one instance
    whose fields are arrays with a leading row axis (lam: one price per
    row; case: an array of BudgetCase).
    """

    p: np.ndarray
    p_u: np.ndarray
    lam: float
    case: BudgetCase
    diagnostics: Diagnostics | None = None


def _row(obj, i):
    """Row i of a batched Allocation, Diagnostics or KktReport."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return type(obj)(**{k: _row(v, i) if is_dataclass(v) else v[i] for k, v in values.items()})


def _caps(w, pc, delta, p_max):
    """Each user's cap: the root of beta(p) = 1 - w, clipped to [P_FLOOR, p_max].

    ln x = s + v with s = w / c = 1/c - 1, v = 1 + W0(a), b = e a. v starts from
    the series in q = sqrt(2 (1 + b)) if q < 0.7, else from Winitzki's form. Three
    Halley steps follow where q >= 1e-3 (below it the rounding of b outweighs the
    series' error), then one Newton step on beta inside the box; w = 1 gives p_max.
    """
    live = w < 1.0
    s = w / np.where(live, 1.0 - w, 1.0)
    es, dpc = np.exp(-s), delta * pc
    b = (dpc - 1.0) * (1.0 + s) * es
    # 1 + b = [1 - (1 + s) e^-s] + dpc (1 + s) e^-s, a sum of two terms >= 0
    q = np.sqrt(2.0 * (-np.expm1(-s) - s * es + dpc * (1.0 + s) * es))
    lg = np.log1p(b / np.e)
    v = np.where(q < 0.7, q * (1 + q * (q * (11 / 72) - 1 / 3)), 1 + lg - lg * np.log1p(lg) / (2 + lg))
    far = q >= 1e-3
    vf, bf = v[far], b[far]
    for _ in range(3):
        # with r = 1 + a e^-z and g = z - a e^-z = v - r, Halley's step on g
        r = 1.0 + bf * np.exp(-vf)
        g = vf - r
        vf = vf - 2.0 * g * r / (2.0 * r * r + g * (r - 1.0))
    v[far] = vf
    top = np.log1p(delta * p_max)
    log_x = np.where(live, s + v, np.inf)
    p = np.clip(np.where(log_x < top, np.expm1(np.minimum(log_x, top)) / delta, p_max), P_FLOOR, p_max)
    i = (P_FLOOR < p) & (p < p_max)
    pi, args = p[i], (pc[i], delta[i])
    p[i] = np.clip(pi - (_beta(pi, *args) - (1.0 - w[i])) / _beta_prime(pi, *args), P_FLOOR, p_max[i])
    return p


def compute_pu(sc: Scenario) -> np.ndarray:
    """Individually optimal power caps, one per user (an (N,) array).

    User i keeps p_max_i when its weight exceeds 1 - beta_i(p_max_i);
    otherwise its cap is the peak of its utility, where beta_i = 1 - w_i.
    """
    return _caps(sc.w, sc.p_circuit, sc.delta, sc.p_max)


def _projected_newton(w, pc, delta, p_u, budget):
    """(p, lam, iterations) of budget-tight rows: arrays (T, N), budget (T,).

    Users whose marginal U' points out of the box at a bound are held there;
    U'' is diagonal, so the free users' joint Newton step on U'(p) = lambda,
    sum(p) = budget has a closed form. A step at most halves a power. Once a
    row stops, its price is the midpoint of its interior marginals, and each
    interior power moves to the float within 8 ulps whose U' is nearest it.
    """
    p = p_u * (budget / p_u.sum(axis=1))[:, None]
    lam = np.full(len(p), np.nan)
    iters = np.zeros(len(p), dtype=np.int64)
    r = np.arange(len(p))
    pr, last = p, np.full(len(p), np.inf)
    for k in range(1, _MAX_ITER + 1):
        args, caps, lam_r = (w[r], pc[r], delta[r]), p_u[r], lam[r]
        g, h = utility_grad(pr, *args), utility_hess(pr, *args)
        # +1 at the cap, -1 at the floor: held while (U' - lambda) * side > 0
        side = (pr >= caps) * 1.0 - (pr <= P_FLOOR)
        held = (g - lam_r[:, None]) * side > 0
        inv = np.where(held, 0.0, 1.0 / h)
        den = inv.sum(axis=1)
        num = budget[r] - pr.sum(axis=1) + (g * inv).sum(axis=1)
        lam[r] = lam_r = np.divide(num, den, out=lam_r, where=den < 0)
        settled = (held == ((g - lam_r[:, None]) * side > 0)).all(axis=1)
        new = np.minimum(np.maximum(pr + (lam_r[:, None] - g) * inv, np.maximum(P_FLOOR, 0.5 * pr)), caps)
        rel = np.max(np.abs(new - pr) / new, axis=1)
        p[r] = pr = new
        stop = settled & ((rel <= 4 * _EPS) | ((rel < 1e-10) & (rel >= last)))
        iters[r[stop]] = k
        go = ~stop
        r, pr, last = r[go], pr[go], rel[go]
        if not r.size:
            break
    else:
        raise ConvergenceError(f"projected Newton exhausted {_MAX_ITER} iterations")
    g = utility_grad(p, w, pc, delta)
    inner = (P_FLOOR < p) & (p < p_u)
    top = np.max(np.where(inner, g, -np.inf), axis=1)
    mid = 0.5 * (top + np.min(np.where(inner, g, top[:, None]), axis=1))
    lam = np.where(inner.any(axis=1), mid, np.max(np.where(p <= P_FLOOR, g, -np.inf), axis=1))
    ulps = np.arange(-8, 9)
    near = np.clip(p[..., None] + ulps * np.spacing(p)[..., None], P_FLOOR, p_u[..., None])
    gaps = np.abs(utility_grad(near, w[..., None], pc[..., None], delta[..., None]) - lam[:, None, None])
    best = np.take_along_axis(near, gaps.argmin(axis=-1)[..., None], axis=-1)[..., 0]
    return np.where(inner, best, p), lam, iters


def _certificate(w, pc, delta, budget, p, p_u, lam) -> KktReport:
    """KKT residuals of allocations stacked on a leading axis (or of one)."""
    grad = utility_grad(p, w, pc, delta)
    scale = np.maximum(1.0, p_u)
    at_lower = (p - P_FLOOR) <= 1e-10 * scale
    at_upper = (p_u - p) <= 1e-10 * scale
    lam_u = np.asarray(lam)[..., None]
    mu = np.where(at_lower, np.maximum(0.0, lam_u - grad), 0.0)
    nu = np.where(at_upper, np.maximum(0.0, grad - lam_u), 0.0)
    total = np.sum(p, axis=-1)
    stationarity = np.abs(grad + mu - nu - lam_u)
    return KktReport(
        stationarity=stationarity,
        scaled_stationarity=stationarity / np.maximum(1.0, lam_u),
        comp_lower=np.abs(mu * (p - P_FLOOR)),
        comp_upper=np.abs(nu * (p - p_u)),
        comp_sum=np.abs(lam * (total - budget)),
        box_gap=np.maximum(np.maximum(p - p_u, -p), 0.0),
        sum_gap=np.maximum(0.0, total - budget),
        mu=mu,
        nu=nu,
    )


def kkt_residuals(sc: Scenario, alloc: Allocation) -> KktReport:
    """Residuals of the optimality system at an (arbitrary) allocation."""
    p = np.asarray(alloc.p, dtype=float)
    p_u = np.asarray(alloc.p_u, dtype=float)
    return _certificate(sc.w, sc.p_circuit, sc.delta, sc.p_sum_max, p, p_u, float(alloc.lam))


def solve_batch(sc: Scenario, w=None, delta=None) -> Allocation:
    """Optimal power allocations of B variants of a scenario, KKT-certified.

    w and delta, when given, are (B, N) arrays that replace the scenario's
    weights or gains row by row; they are checked by the scenario's rules.
    Without either, B = 1. Returns the rows as one batched Allocation.
    Raises ConvergenceError naming the first row whose KKT residual exceeds
    TOL_KKT.
    """
    n = sc.n_users
    shape = next(((len(a), n) for a in (w, delta) if a is not None), (1, n))
    w = np.broadcast_to(sc.w, shape) if w is None else _checked("w", w, shape)
    delta = np.broadcast_to(sc.delta, shape) if delta is None else _checked("delta", delta, shape)
    pc, p_max = (np.broadcast_to(a, shape) for a in (sc.p_circuit, sc.p_max))
    budget = np.full(shape[0], sc.p_sum_max)

    p_u = _caps(w, pc, delta, p_max)
    p, lam = p_u.copy(), np.zeros(shape[0])
    iterations = np.zeros(shape[0], dtype=np.int64)
    tight = ~(p_u.sum(axis=1) <= budget)
    t = np.flatnonzero(tight)
    if t.size:
        p[t], lam[t], iterations[t] = _projected_newton(w[t], pc[t], delta[t], p_u[t], budget[t])

    kkt = _certificate(w, pc, delta, budget, p, p_u, lam)
    worst = kkt.max_residual
    bad = np.flatnonzero(~(worst <= TOL_KKT))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(
            f"row {i}: KKT residual {worst[i]:.3e} exceeds TOL_KKT {TOL_KKT:.1e} "
            f"(stationarity {kkt.stationarity[i].max():.3e}, "
            f"scaled {kkt.scaled_stationarity[i].max():.3e})"
        )
    case = np.where(tight, BudgetCase.SUM_TIGHT, BudgetCase.SUM_SLACK)
    return Allocation(p=p, p_u=p_u, lam=lam, case=case, diagnostics=Diagnostics(kkt, iterations))


def solve_centralized(sc: Scenario) -> Allocation:
    """solve_batch's one-row case: the optimal allocation of sc, KKT-certified."""
    return _row(solve_batch(sc), 0)
