"""Centralized optimal power allocation.

The non-convex sum-utility problem is solved by tightening each user's box
to the cap p_u_i at which the individual utility peaks (unique because
beta is strictly decreasing), which makes the objective strictly concave
on the shrunken box:

  * if the caps fit the system budget, the caps are the optimum;
  * otherwise the optimum lies on the slice sum(p) = p_sum_max. Each user's
    power at a budget price lambda solves U' = lambda on the box, and the
    price is the root of sum(p(lambda)) = p_sum_max, found by safeguarded
    Newton steps with dsum(p)/dlambda = sum over interior users of 1 / U''.

Since U'(p) = [beta(p) - (1 - w)] / (p + pc), both per-user problems are
one root: the power at price lambda is the root of
beta(p) - (1 - w) - lambda (p + pc), and the cap is its lambda = 0 case.

Every solve is certified against the KKT system before it is returned.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .channel import EffectiveGains
from .utility import (
    _beta,
    _beta_prime,
    ee,
    se,
    utility,
    utility_grad,
    utility_hess,
)

# Arithmetic floor standing in for p = 0 (W); the lower bound of every power.
P_FLOOR = 1e-9
# Largest KKT residual a returned allocation may have.
TOL_KKT = 1e-8
# |beta - (1 - w)| at the cap root.
_TOL_ROOT = 1e-12
# Iteration budget of every root search.
_MAX_ITER = 100_000
# Stop of the price search: |sum p - p_sum_max| relative to the budget.
# Any leftover is spread over the interior users afterwards.
_PRICE_TOL = 1e-12

_EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """An iterative stage exhausted its budget or failed its certificate."""


class BudgetCase(enum.Enum):
    """Whether the system power budget binds at the optimum."""

    SUM_SLACK = "sum_slack"
    SUM_TIGHT = "sum_tight"


@dataclass(frozen=True, eq=False)
class Scenario:
    """A problem instance: per-user vectors, their gains and the budget (W).

    w (SE/EE preference weight in [0, 1]), p_circuit and p_max (W) hold one
    entry per user; scalars broadcast to N = len(gains). gains may be an
    EffectiveGains or a raw sequence of linear gains (1/W). The vectors are
    validated and stored as read-only float arrays, so
    dataclasses.replace(sc, w=...) yields a checked variant. The budget
    must cover every user at the floor: p_sum_max >= N * P_FLOOR.
    Scenarios compare and hash by identity. The solver's tolerances are
    module constants, not part of a scenario.
    """

    w: np.ndarray
    p_circuit: np.ndarray
    p_max: np.ndarray
    gains: EffectiveGains
    p_sum_max: float

    def __post_init__(self):
        gains = self.gains if isinstance(self.gains, EffectiveGains) else EffectiveGains(self.gains)
        object.__setattr__(self, "gains", gains)
        n = len(gains)
        for name, rule, ok in (
            ("w", "lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
            ("p_circuit", "be > 0", lambda v: v > 0.0),
            ("p_max", "be > 0", lambda v: v > 0.0),
        ):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.size not in (1, n) or value.ndim > 1:
                raise ValueError(f"{name} has {value.size} entries but there are {n} effective gains")
            arr = np.broadcast_to(value, (n,)).copy()
            bad = ~(np.isfinite(arr) & ok(arr))
            if bad.any():
                raise ValueError(f"{name} must {rule}, got {arr[bad][0]}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (np.isfinite(self.p_sum_max) and self.p_sum_max > 0):
            raise ValueError(f"p_sum_max must be > 0, got {self.p_sum_max}")
        if self.p_sum_max < n * P_FLOOR:
            raise ValueError(
                f"p_sum_max {self.p_sum_max} is below n_users * p_floor = {n * P_FLOOR}"
            )
        object.__setattr__(self, "p_sum_max", float(self.p_sum_max))

    @property
    def n_users(self) -> int:
        return len(self.gains)

    @property
    def delta(self) -> np.ndarray:
        return self.gains.delta


@dataclass
class KktReport:
    """Residuals of the first-order optimality system at an allocation.

    Multipliers are reconstructed from (p, p_u, lambda): mu for the lower
    bounds (active when p sits at the arithmetic floor), nu for the caps.
    """

    stationarity: np.ndarray     # |U' + mu - nu - lambda| per user
    comp_lower: np.ndarray       # |mu * (p - P_FLOOR)|
    comp_upper: np.ndarray       # |nu * (p - p_u)|
    comp_sum: float              # |lambda * (sum p - p_sum_max)|
    box_gap: np.ndarray          # violation of 0 <= p <= p_u
    sum_gap: float               # violation of sum p <= p_sum_max
    mu: np.ndarray
    nu: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(
            max(
                self.stationarity.max(),
                self.comp_lower.max(),
                self.comp_upper.max(),
                self.comp_sum,
                self.box_gap.max(),
                self.sum_gap,
            )
        )


@dataclass
class Diagnostics:
    """Per-user quality measures plus solver effort counters.

    newton_iterations counts cap-root evaluations per user. In the
    budget-tight case price_iterations counts the prices at which the
    powers were evaluated (bracket ends included) and refine_evaluations
    the root evaluations spent finding the powers at those prices; both
    are 0 when the budget has slack.
    """

    se: np.ndarray
    ee: np.ndarray
    utilities: np.ndarray
    total_utility: float
    kkt: KktReport
    newton_iterations: np.ndarray
    price_iterations: int
    refine_evaluations: int


@dataclass
class Allocation:
    """Solver output: powers, caps, budget price and diagnostics.

    Solver-produced instances satisfy P_FLOOR <= p <= p_u <= p_max and
    sum(p) <= p_sum_max (tight in the SUM_TIGHT case). The container does
    not enforce this so that hand-built points can be fed to the KKT
    checker.
    """

    p: np.ndarray
    p_u: np.ndarray
    lam: float
    case: BudgetCase
    diagnostics: Diagnostics | None = None


def _bracketed_newton(fdf, lo, hi, tol_f, max_iter):
    """Root of a strictly decreasing f, clipped to [lo, hi].

    fdf(x) returns (f(x), f'(x)). Returns hi when f(hi) >= -tol_f and lo
    when f(lo) <= 0; otherwise takes Newton steps with the analytic
    derivative, falling back to bisection whenever a step leaves the
    current bracket. The returned point is always the last one passed to
    fdf. Returns (root, n_evals).
    """
    if fdf(hi)[0] >= -tol_f:
        return hi, 1
    if fdf(lo)[0] <= 0:
        return lo, 2
    evals = 2
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx, d = fdf(x)
        evals += 1
        if abs(fx) <= tol_f:
            return x, evals
        if fx > 0:
            lo = x
        else:
            hi = x
        step_ok = d < 0
        if step_ok:
            x_new = x - fx / d
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if x_new == x or hi - lo <= _EPS * max(abs(lo), abs(hi)):
            return x, evals
        x = x_new
    raise ConvergenceError(f"root finder exhausted {max_iter} iterations")


def _power_at_price(lam, w, pc, delta, lo, hi, tol, max_iter):
    """One user's power at budget price lam >= 0, clipped to [lo, hi].

    The root of beta(p) - (1 - w) - lam (p + pc), which is (p + pc) times
    U'(p) - lam and strictly decreasing with slope beta'(p) - lam. At
    lam = 0 this is the cap root beta(p) = 1 - w. Returns (root, n_evals)
    from _bracketed_newton.
    """
    target = 1.0 - w
    return _bracketed_newton(
        lambda p: (_beta(p, pc, delta) - target - lam * (p + pc), _beta_prime(p, pc, delta) - lam),
        lo,
        hi,
        tol,
        max_iter,
    )


def compute_pu(sc: Scenario):
    """Individually optimal power caps, one per user.

    User i keeps p_max_i when its weight exceeds 1 - beta_i(p_max_i);
    otherwise its cap is the unique root of beta_i = 1 - w_i (the peak of
    its utility). Returns (p_u, root-finder evaluations per user).
    """
    caps, evals = [], []
    for wi, pci, di, p_max in zip(*(a.tolist() for a in (sc.w, sc.p_circuit, sc.delta, sc.p_max))):
        root, used = _power_at_price(0.0, wi, pci, di, P_FLOOR, p_max, _TOL_ROOT, _MAX_ITER)
        caps.append(root)
        evals.append(used)
    return np.array(caps), np.array(evals)


def _price_solve(sc: Scenario, p_u: np.ndarray):
    """Solve the budget-tight problem exactly for the price lambda.

    At price lambda each user's power is the root of U'(p) = lambda on
    [P_FLOOR, p_u] (see _power_at_price), to |U' - lambda| <= 1e-13. The
    sum of powers decreases in lambda with slope sum_interior 1 / U''(p),
    and U'' = (beta'(p) - lambda) / (p + pc) at such a root. The price lies
    in [0, hi] with hi = max_i U'_i(min(p_sum_max / N, p_u_i)): at hi no
    user takes more than an equal share of the budget. _bracketed_newton
    locates it, and the leftover budget is then spread across the
    strictly interior users.
    Returns (p, lam, price evaluations, root evaluations).
    """
    floor, total, n = P_FLOOR, sc.p_sum_max, sc.n_users
    w, pc, delta, caps = (a.tolist() for a in (sc.w, sc.p_circuit, sc.delta, p_u))
    evals = 0
    powers = [0.0] * n

    def fdf(lam):
        nonlocal evals
        slope = 0.0
        for i in range(n):
            pci, di = pc[i], delta[i]
            # |f| <= 1e-13 pc bounds |U' - lam| = |f| / (p + pc) by 1e-13
            powers[i], used = _power_at_price(lam, w[i], pci, di, floor, caps[i], 1e-13 * pci, _MAX_ITER)
            evals += used
            if floor < powers[i] < caps[i]:
                slope += (powers[i] + pci) / (_beta_prime(powers[i], pci, di) - lam)
        return sum(powers) - total, slope

    hi = float(np.max(utility_grad(np.minimum(total / n, p_u), sc.w, sc.p_circuit, sc.delta)))
    # powers are those at lam: the root finder evaluates its answer last
    lam, price_evals = _bracketed_newton(fdf, 0.0, hi, _PRICE_TOL * total, _MAX_ITER)
    p = np.array(powers)
    interior = (p > floor) & (p < p_u)
    if interior.any():
        # spread the leftover budget as one linearized price step,
        # dp_i = dlam / U_i'', which keeps the interior marginals equal
        args = (sc.w[interior], sc.p_circuit[interior], sc.delta[interior])
        inv_hess = 1.0 / utility_hess(p[interior], *args)
        p[interior] += (total - float(np.sum(p))) * inv_hess / float(np.sum(inv_hess))
        p = np.clip(p, floor, p_u)
        lam = float(np.mean(utility_grad(p[interior], *args)))
    return p, lam, price_evals, evals


def kkt_residuals(sc: Scenario, alloc: Allocation) -> KktReport:
    """Residuals of the optimality system at an (arbitrary) allocation.

    Reconstructs the bound multipliers from the price: mu = max(0, lam - U')
    where p sits at the floor, nu = max(0, U' - lam) where p sits at its
    cap, then reports stationarity, complementary slackness, and primal
    feasibility gaps. The lower bound is the floor P_FLOOR, so mu pairs
    with p - P_FLOOR.
    """
    p = np.asarray(alloc.p, dtype=float)
    p_u = np.asarray(alloc.p_u, dtype=float)
    lam = float(alloc.lam)
    grad = utility_grad(p, sc.w, sc.p_circuit, sc.delta)
    scale = np.maximum(1.0, p_u)
    at_lower = (p - P_FLOOR) <= 1e-10 * scale
    at_upper = (p_u - p) <= 1e-10 * scale
    mu = np.where(at_lower, np.maximum(0.0, lam - grad), 0.0)
    nu = np.where(at_upper, np.maximum(0.0, grad - lam), 0.0)
    total = float(np.sum(p))
    return KktReport(
        stationarity=np.abs(grad + mu - nu - lam),
        comp_lower=np.abs(mu * (p - P_FLOOR)),
        comp_upper=np.abs(nu * (p - p_u)),
        comp_sum=abs(lam * (total - sc.p_sum_max)),
        box_gap=np.maximum(np.maximum(p - p_u, -p), 0.0),
        sum_gap=max(0.0, total - sc.p_sum_max),
        mu=mu,
        nu=nu,
    )


def solve_centralized(sc: Scenario) -> Allocation:
    """Optimal power allocation for a scenario, KKT-certified.

    Computes the individual caps and returns them directly when the budget
    has slack; otherwise solves for the budget price with safeguarded
    Newton steps (see _price_solve). Raises ConvergenceError if the KKT
    residual of the result exceeds TOL_KKT.
    """
    p_u, newton_iters = compute_pu(sc)

    price_iters = 0
    refine_evals = 0
    if float(np.sum(p_u)) <= sc.p_sum_max:
        p = p_u.copy()
        lam = 0.0
        case = BudgetCase.SUM_SLACK
    else:
        p, lam, price_iters, refine_evals = _price_solve(sc, p_u)
        case = BudgetCase.SUM_TIGHT

    alloc = Allocation(p=p, p_u=p_u, lam=lam, case=case)
    report = kkt_residuals(sc, alloc)
    if report.max_residual > TOL_KKT:
        raise ConvergenceError(
            f"KKT residual {report.max_residual:.3e} exceeds TOL_KKT {TOL_KKT:.1e}"
        )
    utilities = utility(p, sc.w, sc.p_circuit, sc.delta)
    alloc.diagnostics = Diagnostics(
        se=se(p, sc.delta),
        ee=ee(p, sc.p_circuit, sc.delta),
        utilities=utilities,
        total_utility=float(np.sum(utilities)),
        kkt=report,
        newton_iterations=newton_iters,
        price_iterations=price_iters,
        refine_evaluations=refine_evals,
    )
    return alloc
