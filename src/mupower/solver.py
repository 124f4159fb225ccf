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

The solver works on a batch: B scenarios that share their users' circuit
powers, power limits and budget and differ row by row in w or delta, held
as (B, N) arrays. One array-wide safeguarded root finder (_root: masked
Newton steps with a bisection fallback, each element stopping on its own)
finds every cap at once, then every user's power at the prices of the
budget-tight rows, and, over the row axis, those rows' prices. A row's
result depends only on that row, so solve_centralized is the B = 1 case.

Every row is certified against the KKT system before it is returned.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .utility import _beta, _beta_prime, utility_grad, utility_hess

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

# Per-user input rules: what the values must satisfy, and the test.
_RULES = {
    "w": ("lie in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "p_circuit": ("be > 0", lambda v: v > 0.0),
    "p_max": ("be > 0", lambda v: v > 0.0),
    "delta": ("be > 0", lambda v: v > 0.0),
}


class ConvergenceError(RuntimeError):
    """An iterative stage exhausted its budget or failed its certificate."""


class BudgetCase(enum.Enum):
    """Whether the system power budget binds at the optimum."""

    SUM_SLACK = "sum_slack"
    SUM_TIGHT = "sum_tight"


def _checked(name, value, shape):
    """value as a read-only float array of the given shape, after name's rule.

    A scalar or one-entry value broadcasts; the last axis holds the users.
    """
    rule, ok = _RULES[name]
    value = np.asarray(value, dtype=float)
    if value.ndim > len(shape) or (value.size != 1 and value.shape != shape):
        expected = f"a scalar or {shape} ({shape[-1]} effective gains)"
        raise ValueError(f"{name} has shape {value.shape}, expected {expected}")
    arr = np.broadcast_to(value, shape).copy()
    bad = ~(np.isfinite(arr) & ok(arr))
    if bad.any():
        raise ValueError(f"{name} must {rule}, got {arr[bad][0]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Scenario:
    """A problem instance: per-user vectors and the budget (W).

    delta (linear effective gains, 1/W) is a non-empty vector that sets the
    number of users N. w (SE/EE preference weight in [0, 1]), p_circuit
    and p_max (W) hold one entry per user, and scalars broadcast to N. The
    vectors are validated and stored as read-only float arrays, so
    dataclasses.replace(sc, w=...) yields a checked variant. The budget
    must cover every user at the floor: p_sum_max >= N * P_FLOOR.
    Scenarios compare and hash by identity. The solver's tolerances are
    module constants, not part of a scenario.
    """

    w: np.ndarray
    p_circuit: np.ndarray
    p_max: np.ndarray
    delta: np.ndarray
    p_sum_max: float

    def __post_init__(self):
        delta = np.atleast_1d(np.asarray(self.delta, dtype=float))
        if delta.ndim != 1 or delta.size == 0:
            raise ValueError(f"delta must be a non-empty vector, got shape {delta.shape}")
        for name in ("delta", "w", "p_circuit", "p_max"):
            object.__setattr__(self, name, _checked(name, getattr(self, name), delta.shape))
        n = delta.size
        if not (np.isfinite(self.p_sum_max) and self.p_sum_max > 0):
            raise ValueError(f"p_sum_max must be > 0, got {self.p_sum_max}")
        if self.p_sum_max < n * P_FLOOR:
            raise ValueError(
                f"p_sum_max {self.p_sum_max} is below n_users * p_floor = {n * P_FLOOR}"
            )
        object.__setattr__(self, "p_sum_max", float(self.p_sum_max))

    @property
    def n_users(self) -> int:
        return self.delta.size


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
        per_user = [self.stationarity, self.comp_lower, self.comp_upper, self.box_gap]
        worst = np.maximum(np.max(per_user, axis=(0, -1)), np.maximum(self.comp_sum, self.sum_gap))
        return worst if worst.ndim else float(worst)


@dataclass
class Diagnostics:
    """What a solve did: its KKT certificate and its effort counters.

    newton_iterations counts cap-root evaluations per user. In the
    budget-tight case price_iterations counts the prices at which the
    powers were evaluated (bracket ends included) and refine_evaluations
    the root evaluations spent finding the powers at those prices; both
    are 0 when the budget has slack. In a batch each field has a leading
    row axis. An allocation's SE, EE and utilities are not kept here:
    they follow from its powers (utility.se, utility.ee, metrics.summarize).
    """

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
    checker. solve_batch returns one allocation per row in one instance
    whose fields (case: an array of BudgetCase) have a leading row axis.
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


def _root(fdf, lo, hi, tol, args):
    """Roots of strictly decreasing functions, one per element of hi.

    args are per-element arrays; fdf(x, *a) returns (f(x), f'(x)) where a
    are those arrays cut down to the elements x belongs to. Each element
    is clipped to its [lo, hi], with 0 <= lo, and iterates on its own: it
    stops at hi when f(hi) >= -tol, at lo when f(lo) <= 0, and otherwise
    takes Newton steps with the analytic derivative, falling back to
    bisection whenever a step leaves the current bracket, until
    |f| <= tol, the next point repeats, or the bracket is eps-wide. An
    element's root is always the last point passed to fdf for it.
    Returns (roots, evaluations per element).
    """
    hi = np.asarray(hi, dtype=float)
    lo, tol = (np.broadcast_to(np.asarray(v, dtype=float), hi.shape) for v in (lo, tol))
    x = hi.copy()
    evals = np.ones(hi.shape, dtype=np.int64)
    i = np.flatnonzero(~(fdf(x, *args)[0] >= -tol))
    args = [v[i] for v in args]
    evals[i] = 2
    go = ~(fdf(lo[i], *args)[0] <= 0)
    x[i[~go]] = lo[i[~go]]
    i, args = i[go], [v[go] for v in args]
    a, b, t = lo[i], hi[i], tol[i]
    xi = 0.5 * (a + b)
    for k in range(3, _MAX_ITER + 3):
        if not i.size:
            return x, evals
        f, d = fdf(xi, *args)
        right = f > 0
        a = np.where(right, xi, a)
        b = np.where(right, b, xi)
        # xi is now an end of the bracket [a, b], so a step along a slope
        # that is not negative (or not a number) leaves it and bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = xi - f / d
        nxt = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))
        # the bracket is nonnegative, so b is its largest magnitude
        stop = (np.abs(f) <= t) | (nxt == xi) | (b - a <= _EPS * b)
        if stop.any():
            x[i[stop]] = xi[stop]
            evals[i[stop]] = k
            go = ~stop
            i, nxt, a, b, t = i[go], nxt[go], a[go], b[go], t[go]
            args = [v[go] for v in args]
        xi = nxt
    if i.size:
        raise ConvergenceError(f"root finder exhausted {_MAX_ITER} iterations")
    return x, evals


def _user_powers(lam, w, pc, delta, hi, tol):
    """Each user's power at its budget price lam >= 0, clipped to [P_FLOOR, hi].

    Flat arrays, one entry per user. The power is the root of
    beta(p) - (1 - w) - lam (p + pc), which is (p + pc) times U'(p) - lam
    and strictly decreasing with slope beta'(p) - lam. At lam = 0 this is
    the cap root beta(p) = 1 - w. Returns (roots, evaluations) from _root.
    """

    def fdf(p, target, pc, delta, lam):
        return (
            _beta(p, pc, delta) - target - lam * (p + pc),
            _beta_prime(p, pc, delta) - lam,
        )

    return _root(fdf, P_FLOOR, hi, tol, (1.0 - w, pc, delta, lam))


def compute_pu(sc: Scenario):
    """Individually optimal power caps, one per user.

    User i keeps p_max_i when its weight exceeds 1 - beta_i(p_max_i);
    otherwise its cap is the unique root of beta_i = 1 - w_i (the peak of
    its utility). Returns (p_u, root-finder evaluations per user).
    """
    return _user_powers(np.zeros(sc.n_users), sc.w, sc.p_circuit, sc.delta, sc.p_max, _TOL_ROOT)


def _price_solve(w, pc, delta, p_u, budget):
    """Solve budget-tight rows exactly for their prices lambda.

    Arrays are (T, N), budget (T,). At price lambda each user's power is
    the root of U'(p) = lambda on [P_FLOOR, p_u] (see _user_powers), to
    |U' - lambda| <= 1e-13. A row's sum of powers decreases in lambda with
    slope sum_interior 1 / U''(p), and U'' = (beta'(p) - lambda) / (p + pc)
    at such a root. The price lies in [0, hi] with
    hi = max_i U'_i(min(p_sum_max / N, p_u_i)): at hi no user takes more
    than an equal share of the budget. _root locates every row's price at
    once, and each row's leftover budget is then spread across its
    strictly interior users.
    Returns (p, lam, price evaluations, root evaluations), row by row.
    """
    n = p_u.shape[1]
    p = np.empty_like(p_u)
    refine = np.zeros(len(p_u), dtype=np.int64)

    def fdf(lam, r):
        pcr, caps = pc[r], p_u[r]
        # |f| <= 1e-13 pc bounds |U' - lam| = |f| / (p + pc) by 1e-13
        flat, used = _user_powers(
            np.repeat(lam, n), w[r].ravel(), pcr.ravel(), delta[r].ravel(), caps.ravel(), 1e-13 * pcr.ravel()
        )
        p[r] = pr = flat.reshape(-1, n)
        refine[r] += used.reshape(-1, n).sum(axis=1)
        interior = (P_FLOOR < pr) & (pr < caps)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (pr + pcr) / (_beta_prime(pr, pcr, delta[r]) - lam[:, None])
        return pr.sum(axis=1) - budget[r], np.where(interior, slope, 0.0).sum(axis=1)

    hi = np.max(utility_grad(np.minimum(budget[:, None] / n, p_u), w, pc, delta), axis=1)
    # p holds the powers at lam: _root evaluates each row's answer last
    lam, price_evals = _root(fdf, 0.0, hi, _PRICE_TOL * budget, (np.arange(len(p_u)),))
    # spread each row's leftover budget as one linearized price step,
    # dp_i = dlam / U_i'', which keeps the interior marginals equal
    interior = (p > P_FLOOR) & (p < p_u)
    s = np.flatnonzero(interior.any(axis=1))
    inner = interior[s]
    args = (w[s], pc[s], delta[s])
    inv_hess = np.divide(1.0, utility_hess(p[s], *args), out=np.zeros(inner.shape), where=inner)
    step = (budget[s] - p[s].sum(axis=1))[:, None] * inv_hess / inv_hess.sum(axis=1, keepdims=True)
    p[s] = np.clip(p[s] + step, P_FLOOR, p_u[s])
    lam[s] = np.where(inner, utility_grad(p[s], *args), 0.0).sum(axis=1) / inner.sum(axis=1)
    return p, lam, price_evals, refine


def _certificate(w, pc, delta, budget, p, p_u, lam) -> KktReport:
    """KKT residuals of allocations stacked on a leading axis (or of one).

    Reconstructs the bound multipliers from the price: mu = max(0, lam - U')
    where p sits at the floor, nu = max(0, U' - lam) where p sits at its
    cap, then reports stationarity, complementary slackness, and primal
    feasibility gaps. The lower bound is the floor P_FLOOR, so mu pairs
    with p - P_FLOOR.
    """
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
    p_circuit, p_max and p_sum_max are shared. Without either, B = 1.
    Computes every cap and finishes the rows whose budget has slack; the
    budget-tight rows share one price solve (see _price_solve). Returns
    the rows as one batched Allocation. Raises ConvergenceError naming the
    first row whose KKT residual exceeds TOL_KKT.
    """
    n = sc.n_users
    shape = next(((len(a), n) for a in (w, delta) if a is not None), (1, n))
    w = np.broadcast_to(sc.w, shape) if w is None else _checked("w", w, shape)
    delta = np.broadcast_to(sc.delta, shape) if delta is None else _checked("delta", delta, shape)
    pc, p_max = (np.broadcast_to(a, shape) for a in (sc.p_circuit, sc.p_max))
    budget = np.full(shape[0], sc.p_sum_max)

    flat = (a.ravel() for a in (w, pc, delta, p_max))
    p_u, newton = (a.reshape(shape) for a in _user_powers(np.zeros(w.size), *flat, _TOL_ROOT))
    p, lam = p_u.copy(), np.zeros(shape[0])
    price_evals, refine_evals = np.zeros((2, shape[0]), dtype=np.int64)
    tight = ~(p_u.sum(axis=1) <= budget)
    t = np.flatnonzero(tight)
    if t.size:
        p[t], lam[t], price_evals[t], refine_evals[t] = _price_solve(w[t], pc[t], delta[t], p_u[t], budget[t])

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
    diagnostics = Diagnostics(kkt, newton, price_evals, refine_evals)
    case = np.where(tight, BudgetCase.SUM_TIGHT, BudgetCase.SUM_SLACK)
    return Allocation(p=p, p_u=p_u, lam=lam, case=case, diagnostics=diagnostics)


def solve_centralized(sc: Scenario) -> Allocation:
    """Optimal power allocation for a scenario, KKT-certified.

    The one-row case of solve_batch. Raises ConvergenceError if the KKT
    residual of the result exceeds TOL_KKT.
    """
    return _row(solve_batch(sc), 0)
