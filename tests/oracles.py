"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's solver paths: roots are
bisected blindly, derivatives come from central differences, optima from
exhaustive grid search, and budget prices from nested bisection.
"""
import numpy as np

from mupower import Scenario, gains_from_db

# The lower bound on every power (W) and the objective below are written
# here from the paper's formulas rather than read from the library, so
# that the oracles stay independent of the code they check.
P_FLOOR = 1e-9


def beta(p, p_circuit, delta):
    """delta (p + pc) / [(1 + delta p) ln(1 + delta p)]; utility' = (beta - (1 - w)) / (p + pc)."""
    return delta * (p + p_circuit) / ((1.0 + delta * p) * np.log1p(delta * p))


def utility(p, w, p_circuit, delta):
    """ln(se^w ee^(1-w)) = ln[ln(1 + delta p)] - (1 - w) ln(p + pc)."""
    return np.log(np.log1p(delta * p)) - (1.0 - w) * np.log(p + p_circuit)


def bisect_root(f, lo, hi, tol=1e-14, max_iter=500):
    """Plain bisection for a decreasing f with f(lo) > 0 > f(hi)."""
    f_lo, f_hi = f(lo), f(hi)
    if f_hi == 0.0:
        return hi
    assert f_lo > 0 > f_hi, "bisection bracket invalid"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def pu_by_bisection(w, p_circuit, delta, p_max, p_floor=P_FLOOR):
    """Individual cap via threshold test plus blind bisection of beta = 1 - w."""
    if w > 1.0 - float(beta(p_max, p_circuit, delta)):
        return p_max
    return bisect_root(
        lambda p: float(beta(p, p_circuit, delta)) - (1.0 - w),
        p_floor,
        p_max,
        tol=1e-15,
    )


def grid_search_2user(sc: Scenario, pitch=1e-4, refine_pitch=1e-6):
    """Exhaustive 2-D grid maximization of the sum utility.

    Coarse pass at `pitch` over the feasible box intersected with the
    budget (prefix maxima make the scan O(grid) instead of O(grid^2)),
    then one dense refinement at `refine_pitch` around the coarse argmax.
    Returns (p_opt, total_utility).
    """
    floor = P_FLOOR
    budget = sc.p_sum_max
    hi = np.minimum(sc.p_max, budget)
    w, pc, delta = sc.w, sc.p_circuit, sc.delta

    ax1 = np.arange(floor, hi[0] + pitch / 2, pitch)
    ax2 = np.arange(floor, hi[1] + pitch / 2, pitch)
    u1 = utility(ax1, w[0], pc[0], delta[0])
    u2 = utility(ax2, w[1], pc[1], delta[1])
    pref_max = np.maximum.accumulate(u2)
    pref_arg = np.zeros(ax2.size, dtype=int)
    running = 0
    for j in range(1, ax2.size):
        if u2[j] > u2[running]:
            running = j
        pref_arg[j] = running

    # for each p1, the best lattice p2 (prefix max) and the budget-boundary
    # point itself, which the lattice straddles when the sum constraint binds
    bound2 = np.clip(budget - ax1, floor, hi[1])
    u2_bound = utility(bound2, w[1], pc[1], delta[1])

    best = (-np.inf, floor, floor)
    for i, p1 in enumerate(ax1):
        cap2 = min(hi[1], budget - p1)
        if cap2 < floor:
            continue
        j_hi = min(int(np.floor((cap2 - floor) / pitch + 1e-9)), ax2.size - 1)
        j = pref_arg[j_hi]
        total = u1[i] + u2[j]
        p2 = ax2[j]
        if u1[i] + u2_bound[i] > total:
            total = u1[i] + u2_bound[i]
            p2 = bound2[i]
        if total > best[0]:
            best = (total, p1, p2)

    def refine(p1c, p2c, window, step):
        a1 = np.arange(max(floor, p1c - window), min(hi[0], p1c + window) + step / 2, step)
        a2 = np.arange(max(floor, p2c - window), min(hi[1], p2c + window) + step / 2, step)
        uu = utility(a1, w[0], pc[0], delta[0])[:, None] + utility(a2, w[1], pc[1], delta[1])[None, :]
        feas = (a1[:, None] + a2[None, :]) <= budget
        uu = np.where(feas, uu, -np.inf)
        b2 = np.clip(budget - a1, floor, hi[1])
        uu_b = utility(a1, w[0], pc[0], delta[0]) + utility(b2, w[1], pc[1], delta[1])
        i, j = np.unravel_index(np.argmax(uu), uu.shape)
        k = int(np.argmax(uu_b))
        if uu_b[k] > uu[i, j]:
            return np.array([a1[k], b2[k]]), float(uu_b[k])
        return np.array([a1[i], a2[j]]), float(uu[i, j])

    _, p1c, p2c = best
    return refine(p1c, p2c, pitch, refine_pitch)


def tight_optimum_by_bisection(sc: Scenario, iters=80):
    """Budget-tight optimum by blind bisection on the price lambda.

    Caps come from pu_by_bisection. At each price every user's power is
    found by blind bisection of U'(p) = lambda on [p_floor, cap], with
    U'(p) = [beta(p) - (1 - w)] / (p + pc) built from beta; bisection on a
    decreasing U' pins p to the cap (or the floor) when U' stays above (or
    below) lambda on the whole interval. The price is then bisected on
    sum(p) = p_sum_max. Returns (p, lambda).
    """
    w, pc, delta, floor = sc.w, sc.p_circuit, sc.delta, P_FLOOR
    caps = np.array([pu_by_bisection(*args, floor) for args in zip(w, pc, delta, sc.p_max)])

    def powers_at(lam):
        lo, hi = np.full(caps.shape, floor), caps.copy()
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            above = (beta(mid, pc, delta) - (1.0 - w)) / (mid + pc) > lam
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    lam_lo, lam_hi = 0.0, 1.0
    while powers_at(lam_hi).sum() > sc.p_sum_max:
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
    for _ in range(iters):
        mid = 0.5 * (lam_lo + lam_hi)
        if powers_at(mid).sum() > sc.p_sum_max:
            lam_lo = mid
        else:
            lam_hi = mid
    lam = 0.5 * (lam_lo + lam_hi)
    return powers_at(lam), lam


def random_2user_scenario(rng) -> Scenario:
    """A seeded 2-user instance; budgets chosen so both cases occur."""
    return Scenario(
        w=rng.uniform(0.0, 1.0, 2),
        p_circuit=rng.uniform(0.05, 0.2, 2),
        p_max=1.0,
        delta=gains_from_db(rng.uniform(-20.0, 20.0, 2)),
        p_sum_max=float(rng.uniform(0.3, 1.8)),
    )
