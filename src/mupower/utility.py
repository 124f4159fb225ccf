"""Per-user objective: SE, EE, the log of their weighted composite, and derivatives.

For transmit power p (W), effective gain delta (1/W), circuit power pc (W)
and preference weight w in [0, 1]:

    se(p)        = ln(1 + delta p)                      [nats/s/Hz]
    ee(p)        = se(p) / (p + pc)                     [nats/J/Hz]
    u(p)         = se^w * ee^(1-w)                      (geometric tradeoff)
    utility(p)   = ln u = ln[ln(1 + delta p)] - (1 - w) ln(p + pc)

The composite u itself is exp(utility). The proportional-fair log makes
utility -> -inf as p -> 0+, so every maximizer is strictly interior. The
auxiliary function (computed by _beta, its derivative by _beta_prime)

    beta(p) = delta (p + pc) / [(1 + delta p) ln(1 + delta p)]

is strictly decreasing from +inf, and utility'(p) = [beta(p) - (1-w)] / (p + pc),
so the interior stationary point is the unique root of beta = 1 - w.

All functions broadcast over numpy arrays; natural logs throughout
(divide SE/EE by ln 2 for bit units; optimizers are unaffected).
"""
from __future__ import annotations

import numpy as np


def _checked(p, msg: str, allow_zero: bool = False) -> np.ndarray:
    """p as a float array; ValueError(msg) unless every entry is > 0 (>= 0
    with allow_zero). One reduction: a NaN fails, an empty p passes."""
    p = np.asarray(p, dtype=float)
    low = p.min(initial=np.inf)
    if not (low >= 0 if allow_zero else low > 0):
        raise ValueError(msg)
    return p


def se(p, delta):
    """Spectral efficiency ln(1 + delta p); requires p >= 0."""
    p = _checked(p, "transmit power must be >= 0", allow_zero=True)
    return np.log1p(delta * p)


def ee(p, p_circuit, delta):
    """Energy efficiency ln(1 + delta p) / (p + p_circuit); requires p >= 0."""
    p = _checked(p, "transmit power must be >= 0", allow_zero=True)
    return np.log1p(delta * p) / (p + p_circuit)


def utility(p, w, p_circuit, delta):
    """Log composite ln[ln(1 + delta p)] - (1 - w) ln(p + p_circuit); p > 0."""
    p = _checked(p, "utility needs p > 0 (it diverges at 0)")
    return np.log(np.log1p(delta * p)) - (1.0 - w) * np.log(p + p_circuit)


def _beta(p, pc, delta):
    """beta(p), strictly decreasing on p > 0; p is not checked."""
    dp = delta * p
    return delta * (p + pc) / ((1.0 + dp) * np.log1p(dp))


def _beta_prime(p, pc, delta):
    """Analytic d beta / dp, negative on p > 0; p is not checked."""
    dp = delta * p
    log_term = np.log1p(dp)
    num = (log_term - dp) - pc * delta * (log_term + 1.0)
    return delta * num / ((1.0 + dp) * log_term) ** 2


def utility_grad(p, w, p_circuit, delta):
    """Analytic utility'(p) = [beta(p) - (1 - w)] / (p + p_circuit); p > 0."""
    p = _checked(p, "utility_grad needs p > 0")
    return (_beta(p, p_circuit, delta) - (1.0 - w)) / (p + p_circuit)


def utility_hess(p, w, p_circuit, delta):
    """Analytic utility''(p); strictly negative below the stationary point."""
    p = _checked(p, "utility_hess needs p > 0")
    total = p + p_circuit
    excess = _beta(p, p_circuit, delta) - (1.0 - w)
    return (_beta_prime(p, p_circuit, delta) * total - excess) / total**2
