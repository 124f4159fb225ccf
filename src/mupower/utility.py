"""Per-user objective: SE, EE, their weighted composite, and derivatives.

For transmit power p (W), effective gain delta (1/W), circuit power pc (W)
and preference weight w in [0, 1]:

    se(p)        = ln(1 + delta p)                      [nats/s/Hz]
    ee(p)        = se(p) / (p + pc)                     [nats/J/Hz]
    u(p)         = se^w * ee^(1-w)                      (geometric tradeoff)
    utility(p)   = ln u = ln[ln(1 + delta p)] - (1 - w) ln(p + pc)

The proportional-fair log makes utility -> -inf as p -> 0+, so every
maximizer is strictly interior. The auxiliary function

    beta(p) = delta (p + pc) / [(1 + delta p) ln(1 + delta p)]

is strictly decreasing from +inf, and utility'(p) = [beta(p) - (1-w)] / (p + pc),
so the interior stationary point is the unique root of beta = 1 - w.

All functions broadcast over numpy arrays; natural logs throughout
(divide SE/EE by ln 2 for bit units; optimizers are unaffected).
"""
from __future__ import annotations

import math

import numpy as np


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def se(p, delta):
    """Spectral efficiency ln(1 + delta p); requires p >= 0."""
    p = np.asarray(p, dtype=float)
    _require(bool(np.all(p >= 0)), "transmit power must be >= 0")
    return np.log1p(delta * p)


def ee(p, p_circuit, delta):
    """Energy efficiency ln(1 + delta p) / (p + p_circuit); requires p >= 0."""
    p = np.asarray(p, dtype=float)
    _require(bool(np.all(p >= 0)), "transmit power must be >= 0")
    return np.log1p(delta * p) / (p + p_circuit)


def utility(p, w, p_circuit, delta):
    """Log composite ln[ln(1 + delta p)] - (1 - w) ln(p + p_circuit); p > 0."""
    p = np.asarray(p, dtype=float)
    _require(bool(np.all(p > 0)), "utility needs p > 0 (it diverges at 0)")
    return np.log(np.log1p(delta * p)) - (1.0 - w) * np.log(p + p_circuit)


def composite_u(p, w, p_circuit, delta):
    """Weighted geometric composite se^w * ee^(1-w) = exp(utility); p > 0."""
    return np.exp(utility(p, w, p_circuit, delta))


def _beta(p, pc, delta, log1p=math.log1p):
    """beta without validation; floats by default, arrays with np.log1p."""
    dp = delta * p
    return delta * (p + pc) / ((1.0 + dp) * log1p(dp))


def _beta_prime(p, pc, delta, log1p=math.log1p):
    """d beta / dp without validation; floats by default, arrays with np.log1p."""
    dp = delta * p
    log_term = log1p(dp)
    num = (log_term - dp) - pc * delta * (log_term + 1.0)
    return delta * num / ((1.0 + dp) * log_term) ** 2


def beta(p, p_circuit, delta):
    """delta (p + pc) / [(1 + delta p) ln(1 + delta p)]; strictly decreasing, p > 0."""
    p = np.asarray(p, dtype=float)
    _require(bool(np.all(p > 0)), "beta needs p > 0")
    return _beta(p, p_circuit, delta, np.log1p)


def beta_prime(p, p_circuit, delta):
    """Analytic d beta / dp; negative everywhere on p > 0."""
    p = np.asarray(p, dtype=float)
    _require(bool(np.all(p > 0)), "beta_prime needs p > 0")
    return _beta_prime(p, p_circuit, delta, np.log1p)


def utility_grad(p, w, p_circuit, delta):
    """Analytic utility'(p) = [beta(p) - (1 - w)] / (p + p_circuit); p > 0."""
    return (beta(p, p_circuit, delta) - (1.0 - w)) / (np.asarray(p) + p_circuit)


def utility_hess(p, w, p_circuit, delta):
    """Analytic utility''(p); strictly negative below the stationary point."""
    p = np.asarray(p, dtype=float)
    total = p + p_circuit
    excess = beta(p, p_circuit, delta) - (1.0 - w)
    return (beta_prime(p, p_circuit, delta) * total - excess) / total**2
