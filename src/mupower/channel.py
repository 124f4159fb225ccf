"""Uplink channel model: per-user effective gains under zero-forcing detection.

With N single-antenna users and an M-antenna receiver (M >= N), the ZF
detector decouples the users and leaves user i with SINR delta_i * P_i,
where the effective gain is

    delta_i = 1 / (sigma2 * [(H^H H)^-1]_ii)        [1/W]

Experiments usually specify delta directly in dB, so the raw matrix path
is optional: compute_effective_gains takes H and sigma2 and returns delta.
Both paths return delta as a plain float vector; Scenario checks it
(finite and > 0) by the same rule as its other per-user inputs.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

# Gram matrices with condition estimates above this are treated as rank
# deficient (ZF noise amplification blows up well before this point).
GRAM_CONDITION_LIMIT = 1e12


class SingularGramError(ValueError):
    """Channel Gram matrix H^H H is singular or too ill-conditioned to invert."""


def compute_effective_gains(h, sigma2: float) -> np.ndarray:
    """Effective ZF gains delta_i = 1 / (sigma2 * [(H^H H)^-1]_ii).

    h is the complex M x N channel matrix (rows index receive antennas,
    columns index users) and sigma2 the receiver noise power in W. It
    requires M >= N and full column rank. The Gram matrix H^H H is
    inverted through its Cholesky factor L: (H^H H)^-1 = L^-H L^-1, so its
    diagonal holds the squared column norms of L^-1.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"channel matrix must be 2-D, got shape {h.shape}")
    m, n = h.shape
    if m < n:
        raise ValueError(
            f"need at least as many receive antennas as users, got M={m} < N={n}"
        )
    if not np.all(np.isfinite(h)):
        raise ValueError("channel matrix has non-finite entries")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"noise power must be positive, got {sigma2}")
    gram = h.conj().T @ h
    eig = np.linalg.eigvalsh(gram)
    cond = eig[-1] / eig[0] if eig[0] > 0 else np.inf
    if cond > GRAM_CONDITION_LIMIT:
        raise SingularGramError(
            f"Gram matrix condition estimate {cond:.3e} exceeds "
            f"{GRAM_CONDITION_LIMIT:.0e}; channel columns are not independent"
        )
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"Gram matrix is not positive definite: {exc}") from exc
    # the Gram matrix is not needed past its factor; freeing it here keeps
    # it from sitting beside inv's output at the stage's peak
    del gram
    l_inv = np.linalg.inv(chol)
    diag = np.sum(np.abs(l_inv) ** 2, axis=0)
    return 1.0 / (float(sigma2) * diag)


def gains_from_db(delta_db) -> np.ndarray:
    """Convert power-dB gains to linear, elementwise: delta = 10^(dB/10)."""
    delta_db = np.atleast_1d(np.asarray(delta_db, dtype=float))
    if not np.all(np.isfinite(delta_db)):
        raise ValueError("dB gains must be finite")
    return 10.0 ** (delta_db / 10.0)


def load_channel_csv(path, n_users: int) -> np.ndarray:
    """Read an M x N complex channel matrix from CSV.

    One row per receive antenna. Two cell layouts are accepted:
      * N columns of complex literals, e.g. ``0.3+0.5j``;
      * 2N real columns as (re, im) pairs per user.
    The layout is inferred from the column count of the first non-blank
    row; blank lines are skipped.
    """
    with open(path) as f:
        # rows are parsed as they are read: a list of every line would put
        # the whole file's text on the heap at once
        rows = (line for line in f if line.strip())
        first = next(rows, None)
        if first is None:
            raise ValueError(f"empty channel CSV: {path}")
        width = first.count(",") + 1
        if width not in (n_users, 2 * n_users):
            raise ValueError(
                f"channel CSV has {width} columns; expected {n_users} complex "
                f"or {2 * n_users} (re, im) columns"
            )
        dtype = complex if width == n_users else float
        try:
            cells = np.loadtxt(chain([first], rows), delimiter=",", dtype=dtype, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"bad channel CSV {path}: {exc}") from exc
    if dtype is complex:
        return cells
    return cells[:, 0::2] + 1j * cells[:, 1::2]
