"""Uplink channel model: per-user effective gains under zero-forcing detection.

With N single-antenna users and an M-antenna receiver (M >= N), the ZF
detector decouples the users and leaves user i with SINR delta_i * P_i,
where the effective gain is

    delta_i = 1 / (sigma2 * [(H^H H)^-1]_ii)        [1/W]

Experiments usually specify delta directly in dB, so the raw matrix path
is optional. Both paths return delta as a plain float vector; Scenario
checks it (finite and > 0) by the same rule as its other per-user inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Gram matrices with condition estimates above this are treated as rank
# deficient (ZF noise amplification blows up well before this point).
GRAM_CONDITION_LIMIT = 1e12


class SingularGramError(ValueError):
    """Channel Gram matrix H^H H is singular or too ill-conditioned to invert."""


@dataclass(frozen=True)
class ChannelRealization:
    """Complex M x N uplink channel matrix plus receiver noise power (W).

    Rows index receive antennas, columns index users. Requires M >= N and
    full column rank; construction fails otherwise. The Gram matrix
    H^H H is formed once and kept read-only as gram.
    """

    h: np.ndarray
    sigma2: float
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.array(self.h, dtype=complex)
        if h.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {h.shape}")
        m, n = h.shape
        if m < n:
            raise ValueError(
                f"need at least as many receive antennas as users, got M={m} < N={n}"
            )
        if not np.all(np.isfinite(h)):
            raise ValueError("channel matrix has non-finite entries")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"noise power must be positive, got {self.sigma2}")
        gram = h.conj().T @ h
        eig = np.linalg.eigvalsh(gram)
        cond = eig[-1] / eig[0] if eig[0] > 0 else np.inf
        if cond > GRAM_CONDITION_LIMIT:
            raise SingularGramError(
                f"Gram matrix condition estimate {cond:.3e} exceeds "
                f"{GRAM_CONDITION_LIMIT:.0e}; channel columns are not independent"
            )
        h.setflags(write=False)
        gram.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def compute_effective_gains(ch: ChannelRealization) -> np.ndarray:
    """Effective ZF gains delta_i = 1 / (sigma2 * [(H^H H)^-1]_ii).

    The channel's Gram matrix is inverted through its Cholesky factor L
    (it is Hermitian positive definite for any full-column-rank H, which
    ChannelRealization has already checked):
    (H^H H)^-1 = L^-H L^-1, so its diagonal holds the squared column
    norms of L^-1.
    """
    try:
        chol = np.linalg.cholesky(ch.gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGramError(f"Gram matrix is not positive definite: {exc}") from exc
    l_inv = np.linalg.inv(chol)
    diag = np.sum(np.abs(l_inv) ** 2, axis=0)
    return 1.0 / (ch.sigma2 * diag)


def gains_from_db(delta_db) -> np.ndarray:
    """Convert power-dB gains to linear, elementwise: delta = 10^(dB/10)."""
    delta_db = np.atleast_1d(np.asarray(delta_db, dtype=float))
    if not np.all(np.isfinite(delta_db)):
        raise ValueError("dB gains must be finite")
    return 10.0 ** (delta_db / 10.0)


def random_rayleigh_channel(
    n_antennas: int, n_users: int, seed: int, sigma2: float = 1.0
) -> ChannelRealization:
    """I.i.d. unit-variance circularly-symmetric complex Gaussian channel."""
    rng = np.random.default_rng(seed)
    h = (
        rng.standard_normal((n_antennas, n_users))
        + 1j * rng.standard_normal((n_antennas, n_users))
    ) / np.sqrt(2.0)
    return ChannelRealization(h, sigma2)


def load_channel_csv(path, n_users: int) -> np.ndarray:
    """Read an M x N complex channel matrix from CSV.

    One row per receive antenna. Two cell layouts are accepted:
      * N columns of complex literals, e.g. ``0.3+0.5j``;
      * 2N real columns as (re, im) pairs per user.
    The layout is inferred from the column count of the first non-blank
    row; blank lines are skipped.
    """
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    if not lines:
        raise ValueError(f"empty channel CSV: {path}")
    width = lines[0].count(",") + 1
    if width not in (n_users, 2 * n_users):
        raise ValueError(
            f"channel CSV has {width} columns; expected {n_users} complex "
            f"or {2 * n_users} (re, im) columns"
        )
    dtype = complex if width == n_users else float
    try:
        cells = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"bad channel CSV {path}: {exc}") from exc
    if dtype is complex:
        return cells
    return cells[:, 0::2] + 1j * cells[:, 1::2]
