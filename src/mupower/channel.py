"""Uplink channel model: per-user effective gains under zero-forcing detection.

With N single-antenna users and an M-antenna receiver (M >= N), the ZF
detector decouples the users and leaves user i with SINR delta_i * P_i,
where the effective gain is

    delta_i = 1 / (sigma2 * [(H^H H)^-1]_ii)        [1/W]

Experiments usually specify delta directly in dB, which gains_from_db
converts; from H and sigma2 it is _zf_gains(_gram_diag(H), sigma2). Both
give delta as a plain float vector. A hit on scenario.py's cache of
_gram_diag's d = diag((H^H H)^-1) returns its writer's bits: zpotrf factors
one G into d's with different last bits at 1 and 2 OpenBLAS threads.

G = H^H H is formed _INV_LEAF columns at a time, lower triangle only, each
block G[j:e, :e] = H[:, j:e]^H H[:, :e] mirrored into the upper triangle:
half the flops of the full product, and no conjugate copy of H. Cholesky
reads only the lower triangle. It keeps the full product's bits unless the
BLAS sums a block another way (seen at N = 65): delta moves <~ kappa_2 ulps.

A channel is rejected when the upper bound kappa_2(G) <= ||G||_1 * tr(G^-1)
on the condition number of G = H^H H exceeds GRAM_CONDITION_LIMIT. It
costs no eigenvalues: tr(G^-1) sums the diagonal the gains come from. The
bound is at most N^1.5 times kappa_2, so it also rejects some channels with
kappa_2 between GRAM_CONDITION_LIMIT / N^1.5 and the limit.
"""
from __future__ import annotations

import numpy as np

# Channels whose Gram condition estimate exceeds this are treated as rank
# deficient: ZF noise amplification blows up well before this point.
GRAM_CONDITION_LIMIT = 1e12
# Columns per Gram block, and the most rows of a triangular block left to
# np.linalg.inv: N <= 64 takes one product H^H H and one inv, with their bits.
_INV_LEAF = 64


class SingularGramError(ValueError):
    """Channel Gram matrix H^H H is singular or too ill-conditioned to invert."""


def _gram_diag(h) -> np.ndarray:
    """diag((H^H H)^-1) for the complex M x N channel h (antennas x users), M >= N, full
    column rank: with G = H^H H = L L^H, diag(L^-H L^-1), the squared column norms of
    L^-1. H is dropped once G is formed: a caller's temporary H (CPython 3.11+) is
    freed before the factorisation."""
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
    # an overflowing Gram matrix or inverse shows up as an inf or nan
    # condition estimate, which the check below reports, not RuntimeWarnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gram = np.empty((n, n), dtype=complex)
        for j in range(0, n, _INV_LEAF):
            e = min(j + _INV_LEAF, n)
            np.matmul(h[:, j:e].conj().T, h[:, :e], out=gram[j:e, :e])
            gram[:j, j:e] = gram[j:e, :j].conj().T
        del h
        gram_norm1 = float(np.abs(gram).sum(axis=0).max())
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularGramError(
                f"Gram matrix is not positive definite, so its condition estimate is "
                f"infinite; channel columns are not independent ({exc})"
            ) from exc
        # the Gram matrix is not needed past its factor; freeing it here keeps
        # it from sitting beside the inverse at the stage's peak
        del gram
        diag = np.sum(np.abs(_lower_inv(chol)) ** 2, axis=0)
        bound = gram_norm1 * float(diag.sum())
        if not bound <= GRAM_CONDITION_LIMIT:
            raise SingularGramError(
                f"Gram matrix condition estimate {bound:.3e} exceeds "
                f"{GRAM_CONDITION_LIMIT:.0e}; channel columns are not independent"
            )
        return diag


def _zf_gains(diag, sigma2: float) -> np.ndarray:
    """delta = 1 / (sigma2 * diag) after sigma2's rule; a tiny sigma2 gives inf, which Scenario reports."""
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"noise power must be positive, got {sigma2}")
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / (float(sigma2) * diag)


def _lower_inv(l):
    """Inverse of a lower-triangular l: [[A, 0], [C, D]]^-1 is
    [[A^-1, 0], [-D^-1 C A^-1, D^-1]], split at n // 2 down to leaves for
    np.linalg.inv. About a third of the flops of a general inverse, and
    stable (Du Croz and Higham, IMA J. Numer. Anal. 1992)."""
    n = l.shape[0]
    if n <= _INV_LEAF:
        return np.linalg.inv(l)
    k = n // 2
    out = np.zeros_like(l)
    out[:k, :k] = _lower_inv(l[:k, :k])
    out[k:, k:] = _lower_inv(l[k:, k:])
    out[k:, :k] = -(out[k:, k:] @ (l[k:, :k] @ out[:k, :k]))
    return out


def gains_from_db(delta_db) -> np.ndarray:
    """Convert power-dB gains to linear, elementwise: delta = 10^(dB/10)."""
    delta_db = np.atleast_1d(np.asarray(delta_db, dtype=float))
    if not np.all(np.isfinite(delta_db)):
        raise ValueError("dB gains must be finite")
    # beyond about 3,080 dB the gain overflows to inf, which Scenario's range
    # check reports
    with np.errstate(over="ignore"):
        return 10.0 ** (delta_db / 10.0)
