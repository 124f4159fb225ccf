"""Seeded ill-conditioned channels: the exact condition test against the bound.

    python tests/channel_draws.py [SEED ...]

For each seed (default 7) and each (M, N) in SIZES this draws DRAWS
channels with np.random.default_rng(seed), each in this order:

    kappa = 10 ** uniform(6, 14)               the condition number of H^H H
    a     = standard_normal((M, N)) + 1j * standard_normal((M, N))
    s     = 10 ** uniform(-log10(kappa) / 2, 0, N) sorted descending,
            then s[0] = 1 and s[-1] = kappa ** -0.5
    h     = u diag(s) v^H, with u and v^H from the thin SVD of a

It prints, per size, how many draws the exact test accepts (eigvalsh of
H^H H, accepting lambda_max / lambda_min <= GRAM_CONDITION_LIMIT, the check
the ZF gains ran before they used the bound ||G||_1 * tr(G^-1)), how many
channel._gram_diag accepts, how many only the bound accepts
(none can: the bound is an upper bound), the kappa range of the draws only
the exact test accepts, and over the draws both accept the largest
relative difference between delta and the pinv oracle of test_channel.py,
overall and for kappa <= 1e8 (the oracle inverts H^H H itself, so its own
error grows like kappa times the float64 epsilon), and between delta and
the gains from the general inverse of the Cholesky factor, which the ZF
gains took before they inverted the factor blockwise.

The package is imported from PYTHONPATH when it is there (so another
checkout's src/ can be measured with the same draws), else from this
checkout's src/. Pytest does not collect this file.
"""
import sys
from pathlib import Path

import numpy as np

try:
    import mupower  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mupower  # noqa: F401

from mupower import SingularGramError
from mupower.channel import GRAM_CONDITION_LIMIT
from test_channel import effective_gains, pinv_row_norm_gains

SIZES = ((4, 2), (16, 8), (64, 32), (128, 96), (256, 128))
DRAWS = 100


def draw(rng, m, n):
    """(kappa, h): one channel of the documented family."""
    kappa = 10.0 ** rng.uniform(6.0, 14.0)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    u, _, vh = np.linalg.svd(a, full_matrices=False)
    s = np.sort(10.0 ** rng.uniform(-0.5 * np.log10(kappa), 0.0, n))[::-1]
    s[0], s[-1] = 1.0, kappa**-0.5
    return kappa, (u * s) @ vh


def exact_accepts(h):
    eig = np.linalg.eigvalsh(h.conj().T @ h)
    return eig[0] > 0 and eig[-1] / eig[0] <= GRAM_CONDITION_LIMIT


def summarize_size(rng, m, n, draws=DRAWS):
    exact = bound = only_bound = 0
    only_exact = []
    worst = worst_low = worst_inv = 0.0
    for _ in range(draws):
        kappa, h = draw(rng, m, n)
        old = exact_accepts(h)
        exact += old
        try:
            delta = effective_gains(h, 1.0)
        except SingularGramError:
            if old:
                only_exact.append(kappa)
            continue
        bound += 1
        if not old:
            only_bound += 1
            continue
        err = float(np.max(np.abs(delta / pinv_row_norm_gains(h, 1.0) - 1.0)))
        worst = max(worst, err)
        if kappa <= 1e8:
            worst_low = max(worst_low, err)
        l_inv = np.linalg.inv(np.linalg.cholesky(h.conj().T @ h))
        delta_inv = 1.0 / np.sum(np.abs(l_inv) ** 2, axis=0)
        worst_inv = max(worst_inv, float(np.max(np.abs(delta / delta_inv - 1.0))))
    band = f"kappa {min(only_exact):.2g} .. {max(only_exact):.2g}" if only_exact else "none"
    return (
        f"M={m:3d} N={n:3d}: exact test accepts {exact:3d} of {draws}, bound accepts {bound:3d}, "
        f"only the bound {only_bound}; only the exact test {len(only_exact):2d} ({band}); "
        f"max |delta / pinv - 1| {worst:.1e} overall, {worst_low:.1e} at kappa <= 1e8; "
        f"max |delta / inv(L) gains - 1| {worst_inv:.1e}"
    )


def main(argv):
    for seed in [int(a) for a in argv] or [7]:
        rng = np.random.default_rng(seed)
        print(f"seed {seed}")
        for m, n in SIZES:
            print(summarize_size(rng, m, n))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
