"""Digests of the CLI's output on the bundled scenarios, for checking byte-identity.

    python tests/cli_digest.py

This runs 12 commands on the bundled scenarios through mupower.cli.main,
in this order:

    solve            fig2, fig3 and fig4, each without and then with --out
    sweep-diversity  fig2 at --grid 41 (with --out) and --grid 7 (to stdout)
    sweep-fairness   fig3 at --grid 41 (with --out) and --grid 9 (to stdout)
    primal-dual      fig4 without and then with --out

Then it runs `solve` on six invalid variants of fig2 written to a
temporary directory: with pd_gain_dual: -1, with p_max_individual_watts:
1.0e+31, with sigma2_watts next to delta_db, with p_sum_max_watts: true,
with a channel CSV holding the byte 0xff in place of delta_db, and with
receive_antennas: 3 beside a 2-row channel CSV.

It prints one line per run: the command, its exit code, and the SHA-256
of what it wrote to stdout, of its --out file ("-" when it was given none)
and of its stderr, in which the temporary directory's path is replaced by
"$TMP" so that the error lines hash the same from run to run. Two
checkouts that print the same lines on one host wrote the same bytes. The
package is imported from PYTHONPATH when it is there (so another
checkout's src/ can be measured), else from this checkout's src/. Pytest
does not collect this file.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
try:
    import mupower  # noqa: F401
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import mupower  # noqa: F401

from mupower import cli

RUNS = [
    *(("solve", fig, [], out) for fig in ("fig2", "fig3", "fig4") for out in (False, True)),
    ("sweep-diversity", "fig2", ["--grid", "41"], True),
    ("sweep-diversity", "fig2", ["--grid", "7"], False),
    ("sweep-fairness", "fig3", ["--grid", "41"], True),
    ("sweep-fairness", "fig3", ["--grid", "9"], False),
    ("primal-dual", "fig4", [], False),
    ("primal-dual", "fig4", [], True),
]
# (file name, line of fig2.yaml, its replacement); each makes solve exit 1
INVALID = [
    ("pd_gain_dual.yaml", "p_sum_max_watts: 1.5", "p_sum_max_watts: 1.5\npd_gain_dual: -1"),
    ("p_max.yaml", "p_max_individual_watts: 1.0", "p_max_individual_watts: 1.0e+31"),
    ("sigma2.yaml", "p_sum_max_watts: 1.5", "p_sum_max_watts: 1.5\nsigma2_watts: 1.0"),
    ("p_sum_bool.yaml", "p_sum_max_watts: 1.5", "p_sum_max_watts: true"),
    ("ff_csv.yaml", "delta_db: [20.0, 20.0]", "channel_csv: ff.csv\nsigma2_watts: 1.0"),
    ("csv_rows.yaml", "receive_antennas: 2\ndelta_db: [20.0, 20.0]",
     "receive_antennas: 3\nchannel_csv: h.csv\nsigma2_watts: 1.0"),
]
# the channel CSV of ff_csv.yaml: not UTF-8
FF_CSV = b"1+0j,0+0j\n0+0j,1\xff+0j\n"
# the channel CSV of csv_rows.yaml: 2 rows, where the file says 3 antennas
H_CSV = "1+0j,0+0j\n0+0j,1+0j\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    lines = []
    fig2 = (ROOT / "scenarios" / "fig2.yaml").read_text()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "ff.csv").write_bytes(FF_CSV)
        Path(tmp, "h.csv").write_text(H_CSV)
        runs = [(command, fig, str(ROOT / "scenarios" / f"{fig}.yaml"), extra, with_out)
                for command, fig, extra, with_out in RUNS]
        for name, old, new in INVALID:
            assert old in fig2, old
            Path(tmp, name).write_text(fig2.replace(old, new))
            runs.append(("solve", name, os.path.join(tmp, name), [], False))
        for i, (command, label, scenario, extra, with_out) in enumerate(runs):
            argv = [command, "--scenario", scenario, *extra]
            out = os.path.join(tmp, f"{i}.csv")
            if with_out:
                argv += ["--out", out]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            out_digest = _sha256(Path(out).read_bytes()) if with_out else "-"
            err = stderr.getvalue().replace(tmp, "$TMP")
            name = " ".join([command, label, *extra, *(["--out"] if with_out else [])])
            lines.append(
                f"{name}: exit {code} stdout {_sha256(stdout.getvalue().encode())} out {out_digest}"
                f" stderr {_sha256(err.encode())}"
            )
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
