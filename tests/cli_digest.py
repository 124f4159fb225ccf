"""Digests of the CLI's output on the bundled scenarios, for checking byte-identity.

    python tests/cli_digest.py

This runs 12 commands through mupower.cli.main, in this order:

    solve            fig2, fig3 and fig4, each without and then with --out
    sweep-diversity  fig2 at --grid 41 (with --out) and --grid 7 (to stdout)
    sweep-fairness   fig3 at --grid 41 (with --out) and --grid 9 (to stdout)
    primal-dual      fig4 without and then with --out

and prints one line per command: the command, its exit code, the SHA-256
of what it wrote to stdout and the SHA-256 of its --out file ("-" when it
was given none). Two checkouts that print the same lines on one host wrote
the same bytes. The package is imported from PYTHONPATH when it is there
(so another checkout's src/ can be measured), else from this checkout's
src/. Pytest does not collect this file.
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, fig, extra, with_out) in enumerate(RUNS):
            argv = [command, "--scenario", str(ROOT / "scenarios" / f"{fig}.yaml"), *extra]
            out = os.path.join(tmp, f"{i}.csv")
            if with_out:
                argv += ["--out", out]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            out_digest = _sha256(Path(out).read_bytes()) if with_out else "-"
            name = " ".join([command, fig, *extra, *(["--out"] if with_out else [])])
            lines.append(f"{name}: exit {code} stdout {_sha256(stdout.getvalue().encode())} out {out_digest}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
