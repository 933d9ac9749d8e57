#!/usr/bin/env python3
"""Check that two checkouts of treecascade give the same bytes on a fixed set of commands.

    python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Every command in ``COMMANDS``
runs as the ``treecascade`` CLI under ``PYTHONPATH=<root>/src`` with one
BLAS thread, each checkout in a temporary directory of its own that starts
with a copy of that checkout's bundled CSV; later commands read the fits
that earlier ones write.  For each command the exit code, stdout, stderr
and the sha256 of every file it writes must match.  One line is printed
per command, and the exit status is 1 on any difference.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CSV = "prices.csv"
FITS = ("fit.json", "fit_root3.json")
SAMPLERS = ("gaussian", "laplace", "uniform", "rademacher", "dependent")

COMMANDS: tuple[tuple[str, ...], ...] = (
    ("fit", "--data", CSV, "--diff", "--out", FITS[0]),
    ("fit", "--data", CSV, "--diff", "--root", "3", "--out", FITS[1]),
    ("chow-check", "--data", CSV),
    ("verify", "--random", "30", "7"),
    ("verify", "--random", "300", "4"),
    ("verify", "--random", "2000", "1"),
    *(
        command
        for fit in FITS
        for command in (
            ("verify", "--model", fit),
            ("chow-check", "--fit", fit),
            *(("cluster", "--fit", fit, "--k", k) for k in ("1", "2", "5", "30")),
            ("export-dot", "--fit", fit, "--out", fit.replace(".json", ".dot")),
        )
    ),
    *(
        ("simulate", "--model", FITS[0], "--sampler", s, "--n", "5000", "--seed", "3", "--out", f"{s}.csv")
        for s in SAMPLERS
    ),
)

# sys.argv[1:] holds the command, as the installed entry point would see it
_RUN_CLI = "import sys; from treecascade.cli import main; sys.exit(main())"
_PARTS = ("exit code", "stdout", "stderr", "files")  # what _run returns, in order


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def _run(root: Path, cwd: Path, command: tuple[str, ...]) -> tuple:
    """Exit code, stdout, stderr and ``{name: sha256}`` of the files ``command`` wrote."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkouts as they are
    before = _digests(cwd)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_CLI, *command], cwd=cwd, env=env, capture_output=True
    )
    written = {k: v for k, v in _digests(cwd).items() if before.get(k) != v}
    return done.returncode, done.stdout, done.stderr, written


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "treecascade" / "cli.py").is_file():
            print(f"error: {root} is not a treecascade checkout", file=sys.stderr)
            return 2
    differ = 0
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        dirs = [Path(a), Path(b)]
        for root, cwd in zip(roots, dirs):
            shutil.copyfile(root / "src" / "treecascade" / "data" / "dow30_prices.csv", cwd / CSV)
        for command in COMMANDS:
            parent, change = (_run(root, cwd, command) for root, cwd in zip(roots, dirs))
            diff = [name for name, x, y in zip(_PARTS, parent, change) if x != y]
            differ += bool(diff)
            verdict = "DIFFERS in " + ", ".join(diff) if diff else "same"
            print(f"{verdict}: exit {parent[0]}, {len(parent[3])} files: {' '.join(command)}", flush=True)
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
