#!/usr/bin/env python3
"""Check that two checkouts of treecascade give the same bytes on a fixed set of commands.

    python tools/same_bytes.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout of this repository.  Every command in ``COMMANDS``
runs as the ``treecascade`` CLI under ``PYTHONPATH=<root>/src`` with one
BLAS thread, each checkout in a temporary directory of its own that starts
with a copy of that checkout's bundled CSV, the small CSV ``TIE_TEXT``,
the model documents in ``CHAINS`` and the malformed fit documents in
``BROKEN``; later commands read the fits that earlier ones write, and the
last ones replay rejections, so their messages are compared too.  For
each command the exit code, stdout, stderr and the sha256 of every file it
writes must match.  One line is printed per command, and the exit status
is 1 on any difference.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CSV = "prices.csv"
FITS = ("fit.json", "fit_root3.json")
SAMPLERS = ("gaussian", "laplace", "uniform", "rademacher", "dependent")
# columns with mean 0 and sum of squares n - 1 standardize to themselves, so
# every correlation is exact: all three are +-1/4, a tie in the squared
# correlations that sends chow-check through the full mutual-information matrix
TIE_CSV = "tie.csv"
TIE_TEXT = "a,b,c\n1,1,1\n-1,-1,0\n1,0,-1\n-1,1,-1\n0,-1,1\n"
# chains x0 -> x1 -> ... as (coefficients, error variances), None for unit
# variance: a d = 3 model that is not unit variance, whose covariance
# chow-check --fit normalizes and verify rejects, and a 200-vertex
# unit-variance chain at 0.1, whose far pairs' squared correlations are 0
CHAINS = {
    "not_unit.json": ((0.5, -0.4), (2.0, 1.0, 3.0)),
    "weak_chain.json": ((0.1,) * 199, None),
}
# d = 5 fit documents as (root, (child, parent) pairs): edges that close a
# cycle away from the root, and a root equal to d
BROKEN = {
    "unconnected.json": (0, ((1, 0), (2, 3), (3, 4), (4, 2))),
    "root_is_d.json": (5, ((1, 0), (2, 1), (3, 2), (4, 3))),
}

COMMANDS: tuple[tuple[str, ...], ...] = (
    ("fit", "--data", CSV, "--diff", "--out", FITS[0]),
    ("fit", "--data", CSV, "--diff", "--root", "3", "--out", FITS[1]),
    ("chow-check", "--data", CSV),
    ("chow-check", "--data", TIE_CSV),
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
    ("chow-check", "--fit", "not_unit.json"),
    ("verify", "--model", "weak_chain.json"),
    ("chow-check", "--fit", "weak_chain.json"),
    ("fit", "--data", CSV, "--root", "-1", "--out", "negative_root.json"),
    ("verify", "--model", "not_unit.json"),
    ("verify", "--random", "0", "1"),
    ("cluster", "--fit", FITS[0], "--k", "0"),
    *(
        command
        for doc in BROKEN
        for command in (
            ("verify", "--model", doc),
            ("export-dot", "--fit", doc, "--out", doc.replace(".json", ".dot")),
        )
    ),
)

# sys.argv[1:] holds the command, as the installed entry point would see it
_RUN_CLI = "import sys; from treecascade.cli import main; sys.exit(main())"
_PARTS = ("exit code", "stdout", "stderr", "files")  # what _run returns, in order


def _document(root: int, edges: tuple[tuple[int, int], ...], coeffs: tuple[float, ...], error_vars=None) -> str:
    """A fit document on ``len(edges) + 1`` vertices; ``error_vars`` of None makes it unit variance."""
    unit = error_vars is None
    if unit:
        error_vars = (1.0, *(1.0 - a * a for a in coeffs))
    return json.dumps({
        "format_version": 1,
        "d": len(edges) + 1,
        "root": root,
        "edges": [{"child": c, "parent": p, "coeff": a} for (c, p), a in zip(edges, coeffs)],
        "error_vars": list(error_vars),
        "unit_variance": unit,
        "objective": sum(error_vars),
        "weights": [a * a for a in coeffs],
        "tree_unique": True,
        "root_hint_source": "default",
        "names": None,
    })


def _chain_document(coeffs: tuple[float, ...], error_vars) -> str:
    """A fit document on the chain x0 -> x1 -> ..., rooted at x0."""
    return _document(0, tuple((i + 1, i) for i in range(len(coeffs))), coeffs, error_vars)


def _broken_document(root: int, edges: tuple[tuple[int, int], ...]) -> str:
    """A unit-variance fit document with every coefficient 0.5, whose fields past ``edges`` all check."""
    return _document(root, edges, (0.5,) * len(edges))


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
            (cwd / TIE_CSV).write_text(TIE_TEXT)
            for name, (coeffs, error_vars) in CHAINS.items():
                (cwd / name).write_text(_chain_document(coeffs, error_vars))
            for name, (root_vertex, edges) in BROKEN.items():
                (cwd / name).write_text(_broken_document(root_vertex, edges))
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
