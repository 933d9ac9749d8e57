"""Output checks for benchmark ops.

Each check takes the results of the op's commands (exit code, captured
stdout, captured stderr), the input's ``meta.json`` and the paths the op
wrote, and returns ``None`` when the output is right or a one-line reason
when it is not.  A failed check counts the op as failed.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np

#: |objective - (d - sum of weights)| allowed in a fit document.
IDENTITY_TOL = 1e-12
#: Simulated values must satisfy |value - reference| <= ATOL + RTOL * |reference|.
#: Values have unit variance; the reference inverts (I - A) numerically where
#: treecascade multiplies coefficients along paths, which differ by ~1e-15.
SIM_RTOL = 1e-9
SIM_ATOL = 1e-9
_CHUNK_ROWS = 10_000
_EDGE_LINE = re.compile(r"^edge x(\d+) -- x(\d+):")


def _exit_problem(result) -> str | None:
    code, _, stderr = result
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    return None


def _tree(edges) -> set[tuple[int, int]]:
    return {(min(a, b), max(a, b)) for a, b in edges}


def check_fit(results, meta: dict, out: Path) -> str | None:
    """The tree is the reference tree, certified unique, and the objective identity holds."""
    problem = _exit_problem(results[0])
    if problem:
        return problem
    try:
        doc = json.loads(out.read_text(encoding="utf-8"))
        d = doc["d"]
        tree = _tree((e["child"], e["parent"]) for e in doc["edges"])
        weights = [float(w) for w in doc["weights"]]
        objective = float(doc["objective"])
        unique = doc["tree_unique"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable fit document: {exc!r}"
    if d != meta["d"] or len(weights) != d - 1:
        return f"fit document has d={d} and {len(weights)} weights, expected d={meta['d']}"
    if tree != _tree(meta["tree"]):
        return "fitted tree differs from the reference tree"
    if unique is not True:
        return "fitted tree is not certified unique"
    gap = abs(objective - (d - sum(weights)))
    if not gap <= IDENTITY_TOL:
        return f"objective identity gap {gap!r} exceeds {IDENTITY_TOL}"
    return None


def check_simulate(results, meta: dict, out: Path, reference: Path) -> str | None:
    """Right header and shape, finite values, and agreement with the reference draw.

    The output is compared in chunks of rows, so the check holds far less
    in memory than the op itself.
    """
    problem = _exit_problem(results[0])
    if problem:
        return problem
    n, d = meta["n"], meta["d"]
    rows = 0
    try:
        with open(out, encoding="utf-8") as handle, open(reference, "rb") as ref:
            header = handle.readline().rstrip("\n").split(",")
            if header != meta["names"]:
                return f"header {header[:3]}... differs from the model's names"
            while True:
                lines = list(itertools.islice(handle, _CHUNK_ROWS))
                if not lines:
                    break
                block = np.loadtxt(lines, delimiter=",", ndmin=2)
                if block.shape[1] != d:
                    return f"row {rows + 1}: {block.shape[1]} columns, expected {d}"
                if not np.isfinite(block).all():
                    return f"non-finite value within rows {rows + 1}..{rows + len(block)}"
                expected = np.fromfile(ref, dtype="<f8", count=block.size)
                if expected.size != block.size:
                    return f"more than {n} rows"
                expected = expected.reshape(block.shape)
                if not (np.abs(block - expected) <= SIM_ATOL + SIM_RTOL * np.abs(expected)).all():
                    return f"values within rows {rows + 1}..{rows + len(block)} differ from the reference"
                rows += len(block)
    except (OSError, ValueError) as exc:
        return f"unreadable output after row {rows}: {exc}"
    if rows != n:
        return f"{rows} rows, expected {n}"
    return None


def check_audit(results, meta: dict) -> str | None:
    """Every verify row passes, and chow-check lists the chain's edges with equal trees."""
    verify, chow = results
    problem = _exit_problem(verify) or _exit_problem(chow)
    if problem:
        return problem
    verify_lines = verify[1].splitlines()
    rows = [line.split() for line in verify_lines if line.startswith("  ")]
    if not rows or any(len(row) < 2 or row[1] != "pass" for row in rows):
        return "a verify row did not pass"
    if "result: pass" not in verify_lines:
        return "verify did not report result: pass"
    chow_lines = chow[1].splitlines()
    if "trees_equal: true" not in chow_lines:
        return "chow-check did not report trees_equal: true"
    edges = {(int(m[1]), int(m[2])) for m in map(_EDGE_LINE.match, chow_lines) if m}
    if _tree(edges) != _tree(meta["tree"]):
        return "chow-check edges differ from the chain"
    return None
