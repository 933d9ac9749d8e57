"""The same output bytes under every OpenBLAS kernel.

OpenBLAS picks a kernel for the CPU it runs on, unless the environment
variable ``OPENBLAS_CORETYPE`` names one, and the kernel fixes the
summation order of its products.  The draws of ``simulate`` and the
covariance of ``verify`` and ``chow-check --fit`` use no BLAS product, and
``verify`` checks its closed-form inverse by elementwise residuals, with no
LAPACK call, so the bytes of all three must not depend on the kernel.  Each
kernel runs in its own child process, and its digests must equal those of
a child that lets OpenBLAS choose.  ``fit`` is left out: its correlation
Gram ``z.T @ z`` is a BLAS product, whose last bits follow the kernel.
Its exact symmetry does not: numpy forms it with one ``syrk`` and mirrors
the triangle it computed, and ``correlation_from_dataset`` relies on
this instead of averaging the Gram with its transpose.

Claims covered:
  - Under each of Prescott, Sandybridge, Haswell, SkylakeX and Zen that
    this CPU can run, a ``simulate`` CSV spanning two row blocks,
    ``verify --random 30 7``, and ``verify --model`` and ``chow-check
    --fit`` on a d = 12 fit document give the bytes of the default kernel.
  - Under each of them, and under the default kernel, the correlations of
    ``correlation_from_dataset`` equal their own transpose exactly, for
    d in ``GRAM_DIMS``, with and without ``diff``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treecascade
from treecascade import correlation_from_covariance, fit_cascade, population_covariance
from treecascade import random_unit_variance_model, save_fit
from treecascade.dataio import _block_rows

#: Each kernel and the /proc/cpuinfo flag it needs ("pni" is SSE3).
KERNELS = {"Prescott": "pni", "Sandybridge": "avx", "Haswell": "avx2", "SkylakeX": "avx512f", "Zen": "avx2"}

D = 12

#: Column counts of the Gram symmetry check, 1 to 400: either side of 64,
#: past 128, and a 400-column Gram larger than 1 MiB.
GRAM_DIMS = (1, 2, 7, 64, 65, 129, 400)

# One digest line per command: its name, exit code and the SHA-256 of its
# stdout, followed for simulate by the CSV it wrote.  Then one line per
# Gram shape, saying whether its correlations are exactly symmetric.
CHILD = f"""\
import contextlib, hashlib, io, sys
import numpy as np
from treecascade import Dataset, correlation_from_dataset
from treecascade.cli import main

doc, csv, n = sys.argv[1:]
for argv in (
    ["simulate", "--model", doc, "--sampler", "laplace", "--n", n, "--seed", "7", "--out", csv],
    ["verify", "--random", "30", "7"],
    ["verify", "--model", doc],
    ["chow-check", "--fit", doc],
):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode())
    if argv[0] == "simulate":
        with open(csv, "rb") as handle:
            digest.update(handle.read())
    print(argv[0], code, digest.hexdigest())
rng = np.random.default_rng(3)
for d in {GRAM_DIMS}:
    ds = Dataset(values=rng.standard_normal((2 * d + 3, d)), names=tuple(map(str, range(d))))
    for diff in (False, True):
        corr = correlation_from_dataset(ds, diff=diff).corr
        print("symmetric" if np.array_equal(corr, corr.T) else "ASYMMETRIC", d, diff)
"""


def blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # no build record, or a numpy without mode=
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next((set(line.split(":", 1)[1].split()) for line in info if line.startswith("flags")), set())
    except OSError:
        return set()


@pytest.fixture(scope="module")
def run_child(tmp_path_factory):
    """Runs the digest child under a kernel, or under OpenBLAS's own choice for None."""
    if not blas_is_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    tmp_path = tmp_path_factory.mktemp("kernels")
    model = random_unit_variance_model(D, np.random.default_rng(29), magnitude_range=(0.3, 0.85))
    doc = tmp_path / "model.json"
    save_fit(fit_cascade(correlation_from_covariance(population_covariance(model))), doc)
    n = 2 * _block_rows(D) + 1  # three blocks, the last one a single row
    package_root = str(Path(treecascade.__file__).parents[1])

    def run(kernel):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
        env["OPENBLAS_NUM_THREADS"] = "1"  # one thread keeps each child small
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        # one CSV path for every child, since simulate's stdout names it
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(doc), str(tmp_path / "sim.csv"), str(n)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert child.returncode == 0, child.stderr
        return child.stdout

    return run


@pytest.fixture(scope="module")
def default_digests(run_child):
    digests = run_child(None)
    lines = digests.splitlines()
    assert [line.split()[:2] for line in lines[:4]] == [
        ["simulate", "0"], ["verify", "0"], ["verify", "0"], ["chow-check", "0"]
    ]
    assert lines[4:] == [f"symmetric {d} {diff}" for d in GRAM_DIMS for diff in (False, True)]
    return digests


@pytest.mark.parametrize("kernel", KERNELS)
def test_outputs_do_not_depend_on_the_kernel(run_child, default_digests, kernel):
    if KERNELS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU lacks {KERNELS[kernel]}")
    assert run_child(kernel) == default_digests
