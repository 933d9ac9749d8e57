"""The same output bytes under every OpenBLAS kernel and numpy SIMD level.

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

numpy also picks SIMD kernels of its own for the CPU, unless
``NPY_DISABLE_CPU_FEATURES`` turns groups of them off, and the bits of
such ufuncs as ``np.log1p`` and ``np.exp`` follow that choice.  With the
BLAS kernel fixed, no output may: ``chowliu`` takes each pair's
``log1p`` with ``math.log1p``, numpy's generators draw in scalar C, and
the package's other elementwise steps are IEEE products, sums, quotients
and square roots, which every SIMD level rounds alike.

Claims covered:
  - Under each of Prescott, Sandybridge, Haswell, SkylakeX and Zen that
    this CPU can run, a ``simulate`` CSV spanning two row blocks,
    ``verify --random 30 7``, and ``verify --model`` and ``chow-check
    --fit`` on a d = 12 fit document give the bytes of the default kernel.
  - Under each of them, and under the default kernel, the correlations of
    ``correlation_from_dataset`` equal their own transpose exactly, for
    d in ``GRAM_DIMS``, with and without ``diff``.
  - With numpy's X86_V4 group off, and with X86_V3 and X86_V4 off, where
    this CPU has them, the child reports those groups off, and its digests
    of those commands, of ``fit --diff`` and ``chow-check --data`` on the
    bundled CSV and of that CSV's mutual-information weights equal those
    of a child with every group on.
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
from treecascade import random_unit_variance_model, sample_prices_path, save_fit
from treecascade.dataio import _block_rows

#: Each kernel and the /proc/cpuinfo flag it needs ("pni" is SSE3).
KERNELS = {"Prescott": "pni", "Sandybridge": "avx", "Haswell": "avx2", "SkylakeX": "avx512f", "Zen": "avx2"}

#: numpy dispatch groups to turn off together, each lowering its SIMD level by one.
DISPATCH_SETTINGS = ("X86_V4", "X86_V3 X86_V4")

D = 12

#: Column counts of the Gram symmetry check, 1 to 400: either side of 64,
#: past 128, and a 400-column Gram larger than 1 MiB.
GRAM_DIMS = (1, 2, 7, 64, 65, 129, 400)

# First, with dispatch groups turned off, one line per group saying whether
# numpy still runs it.  Then one digest line per command: its name, exit code
# and the SHA-256 of its stdout, followed by the file it wrote, if any.  Given
# a CSV, fit --diff and chow-check --data run on it too, and a line gives the
# digest of its differenced mutual-information weights, whose bits chow-check
# prints to six decimals only.  Then one line per Gram shape, saying whether
# its correlations are exactly symmetric.
CHILD = f"""\
import contextlib, hashlib, io, os, sys
import numpy as np
from treecascade import Dataset, correlation_from_dataset, load_csv
from treecascade.chowliu import mutual_information_weights
from treecascade.cli import main

doc, csv, n, data = sys.argv[1:]
for group in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split():  # set only where numpy 2 has the groups
    print(group, "on" if np._core._multiarray_umath.__cpu_features__[group] else "off")
fit = os.path.join(os.path.dirname(csv), "fit.json")
commands = [
    (["simulate", "--model", doc, "--sampler", "laplace", "--n", n, "--seed", "7", "--out", csv], csv),
    (["verify", "--random", "30", "7"], None),
    (["verify", "--model", doc], None),
    (["chow-check", "--fit", doc], None),
]
if data:
    commands += [(["fit", "--data", data, "--diff", "--out", fit], fit), (["chow-check", "--data", data], None)]
for argv, written in commands:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    digest = hashlib.sha256(stdout.getvalue().encode())
    if written is not None:
        with open(written, "rb") as handle:
            digest.update(handle.read())
    print(argv[0], code, digest.hexdigest())
if data:
    mi = mutual_information_weights(correlation_from_dataset(load_csv(data), diff=True))
    print("mi", hashlib.sha256(mi.tobytes()).hexdigest())
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
    """Runs the digest child under a kernel, or under OpenBLAS's own choice for None.

    ``disabled`` names numpy dispatch groups to turn off; ``data`` adds the
    commands on the bundled CSV.
    """
    if not blas_is_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    tmp_path = tmp_path_factory.mktemp("kernels")
    model = random_unit_variance_model(D, np.random.default_rng(29), magnitude_range=(0.3, 0.85))
    doc = tmp_path / "model.json"
    save_fit(fit_cascade(correlation_from_covariance(population_covariance(model))), doc)
    n = 2 * _block_rows(D) + 1  # three blocks, the last one a single row
    package_root = str(Path(treecascade.__file__).parents[1])

    def run(kernel, disabled=None, data=False):
        unset = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")
        env = {k: v for k, v in os.environ.items() if k not in unset}
        env["PYTHONPATH"] = os.pathsep.join([package_root, env.get("PYTHONPATH", "")])
        env["OPENBLAS_NUM_THREADS"] = "1"  # one thread keeps each child small
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        data_csv = str(sample_prices_path()) if data else ""
        # one CSV path for every child, since simulate's stdout names it
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(doc), str(tmp_path / "sim.csv"), str(n), data_csv],
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


def dispatch_features() -> dict[str, bool]:
    """numpy's dispatch groups and whether each runs in this process, or {} for a numpy without them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x keeps the module elsewhere
        return {}
    return __cpu_features__


@pytest.mark.parametrize("disabled", DISPATCH_SETTINGS)
def test_outputs_do_not_depend_on_numpy_dispatch(run_child, disabled):
    groups = disabled.split()
    features = dispatch_features()
    if not all(features.get(group) for group in groups):
        pytest.skip(f"numpy on this CPU does not run all of {disabled}")
    lowered = run_child(None, disabled, data=True).splitlines()
    assert lowered[: len(groups)] == [f"{group} off" for group in groups]
    assert lowered[len(groups) :] == run_child(None, data=True).splitlines()
