"""Runs one workload's ops in a closed loop, in-process, and reports raw timings.

One client, one op at a time: each op is one or two calls of
``treecascade.cli.main(argv)`` with stdout and stderr captured, timed with
``time.perf_counter`` around the calls only.  After each op its outputs are
checked (outside the timed region).  The loop starts another op only while
the previous op's cycle would still end within ``--seconds``.

While each op runs, a probe (calib.Probe) times a fixed pure-Python kernel
every 0.2 s, so each op's time can be expressed in runs of that kernel at
the speed the host gave the op.

With ``--trace 1`` untraced and traced ops alternate, so the tracing
overhead is measured within one run, and the spans go to ``--spans``.

The process's own peak RSS is reported, which is why the runner starts this
worker separately from input generation.  The last line of stdout is one
JSON object; run.py reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
from calib import Probe
from spans import Tracer

MIN_OPS = 3
MIN_OPS_TRACED = 4


@dataclass
class Op:
    """The argv of each command in one op, and the check of its outputs."""

    commands: list[list[str]]
    outputs: list[Path]
    check: Callable[[list], str | None]
    elements: int
    csv_bytes_in: int = 0


def build_op(meta: dict, inputs: Path, work: Path) -> Op:
    workload = meta["workload"]
    if workload in ("fit_tall", "fit_wide"):
        out = work / "f.json"
        argv = ["fit", "--data", str(inputs / meta["data"]), "--out", str(out)]
        if workload == "fit_tall":
            argv.insert(3, "--diff")
        return Op(
            [argv],
            [out],
            lambda results: check.check_fit(results, meta, out),
            meta["elements"],
            meta["input_bytes"],
        )
    if workload == "simulate_tall":
        out = work / "s.csv"
        argv = [
            "simulate", "--model", str(inputs / meta["model"]), "--sampler", "laplace",
            "--n", str(meta["n"]), "--seed", str(meta["sim_seed"]), "--out", str(out),
        ]
        reference = inputs / meta["reference"]
        return Op(
            [argv],
            [out],
            lambda results: check.check_simulate(results, meta, out, reference),
            meta["elements"],
        )
    model = str(inputs / meta["model"])
    return Op(
        [["verify", "--model", model], ["chow-check", "--fit", model]],
        [],
        lambda results: check.check_audit(results, meta),
        meta["elements"],
    )


def call_main(main, argv: list[str]) -> tuple[int | None, str, str]:
    """One CLI call with stdout and stderr captured; an exception gives code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def run_op(
    main, op: Op, probe: Probe | None = None, tamper: Callable[[list], None] | None = None
) -> tuple[float, str | None]:
    """Time one op and check it.

    ``probe`` samples the host's speed while the op runs; ``tamper`` may
    alter the outputs before the check.
    """
    for path in op.outputs:
        path.unlink(missing_ok=True)
    results = []
    with probe.sampling() if probe is not None else contextlib.nullcontext():
        start = time.perf_counter()
        for argv in op.commands:
            results.append(call_main(main, argv))
        seconds = time.perf_counter() - start
    if tamper is not None:
        tamper(results)
    return seconds, op.check(results)


def environment(root: Path) -> dict:
    """Interpreter, numpy and BLAS, thread pin, CPUs and src/ size; run.py adds the commit."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    src_files = sorted((root / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    from treecascade import cli

    meta = json.loads((args.inputs / "meta.json").read_text(encoding="utf-8"))
    args.work.mkdir(parents=True, exist_ok=True)
    op = build_op(meta, args.inputs, args.work)
    tracer = Tracer() if args.trace else None
    min_ops = MIN_OPS_TRACED if args.trace else MIN_OPS

    probe = Probe()
    op_s: list[float] = []
    probe_s: list[float] = []
    cal_s: list[float] = []
    traced: list[bool] = []
    failures: list[str | None] = []
    csv_bytes_out: list[int] = []
    start = time.perf_counter()
    last_cycle = 0.0
    while len(op_s) < min_ops or time.perf_counter() - start + last_cycle <= args.seconds:
        gc.collect()
        cycle_start = time.perf_counter()
        is_traced = tracer is not None and len(op_s) % 2 == 1
        with tracer.installed(len(op_s)) if is_traced else contextlib.nullcontext():
            seconds, failure = run_op(cli.main, op, probe)
        op_s.append(seconds)
        probe_s.append(probe.in_block_s)
        cal_s.append(probe.median_s())
        traced.append(is_traced)
        failures.append(failure)
        csv_bytes_out.append(sum(p.stat().st_size for p in op.outputs if p.suffix == ".csv" and p.exists()))
        last_cycle = time.perf_counter() - cycle_start
    measured_s = time.perf_counter() - start

    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "op_s": op_s,
        "probe_s": probe_s,
        "cal_s": cal_s,
        "traced": traced,
        "failures": failures,
        "elements_per_op": op.elements,
        "csv_bytes_in": op.csv_bytes_in,
        "csv_bytes_out": csv_bytes_out,
        "measured_s": measured_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.per_op() if tracer is not None else {},
        "environment": environment(Path(__file__).resolve().parent.parent),
    }))


if __name__ == "__main__":
    main()
