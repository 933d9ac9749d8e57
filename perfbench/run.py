"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 27 --trace 0

Run from the root of a checkout that holds ``src/treecascade``.  The run

1. generates (or reuses) the workload's inputs for ``--seed`` in a separate
   process (perfbench/gen.py, numpy only, cached in perfbench/.cache);
2. runs the ops in a worker process (perfbench/worker.py) for ``--seconds``,
   with BLAS threads pinned to 1;
3. with ``--trace 0``, times a fresh interpreter's ``import treecascade.cli``
   twelve times, before and after the ops, with a probe sampling the host's
   speed during each import (``setup_s`` is the median import time scaled
   to a fixed host speed);
4. prints each metric with its unit, writes a record with the environment
   and every per-op time to perfbench/results, and prints one JSON object as
   the last line: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

It exits with code 2, printing no result, when the checkout has no sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from gen import WORKLOADS
from spans import MODULES, TARGETS, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
RESULTS = HERE / "results"
# Imports timed before and after the ops, so setup_s samples two host states.
SETUP_REPEATS = (6, 6)
# Raw import times drift with the shared host's speed by up to 1.4x between
# runs.  So a probe samples the host's speed every SETUP_PROBE_INTERVAL_S
# during each import (about 15 samples), and the import time, less the
# samples, is scaled to a host on which one sample takes SETUP_REF_SAMPLE_S,
# typical of the host the benchmark was built on.
SETUP_PROBE_INTERVAL_S = 0.01
SETUP_REF_SAMPLE_S = 0.0015
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); from calib import Probe\n"
    f"probe = Probe({SETUP_PROBE_INTERVAL_S})\n"
    "with probe.sampling():\n"
    "    start = time.perf_counter(); import treecascade.cli; import_s = time.perf_counter() - start\n"
    "print(import_s - probe.in_block_s, probe.median_s())"
)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(with_src: bool) -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    if with_src:
        env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> str:
    """Run a child to completion and return its stdout; fail loudly otherwise."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {argv[0]} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """(import seconds, median probe sample seconds) of ``repeats`` fresh interpreters."""
    env = child_env(with_src=True)
    samples = []
    for _ in range(repeats):
        import_s, cal_s = run_child(["-c", SETUP_CODE, str(HERE)], env, 120).split()[-2:]
        samples.append((float(import_s), float(cal_s)))
    return samples


def source_identity() -> dict:
    """The git commit when there is one, and a digest of src/ either way."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def op_cal(raw: dict) -> list[float]:
    """Each op's time, less its probe samples, in runs of the probe's kernel during it."""
    return [(t - p) / cal for t, p, cal in zip(raw["op_s"], raw["probe_s"], raw["cal_s"])]


def wall(raw: dict, setup: list[tuple[float, float]]) -> dict:
    """Wall-clock figures, printed and recorded beside the gated metrics."""
    op_s = raw["op_s"]
    figures = {
        "op_p50_s": (statistics.median(op_s), "s"),
        "elements_per_s": (raw["elements_per_op"] * len(op_s) / sum(op_s), "1/s"),
        "calibration_p50_s": (statistics.median(raw["cal_s"]), "s"),
    }
    if setup:
        figures["import_p50_s"] = (statistics.median(t for t, _ in setup), "s")
    return figures


def end_to_end(raw: dict, setup: list[tuple[float, float]]) -> dict:
    costs = op_cal(raw)
    return {
        "op_p50_cal": (statistics.median(costs), "cal"),
        "elements_per_cal": (raw["elements_per_op"] * len(costs) / sum(costs), "1/cal"),
        "setup_s": (statistics.median(t / cal for t, cal in setup) * SETUP_REF_SAMPLE_S, "s"),
        "peak_rss_mib": (raw["maxrss_kib"] / 1024.0, "MiB"),
    }


def per_layer(raw: dict) -> dict:
    """Medians over traced ops of self time, calls, throughput and module roll-ups."""
    traced = [k for k, t in enumerate(raw["traced"]) if t]
    ops = [raw["layers"].get(str(k), {"op_s": 0.0, "self_s": {}, "calls": {}}) for k in traced]

    def med(values) -> float:
        return statistics.median(values)

    def mb_per_s(name: str, bytes_per_op: list[int]) -> float:
        rates = [
            b / 1e6 / op["self_s"][name] if op["self_s"].get(name) else 0.0
            for op, b in zip(ops, bytes_per_op)
        ]
        return med(rates)

    metrics = {}
    for target in TARGETS:
        name = span_name(target)
        metrics[f"{name}.self_s"] = (med([op["self_s"].get(name, 0.0) for op in ops]), "s")
        metrics[f"{name}.calls"] = (med([op["calls"].get(name, 0) for op in ops]), "count")
    metrics["dataio.load_csv.mb_per_s"] = (
        mb_per_s("dataio.load_csv", [raw["csv_bytes_in"] * op["calls"].get("dataio.load_csv", 0) for op in ops]),
        "MB/s",
    )
    metrics["dataio.save_csv.mb_per_s"] = (
        mb_per_s("dataio.save_csv", [raw["csv_bytes_out"][k] for k in traced]),
        "MB/s",
    )
    for module in MODULES:
        own = [sum(s for n, s in op["self_s"].items() if n.startswith(module + ".")) for op in ops]
        metrics[f"{module}.self_s"] = (med(own), "s")
        metrics[f"{module}.share"] = (
            med([s / op["op_s"] if op["op_s"] else 0.0 for s, op in zip(own, ops)]),
            "ratio",
        )
    untraced = [t for t, flag in zip(raw["op_s"], raw["traced"]) if not flag]
    metrics["trace.overhead_s"] = (med([raw["op_s"][k] for k in traced]) - med(untraced), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "treecascade" / "cli.py").is_file():
        print(f"error: no treecascade sources under {SRC}", file=sys.stderr)
        return 2

    inputs = Path(
        run_child(
            [str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed), "--cache", str(CACHE / "inputs")],
            child_env(with_src=False),
            600,
        ).strip()
    )
    setup = measure_setup(SETUP_REPEATS[0]) if not args.trace else []

    RESULTS.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = CACHE / f"work-{os.getpid()}"
    worker = [
        str(HERE / "worker.py"), "--inputs", str(inputs), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans", str(RESULTS / f"{label}.spans.jsonl"),
    ]
    try:
        out = run_child(worker, child_env(with_src=True), args.seconds + 150)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setup += measure_setup(SETUP_REPEATS[1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup)
    attempted = len(raw["op_s"])
    failed = sum(1 for f in raw["failures"] if f is not None)
    env = dict(raw["environment"], **source_identity())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "op_s": raw["op_s"],
        "probe_s": raw["probe_s"],
        "cal_s": raw["cal_s"],
        "traced": raw["traced"],
        "failures": raw["failures"],
        "setup_import_s": [t for t, _ in setup],
        "setup_cal_s": [cal for _, cal in setup],
        "error_rate": failed / attempted,
        "wall": {k: {"value": v, "unit": u} for k, (v, u) in wall(raw, setup).items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops in {raw['measured_s']:.2f} s, {failed} failed")
    print("op_s: " + " ".join(f"{t:.4f}" for t in raw["op_s"]))
    for k, failure in enumerate(raw["failures"]):
        if failure is not None:
            print(f"op {k} failed: {failure}")
    for name, (value, unit) in {**wall(raw, setup), **metrics}.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print("environment: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
