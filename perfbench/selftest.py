"""Self-test of the benchmark's output checks and tracer, at tiny sizes.

    PYTHONPATH=src python3 perfbench/selftest.py

For every workload it generates tiny inputs, runs the op once through the
worker's ``run_op`` and expects it to pass; then it runs the op again with a
planted fault (a wrong tree, a corrupted fit document, a truncated output
CSV, a failed verify row, ...) and expects the op to be counted as failed.
It also runs one traced op and checks that the spans nest and that every
wrapped function is restored afterwards, and checks that the probe samples
the host's speed inside a block and disarms its timer.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import gen
import worker
from calib import PROBE_INTERVAL_S, Probe
from spans import Tracer

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / ".cache" / "selftest"


def edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def reattach_leaf(doc: dict) -> None:
    """Move one leaf to another parent: still a valid document, wrong tree."""
    parents = {e["parent"] for e in doc["edges"]}
    edge = next(e for e in doc["edges"] if e["child"] not in parents)
    edge["parent"] = next(v for v in range(doc["d"]) if v not in (edge["child"], edge["parent"]))


def truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def change_one_value(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[0] = repr(float(cells[0]) + 1e-6)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def replace_stdout(k: int, old: str, new: str):
    def tamper(results):
        code, out, err = results[k]
        results[k] = (code, out.replace(old, new, 1), err)

    return tamper


def set_exit_code(results) -> None:
    code, out, err = results[0]
    results[0] = (2, out, err)


def plants(workload: str, op: worker.Op) -> dict:
    """Named tamper functions that must each make the op fail."""
    if workload in ("fit_tall", "fit_wide"):
        out = op.outputs[0]
        return {
            "wrong tree": lambda r: edit_json(out, reattach_leaf),
            "objective off by 1e-6": lambda r: edit_json(out, lambda d: d.update(objective=d["objective"] + 1e-6)),
            "not certified unique": lambda r: edit_json(out, lambda d: d.update(tree_unique=False)),
            "truncated fit document": lambda r: truncate(out),
            "nonzero exit": set_exit_code,
        }
    if workload == "simulate_tall":
        out = op.outputs[0]
        return {
            "truncated output CSV": lambda r: truncate(out),
            "one value off by 1e-6": lambda r: change_one_value(out),
            "missing output CSV": lambda r: out.unlink(),
        }
    return {
        "failed verify row": replace_stdout(0, "  pass  ", "  FAIL  "),
        "trees_equal false": replace_stdout(1, "trees_equal: true", "trees_equal: false"),
        "chow-check edge swapped": replace_stdout(1, "edge x", "edge x1"),
        "nonzero exit": set_exit_code,
    }


def check_tracer(op: worker.Op) -> list[str]:
    problems = []
    import treecascade.cli as cli_module
    import treecascade.regression as regression

    before = (cli_module.empirical_fit, regression.fit_cascade)
    tracer = Tracer()
    with tracer.installed(0):
        _, failure = worker.run_op(cli_module.main, op)
    if failure is not None:
        problems.append(f"traced op failed: {failure}")
    if (cli_module.empirical_fit, regression.fit_cascade) != before:
        problems.append("tracer did not restore the wrapped functions")
    names = {span[3]: span for span in tracer.spans}
    by_id = {span[1]: span for span in tracer.spans}
    for name, parent in (("trees.mst_is_unique", "trees.maximum_spanning_tree"),
                         ("regression.fit_cascade", "regression.empirical_fit"),
                         ("dataio.load_csv", "cli.main")):
        span = names.get(name)
        if span is None or by_id[span[2]][3] != parent:
            problems.append(f"span {name} missing or not a child of {parent}")
    op_stats = tracer.per_op()[0]
    if not 0.0 < sum(op_stats["self_s"].values()) <= op_stats["op_s"] * (1 + 1e-9):
        problems.append("self times do not add up to the op time")
    return problems


def check_probe() -> list[str]:
    problems = []
    probe = Probe()
    block_s = 2.5 * PROBE_INTERVAL_S
    with probe.sampling():
        end = time.perf_counter() + block_s
        while time.perf_counter() < end:
            pass
    if len(probe.samples) < 2 or not 0.0 < probe.in_block_s < block_s:
        problems.append(f"probe took {len(probe.samples)} samples ({probe.in_block_s:.4f} s "
                        f"inside a {block_s} s block), expected up to 2 inside and 1 after")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append("probe left its timer armed")
    return problems


def main() -> int:
    from treecascade.cli import main as cli_main

    shutil.rmtree(WORKDIR, ignore_errors=True)
    attempted = failed = 0
    problems = check_probe()
    for workload in gen.WORKLOADS:
        inputs = WORKDIR / workload
        meta = gen.generate(workload, 7, inputs, scale="tiny")
        op = worker.build_op(meta, inputs, WORKDIR / f"{workload}-work")
        (WORKDIR / f"{workload}-work").mkdir()
        _, failure = worker.run_op(cli_main, op)
        attempted += 1
        print(f"{workload}: clean op -> {failure or 'pass'}")
        if failure is not None:
            problems.append(f"{workload}: clean op failed: {failure}")
            failed += 1
        for name, tamper in plants(workload, op).items():
            _, failure = worker.run_op(cli_main, op, tamper=tamper)
            attempted += 1
            failed += failure is not None
            print(f"{workload}: {name} -> {failure or 'NOT DETECTED'}")
            if failure is None:
                problems.append(f"{workload}: planted fault not detected: {name}")
        if workload == "fit_wide":
            problems += check_tracer(op)
    print(f"{failed} of {attempted} ops counted as failed (error_rate {failed / attempted:.3f})")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
