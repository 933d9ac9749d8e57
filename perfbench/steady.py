"""Steadiness mode: repeat one workload over several seeds and judge the spread.

    python3 perfbench/steady.py --workload fit_wide

It makes two sets of runs.  Each set runs perfbench/run.py once per seed
1..10 with the ``run_seconds`` of BENCHMARK.json.  For every end-to-end
metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
against the metric's bound, and how much worse the second set's median is
than the first's, which must stay within the bound as well.  Run from the
repository root.  ``--record FILE`` merges the summary into FILE under the
workload's name, which is how baseline.json is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: run.py exited with code {proc.returncode} on seed {seed}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {result['failed']} of {result['attempted']} ops failed on seed {seed}")
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def summarize(values: list[float], metric: dict) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": metric["bound"],
        "within_bound": spread <= metric["bound"],
        "within_third": spread < metric["bound"] / 3,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--record", type=Path, help="merge the summary into this JSON file")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = []
    for k in range(SETS):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        for seed in SEEDS:
            result = run_once(args.workload, seed, seconds)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"set {k + 1} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.5g}" for name in metrics), flush=True)
        sets.append({name: summarize(v, metrics[name]) for name, v in values.items()})

    print(f"\n{args.workload}: {len(SEEDS)} runs per set, {seconds} s each")
    print(f"{'metric':<16}{'set':>4}{'median':>14}{'spread':>9}{'bound':>7}  verdict")
    for name, metric in metrics.items():
        for k, per_metric in enumerate(sets):
            summary = per_metric[name]
            verdict = "steady" if summary["within_third"] else "within bound" if summary["within_bound"] else "TOO WIDE"
            print(f"{name:<16}{k + 1:>4}{summary['median']:>14.6g}{summary['spread']:>9.4f}"
                  f"{metric['bound']:>7.2f}  {verdict}")
        drift = worse_by(sets[0][name]["median"], sets[1][name]["median"], metric["better"])
        sets[1][name]["worse_than_first"] = drift
        print(f"{'':<20}second median worse by {drift:+.4f} "
              f"({'ok' if drift <= metric['bound'] else 'EXCEEDS BOUND'})")

    record_file = HERE / "results" / f"{args.workload}-seed{SEEDS[-1]}-trace0.json"
    environment = json.loads(record_file.read_text(encoding="utf-8"))["environment"]
    summary = {"seeds": list(SEEDS), "seconds": seconds, "environment": environment, "sets": sets}
    out = HERE / "results" / f"steady-{args.workload}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.record is not None:
        recorded = json.loads(args.record.read_text(encoding="utf-8")) if args.record.exists() else {}
        recorded[args.workload] = {**recorded.get(args.workload, {}), **summary}
        args.record.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
