"""Command-line front end for the fitting/simulation/verification pipeline.

Subcommands: fit, simulate, verify, cluster, chow-check, export-dot.
Every command is deterministic given its flags (randomness always flows
through an explicit seed into numpy's PCG64 generator).  Diagnostics go
to standard error; data goes to files or standard output.  Exit codes:
0 success, 1 a verification or correspondence check failed, 2 invalid
input, bad data, file problems, or an allocation that fails.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dataio
from .cascade import (
    _covariance,
    _lemma_report,
    _simulated_blocks,
    cascade_inverse,
    coefficient_matrix,
    get_sampler,
    population_covariance,
    random_unit_variance_model,
)
from .chowliu import GaussianSummary, correspondence_check
from .errors import InvalidInputError, TreeCascadeError
from .regression import (
    correlation_from_covariance,
    correlation_from_dataset,
    empirical_fit,
    fit_cascade,
    squared_correlation_graph,
)
from .trees import _hop_and_meet_matrices, _path_neighbor_gaps, cluster_by_edge_deletion, root_tree


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TreeCascadeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecascade",
        description="Fit, simulate, verify, cluster, and export tree cascade models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a cascade tree to a CSV dataset")
    p.add_argument("--data", required=True, help="CSV of observations (header row required)")
    p.add_argument("--diff", action="store_true", help="first-difference rows before fitting")
    p.add_argument("--root", type=int, default=None, help="root vertex for edge orientation")
    p.add_argument("--out", required=True, help="output fit document (JSON)")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("simulate", help="draw samples from a fitted model")
    p.add_argument("--model", required=True, help="fit document to simulate from")
    p.add_argument("--sampler", default="gaussian", help="error sampler name")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("verify", help="check the structural identities of a model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="fit document to verify")
    group.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("D", "SEED"),
        help="verify a random unit-variance model on D vertices",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("cluster", help="cluster columns by deleting light tree edges")
    p.add_argument("--fit", required=True, help="fit document")
    p.add_argument("--k", type=int, required=True, help="number of clusters")
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("chow-check", help="compare the cascade tree with the Gaussian MI tree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="CSV of observations")
    group.add_argument("--fit", help="fit document describing a model")
    p.set_defaults(handler=_cmd_chow_check)

    p = sub.add_parser("export-dot", help="write the fitted tree as a DOT graph")
    p.add_argument("--fit", required=True, help="fit document")
    p.add_argument("--out", required=True, help="output DOT path")
    p.set_defaults(handler=_cmd_export_dot)

    return parser


def _cmd_fit(args) -> int:
    if args.root is not None:
        if args.root < 0:
            raise InvalidInputError(f"--root must be nonnegative, got {args.root}")
        header = dataio.read_csv_header(args.data)
        if args.root >= len(header):
            raise InvalidInputError(
                f"--root {args.root} out of range for {len(header)} columns"
            )
    # the loaded values are the only n-by-d array: the fit overwrites them
    ds = dataio.load_csv(args.data)
    fit = empirical_fit(ds, root_hint=args.root, diff=args.diff, overwrite=True)
    dataio.save_fit(fit, args.out)
    identity_gap = _identity_gap(fit)
    print(f"objective: {fit.objective!r}")
    print(f"identity |objective - (d - sum weights)|: {identity_gap:.3e}")
    print(f"tree_unique: {str(fit.tree_unique).lower()}")
    return 0


def _cmd_simulate(args) -> int:
    doc = dataio.load_document(args.model)
    model = dataio.model_from_document(doc)
    sampler = get_sampler(args.sampler)
    names = doc.get("names")
    if names is None:
        names = [f"x{i}" for i in range(model.d)]
    # no n-by-d array: each block of rows is drawn, transformed and written in turn
    dataio._write_csv(args.out, names, _simulated_blocks(model, sampler, args.n, args.seed))
    print(f"wrote {args.n} samples x {model.d} columns to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.model is not None:
        model = dataio.model_from_document(dataio.load_document(args.model))
        label = args.model
    else:
        d, seed = args.random
        if d < 1:
            raise InvalidInputError(f"--random D must be >= 1, got {d}")
        model = random_unit_variance_model(d, np.random.default_rng(seed))
        label = f"random(d={d}, seed={seed})"
    if not model.unit_variance:
        raise InvalidInputError("verify requires a unit-variance model document")

    # the model's algebra, built once; the hop matrix does not depend on the root
    inv = cascade_inverse(model)
    cov = _covariance(inv, model.error_variance_vector())
    hop, meet = _hop_and_meet_matrices(model.rt)

    rows: list[tuple[str, bool, str]] = []
    inv_gap = float(np.max(np.abs(inv - np.linalg.inv(np.eye(model.d) - coefficient_matrix(model)))))
    rows.append(("closed-form-inverse", inv_gap <= 1e-12, f"max gap {inv_gap:.3e}"))

    for check in _lemma_report(inv, cov, hop, meet).checks:
        rows.append((check.name, check.passed, f"{check.measure} = {check.worst:.3e}"))

    summary = correlation_from_covariance(cov)
    gaps = _path_neighbor_gaps(squared_correlation_graph(summary).matrix, hop)
    triangle = bool((gaps > 0.0).all())
    rows.append(("strict-triangle", triangle, "squared-correlation weights"))

    fit = fit_cascade(summary)
    recovered = fit.tree.edges == model.rt.tree.edges
    rows.append(("mst-recovery", recovered and fit.tree_unique, f"unique={fit.tree_unique}"))

    identity_gap = _identity_gap(fit)
    rows.append(("objective-identity", identity_gap <= 1e-12, f"gap {identity_gap:.3e}"))

    print(f"verification of {label}")
    width = max(len(name) for name, _, _ in rows)
    for name, ok, detail in rows:
        print(f"  {name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    all_ok = all(ok for _, ok, _ in rows)
    print(f"result: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _identity_gap(fit) -> float:
    """``|objective - (d - sum of weights)|``, zero at an exact optimum."""
    return abs(fit.objective - (fit.tree.d - sum(fit.weights.values())))


def _cmd_cluster(args) -> int:
    fit = dataio.load_fit(args.fit)
    d = fit.tree.d
    if not (1 <= args.k <= d):
        raise InvalidInputError(f"--k {args.k} out of range 1..{d}")
    names = fit.names if fit.names is not None else tuple(f"x{i}" for i in range(d))
    for group in cluster_by_edge_deletion(fit.tree, fit.weights, args.k):
        print(", ".join(names[v] for v in group))
    return 0


def _cmd_chow_check(args) -> int:
    if args.data is not None:
        ds = dataio.load_csv(args.data)
        cov = correlation_from_dataset(ds, overwrite=True).corr
        names = ds.names
    else:
        model = dataio.model_from_document(dataio.load_document(args.fit))
        cov = population_covariance(model)
        names = tuple(f"x{i}" for i in range(model.d))
    report = correspondence_check(GaussianSummary(cov))
    for (i, j), rho_sq, mi in report.edge_pairs:
        print(f"edge {names[i]} -- {names[j]}: squared_correlation={rho_sq:.6f} mi_weight={mi:.6f}")
    print(f"trees_equal: {str(report.trees_equal).lower()}")
    if report.tie_detected:
        print("tie detected: the maximum spanning tree is not unique")
    return 0 if report.trees_equal else 1


def _cmd_export_dot(args) -> int:
    fit = dataio.load_fit(args.fit)
    names = fit.names if fit.names is not None else tuple(f"x{i}" for i in range(fit.tree.d))
    # a quoted DOT ID escapes its backslashes, then its quotes
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
    rooted = fit.root_hint_source == "user"
    lines = ["digraph cascade {" if rooted else "graph cascade {"]
    lines += [f'  "{name}";' for name in names]
    if rooted:
        rt = root_tree(fit.tree, fit.root)
        for child in sorted(fit.coeffs):
            parent = rt.parent[child]
            w = fit.weights[(min(child, parent), max(child, parent))]
            lines.append(f'  "{names[parent]}" -> "{names[child]}" [label="{w:.4f}"];')
    else:
        for i, j in fit.tree.sorted_edges():
            lines.append(f'  "{names[i]}" -- "{names[j]}" [label="{fit.weights[(i, j)]:.4f}"];')
    lines.append("}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(fit.tree.edges)} edges to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
