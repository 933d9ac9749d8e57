"""Command-line front end for the fitting/simulation/verification pipeline.

Subcommands: fit, simulate, verify, cluster, chow-check, export-dot.
Every command is deterministic given its flags (randomness always flows
through an explicit seed into numpy's PCG64 generator).  Diagnostics go
to standard error; data goes to files or standard output.  Exit codes:
0 success, 1 a verification or correspondence check failed, 2 invalid
input, bad data, file problems, or an allocation that fails, 141 an
output pipe closed by its reader, as ``| head`` closes it (128 + SIGPIPE,
the status a shell gives a program that SIGPIPE stops).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio
from .cascade import (
    _lemma_report,
    _population_correlation,
    _simulated_blocks,
    cascade_inverse,
    get_sampler,
    inverse_residual,
    random_unit_variance_model,
)
from .chowliu import correspondence_check
from .errors import InvalidInputError, TreeCascadeError
from .regression import _objective_terms, correlation_from_dataset, empirical_fit, fit_cascade
from .trees import _hop_and_meet_matrices, cluster_by_edge_deletion


#: The subcommands, in the order the top-level help lists them.
_COMMANDS = ("fit", "simulate", "verify", "cluster", "chow-check", "export-dot")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads no subparser but the invoked one; the rest are built
    # only for the top-level help and errors, which list every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # stop quietly, with stdout on the null device: the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (TreeCascadeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The CLI's parser, with only ``command``'s subparser, or with all of them for None.

    With one subparser the command metavar still lists every command, so
    a top-level usage line reads the same.
    """
    parser = argparse.ArgumentParser(
        prog="treecascade",
        description="Fit, simulate, verify, cluster, and export tree cascade models.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )

    if command in (None, "fit"):
        p = sub.add_parser("fit", help="fit a cascade tree to a CSV dataset")
        p.add_argument("--data", required=True, help="CSV of observations (header row required)")
        p.add_argument("--diff", action="store_true", help="first-difference rows before fitting")
        p.add_argument("--root", type=int, default=None, help="root vertex for edge orientation")
        p.add_argument("--out", required=True, help="output fit document (JSON)")
        p.set_defaults(handler=_cmd_fit)

    if command in (None, "simulate"):
        p = sub.add_parser("simulate", help="draw samples from a fitted model")
        p.add_argument("--model", required=True, help="fit document to simulate from")
        p.add_argument("--sampler", default="gaussian", help="error sampler name")
        p.add_argument("--n", type=int, required=True, help="number of samples")
        p.add_argument("--seed", type=int, required=True, help="random seed")
        p.add_argument("--out", required=True, help="output CSV path")
        p.set_defaults(handler=_cmd_simulate)

    if command in (None, "verify"):
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

    if command in (None, "cluster"):
        p = sub.add_parser("cluster", help="cluster columns by deleting light tree edges")
        p.add_argument("--fit", required=True, help="fit document")
        p.add_argument("--k", type=int, required=True, help="number of clusters")
        p.set_defaults(handler=_cmd_cluster)

    if command in (None, "chow-check"):
        p = sub.add_parser("chow-check", help="compare the cascade tree with the Gaussian MI tree")
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--data", help="CSV of observations")
        group.add_argument("--fit", help="fit document describing a model")
        p.set_defaults(handler=_cmd_chow_check)

    if command in (None, "export-dot"):
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
    # the loaded values are the only n-by-d array: the fit overwrites them, and
    # with no reference here they are freed once the correlations are formed
    # (a call takes over its arguments, so this frame holds none)
    fit = empirical_fit(
        dataio.load_csv(args.data), root_hint=args.root, diff=args.diff, overwrite=True
    )
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
    names = dataio._column_names(doc.get("names"), model.d)
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
        if seed < 0:
            raise InvalidInputError(f"--random SEED must be >= 0, got {seed}")
        model = random_unit_variance_model(d, np.random.default_rng(seed))
        label = f"random(d={d}, seed={seed})"
    if not model.unit_variance:
        raise InvalidInputError("verify requires a unit-variance model document")

    # the model's algebra, built once, each d-by-d matrix dropped once no later row reads it
    inv = cascade_inverse(model)
    rows: list[tuple[str, bool, str]] = []
    residual = inverse_residual(model, inv)
    rows.append(("closed-form-inverse", residual <= 1e-12, f"max |(I - A)B - I| = {residual:.3e}"))

    # a unit-variance model's covariance is its correlation matrix, bit for bit
    summary = _population_correlation(model)
    checks = _lemma_report(inv, summary.corr, *_hop_and_meet_matrices(model.rt))
    for check in checks:
        rows.append((check.name, check.passed, f"{check.measure} = {check.worst:.3e}"))
    del inv

    # so the strict-dominance margin over |C|, the last check, is the strict-triangle one over
    # |rho|, which orders pairs as rho^2 does without the square's underflow to tied zeros
    rows.append(("strict-triangle", checks[-1].passed, "squared-correlation weights"))

    fit = fit_cascade(summary, candidate=model.rt)
    recovered = fit.tree.edges == model.rt.tree.edges
    rows.append(("mst-recovery", recovered and fit.tree_unique, f"unique={fit.tree_unique}"))

    identity_gap = _identity_gap(fit)
    rows.append(("objective-identity", _identity_holds(fit, summary), f"gap {identity_gap:.3e}"))

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


def _identity_holds(fit, summary) -> bool:
    """Whether ``fit``'s objective equals d minus its weights, up to their rounding.

    Each edge adds the term ``1 - w`` to the objective, with ``w = rho^2``
    its weight, rounded once by at most ``u / 2`` (``u = 2**-53``), the
    term being at most 1.  Summed exactly, the two sides differ by no
    more than those roundings; ``math.fsum`` then rounds each once more,
    by at most ``u`` times its magnitude.  So the bound grows with d where
    a fixed tolerance would not.
    """
    u = 2.0**-53
    objective = math.fsum(_objective_terms(fit.rt, fit.coeffs, summary))
    identity = math.fsum([fit.tree.d, *(-w for w in fit.weights.values())])
    bound = (fit.tree.d - 1) * u / 2 + u * (abs(objective) + abs(identity))
    return abs(objective - identity) <= bound


def _cmd_cluster(args) -> int:
    fit = dataio.load_fit(args.fit)
    d = fit.tree.d
    if not (1 <= args.k <= d):
        raise InvalidInputError(f"--k {args.k} out of range 1..{d}")
    names = dataio._column_names(fit.names, d)
    for group in cluster_by_edge_deletion(fit.tree, fit.weights, args.k):
        print(", ".join(names[v] for v in group))
    return 0


def _cmd_chow_check(args) -> int:
    if args.data is not None:
        ds = dataio.load_csv(args.data)
        n, d = ds.values.shape
        corr = correlation_from_dataset(ds, overwrite=True)
        if n <= d:
            # n centred rows span at most n - 1 dimensions: the correlations are singular
            raise InvalidInputError(f"covariance is not positive definite: {n} rows for {d} columns")
        names = ds.names
        del ds  # the check reads the correlations alone
        known = None
    else:
        doc = dataio.load_document(args.fit)
        model = dataio.model_from_document(doc)
        corr = _population_correlation(model)
        names = dataio._column_names(doc.get("names"), model.d)
        known = model.rt
    report = correspondence_check(corr, candidate=known)
    lines = [
        f"edge {names[i]} -- {names[j]}: squared_correlation={rho_sq:.6f} mi_weight={mi:.6f}"
        for (i, j), rho_sq, mi in report.edge_pairs
    ]
    lines.append(f"trees_equal: {str(report.trees_equal).lower()}")
    if report.tie_detected:
        lines.append("tie detected: the maximum spanning tree is not unique")
    print("\n".join(lines))
    return 0 if report.trees_equal else 1


def _cmd_export_dot(args) -> int:
    fit = dataio.load_fit(args.fit)
    names = dataio._column_names(fit.names, fit.tree.d)
    # a quoted DOT ID escapes its backslashes, then its quotes
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in names]
    rooted = fit.root_hint_source == "user"
    lines = ["digraph cascade {" if rooted else "graph cascade {"]
    lines += [f'  "{name}";' for name in names]
    if rooted:
        for child in sorted(fit.coeffs):
            parent = fit.rt.parent[child]
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
