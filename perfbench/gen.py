"""Seeded inputs for the benchmark, written without treecascade.

Every input is a pure function of (workload, seed, scale) and is produced
with numpy alone, so two commits of treecascade see byte-identical files.
Each input directory holds the files one op reads plus ``meta.json``, which
records the reference tree (the generating tree) and the sizes the output
checks need.  Fit inputs are redrawn under a derived seed until an
independent maximum spanning tree (scipy's, on ``np.corrcoef`` of the data)
recovers the generating tree, so every op has a known right answer.

Tree shapes are fixed per vertex count and only the labels follow the seed:
the certificate's and the lemma loops' cost depends on path lengths, so a
shape drawn per seed would make the op time vary with the seed rather than
with the code.

Run from the repository root:

    python3 perfbench/gen.py --workload fit_wide --seed 1 --cache perfbench/.cache/inputs
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import shutil
from pathlib import Path

import numpy as np

SIZES = {
    "full": {
        "fit_tall": {"n": 100_000, "d": 30},
        "fit_wide": {"n": 2_000, "d": 400},
        "simulate_tall": {"n": 100_000, "d": 30},
        "audit_chain": {"d": 200},
    },
    "tiny": {
        "fit_tall": {"n": 3_000, "d": 6},
        "fit_wide": {"n": 2_000, "d": 8},
        "simulate_tall": {"n": 400, "d": 5},
        "audit_chain": {"d": 7},
    },
}
WORKLOADS = tuple(SIZES["full"])

# Per-workload stream ids, so one seed gives unrelated draws per workload.
_STREAM = {name: k for k, name in enumerate(WORKLOADS)}
_SHAPE_SEED = 20220215
_MAX_ATTEMPTS = 20


def _pruefer_tree(d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform labelled tree on 0..d-1, decoded from a random sequence."""
    if d == 2:
        return [(0, 1)]
    seq = [int(s) for s in rng.integers(0, d, size=d - 2)]
    degree = [1] * d
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(d) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def fixed_shape_tree(d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A tree whose shape depends on d only, relabelled by ``rng``."""
    shape = _pruefer_tree(d, np.random.default_rng([_SHAPE_SEED, d]))
    perm = rng.permutation(d)
    return canonical([(int(perm[a]), int(perm[b])) for a, b in shape])


def canonical(edges) -> list[tuple[int, int]]:
    return sorted((min(a, b), max(a, b)) for a, b in edges)


def orient(d: int, edges, root: int) -> tuple[list[int], list[int]]:
    """Parent of each vertex (-1 at the root) and a breadth-first order."""
    adj: list[list[int]] = [[] for _ in range(d)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * d
    seen = [False] * d
    seen[root] = True
    order = [root]
    for v in order:
        for w in sorted(adj[v]):
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    return parent, order


def signed_magnitudes(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    signs = np.where(rng.integers(0, 2, size=d) == 1, 1.0, -1.0)
    return signs * rng.uniform(lo, hi, size=d)


def cascade_sample(parent, order, rho, errors: np.ndarray) -> np.ndarray:
    """Unit-variance tree cascade driven by unit-variance ``errors`` (n x d)."""
    x = np.empty_like(errors)
    for v in order:
        p = parent[v]
        if p < 0:
            x[:, v] = errors[:, v]
        else:
            x[:, v] = rho[v] * x[:, p] + np.sqrt(1.0 - rho[v] ** 2) * errors[:, v]
    return x


def mst_edges(data: np.ndarray) -> list[tuple[int, int]]:
    """Maximum spanning tree of squared sample correlations, via scipy."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    r = np.corrcoef(data, rowvar=False)
    cost = 2.0 - r * r  # positive off the diagonal; scipy reads zeros as "no edge"
    np.fill_diagonal(cost, 0.0)
    rows, cols = minimum_spanning_tree(cost).nonzero()
    return canonical(zip(rows.tolist(), cols.tolist()))


def fit_document(d: int, edges, root: int, rho, names) -> dict:
    """A ``format_version: 1`` unit-variance document for the given tree."""
    parent, _ = orient(d, edges, root)
    children = sorted(v for v in range(d) if v != root)
    coeffs = {v: float(rho[v]) for v in children}
    error_vars = [1.0 if v == root else 1.0 - coeffs[v] * coeffs[v] for v in range(d)]
    weights = [coeffs[v] * coeffs[v] for v in children]
    return {
        "format_version": 1,
        "d": d,
        "root": root,
        "edges": [{"child": v, "parent": parent[v], "coeff": coeffs[v]} for v in children],
        "error_vars": error_vars,
        "unit_variance": True,
        "objective": d - sum(weights),
        "weights": weights,
        "tree_unique": True,
        "root_hint_source": "default",
        "names": names,
    }


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=1) + "\n", encoding="utf-8")


def _fit_input(workload: str, seed: int, n: int, d: int, out: Path) -> dict:
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, _STREAM[workload], attempt])
        edges = fixed_shape_tree(d, rng)
        parent, order = orient(d, edges, 0)
        if workload == "fit_tall":
            rho = signed_magnitudes(rng, d, 0.3, 0.8)
            errors = rng.laplace(0.0, 1.0 / np.sqrt(2.0), size=(n - 1, d))
            changes = cascade_sample(parent, order, rho, errors)
            vols = rng.uniform(0.5, 2.5, size=d)
            bases = np.round(rng.uniform(3000.0, 6000.0, size=d), 2)
            table = np.round(np.vstack([bases, bases + np.cumsum(changes * vols, axis=0)]), 2)
            check = np.diff(table, axis=0)
        else:
            rho = signed_magnitudes(rng, d, 0.6, 0.9)
            table = cascade_sample(parent, order, rho, rng.standard_normal((n, d)))
            check = table
        if mst_edges(check) == edges:
            break
    else:
        raise RuntimeError(f"{workload} seed {seed}: no draw recovered its tree")

    if workload == "fit_tall":
        names = [f"s{i:02d}" for i in range(d)]
        path = out / "tall.csv"
        with open(path, "w", encoding="utf-8") as handle:
            np.savetxt(handle, table, fmt="%.2f", delimiter=",", header=",".join(names), comments="")
    else:
        names = [f"v{i:03d}" for i in range(d)]
        path = out / "wide.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(names) + "\n")
            for row in table.tolist():
                handle.write(",".join(map(repr, row)) + "\n")
    return {
        "data": path.name,
        "n": n,
        "d": d,
        "tree": edges,
        "attempts": attempt + 1,
        "elements": n * d,
        "input_bytes": path.stat().st_size,
    }


def _simulate_input(seed: int, n: int, d: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, _STREAM["simulate_tall"]])
    edges = fixed_shape_tree(d, rng)
    rho = signed_magnitudes(rng, d, 0.2, 0.9)
    names = [f"x{i:02d}" for i in range(d)]
    doc = fit_document(d, edges, 0, rho, names)
    _write_json(out / "m.json", doc)

    # Reference draw: the laplace sampler's errors mapped through (I - A)^-1,
    # here inverted numerically rather than by the closed-form path products.
    a = np.zeros((d, d))
    for edge in doc["edges"]:
        a[edge["child"], edge["parent"]] = edge["coeff"]
    variances = np.array(doc["error_vars"])
    errors = np.random.default_rng(seed).laplace(0.0, 1.0, (n, d)) * np.sqrt(variances / 2.0)
    reference = errors @ np.linalg.inv(np.eye(d) - a).T
    reference.astype("<f8").tofile(out / "reference.f64")
    return {
        "model": "m.json",
        "reference": "reference.f64",
        "n": n,
        "d": d,
        "sim_seed": seed,
        "names": names,
        "tree": edges,
        "elements": n * d,
    }


def _chain_input(seed: int, d: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, _STREAM["audit_chain"]])
    path = [int(v) for v in rng.permutation(d)]
    edges = canonical(zip(path, path[1:]))
    # The root sits at a fixed position along the chain: ancestor walks cost
    # depth, so a seed-dependent position would change the work per op.
    root = path[d // 3]
    rho = signed_magnitudes(rng, d, 0.5, 0.95)
    _write_json(out / "chain.json", fit_document(d, edges, root, rho, None))
    return {"model": "chain.json", "d": d, "tree": edges, "elements": d * (d - 1) // 2}


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out`` (created)."""
    size = SIZES[scale][workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("fit_tall", "fit_wide"):
        meta = _fit_input(workload, seed, size["n"], size["d"], out)
    elif workload == "simulate_tall":
        meta = _simulate_input(seed, size["n"], size["d"], out)
    else:
        meta = _chain_input(seed, size["d"], out)
    meta.update(workload=workload, seed=seed, scale=scale)
    _write_json(out / "meta.json", meta)
    return meta


def ensure(workload: str, seed: int, cache: Path) -> Path:
    """Cached full-size input directory for (workload, seed), generated on first use.

    Generation goes to a temporary directory that is renamed into place, so
    an interrupted run leaves no half-written input.
    """
    dest = cache / f"{workload}-{seed}"
    if not (dest / "meta.json").is_file():
        tmp = cache / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(workload, seed, tmp)
        shutil.rmtree(dest, ignore_errors=True)
        os.replace(tmp, dest)
    return dest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", type=Path, required=True, help="cache directory")
    args = parser.parse_args()
    print(ensure(args.workload, args.seed, args.cache))


if __name__ == "__main__":
    main()
