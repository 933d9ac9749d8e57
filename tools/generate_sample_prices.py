#!/usr/bin/env python3
"""Regenerate the bundled sample CSV of daily price levels.

Thirty tickers with five industry groups.  Daily changes are drawn from a
unit-variance cascade whose tree wires each ticker to an industry hub and
chains the hubs together, then scaled to per-stock dollar volatilities and
accumulated onto base price levels.  Seeds are fixed, so the output is
byte-for-byte reproducible.  Run from the repository root:

    python tools/generate_sample_prices.py

``main(out)`` writes to another path instead of the bundled file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from treecascade import make_unit_variance_model, root_tree, simulate, get_sampler, Tree

GROUPS = {
    "MSFT": ["AAPL", "CRM", "CSCO", "IBM", "INTC"],
    "JPM": ["AXP", "GS", "TRV", "V"],
    "UNH": ["AMGN", "JNJ", "MRK", "WBA"],
    "WMT": ["DIS", "HD", "KO", "MCD", "NKE", "PG"],
    "HON": ["BA", "CAT", "CVX", "DOW", "MMM", "VZ"],
}
HUB_BACKBONE = [("JPM", "MSFT"), ("JPM", "HON"), ("HON", "WMT"), ("WMT", "UNH")]

N_CHANGES = 750
MODEL_SEED = 1544199
NOISE_SEED = 20120616


BUNDLED = Path(__file__).resolve().parents[1] / "src" / "treecascade" / "data" / "dow30_prices.csv"


def main(out: Path = BUNDLED) -> None:
    tickers = sorted({h for h in GROUPS} | {m for ms in GROUPS.values() for m in ms})
    assert len(tickers) == 30
    index = {t: i for i, t in enumerate(tickers)}

    rng = np.random.default_rng(MODEL_SEED)
    edges = []
    correlations_by_edge = {}
    for hub, members in GROUPS.items():
        for member in members:
            edges.append((index[member], index[hub]))
            correlations_by_edge[edges[-1]] = float(rng.uniform(0.45, 0.7))
    for a, b in HUB_BACKBONE:
        edges.append((index[a], index[b]))
        correlations_by_edge[edges[-1]] = float(rng.uniform(0.3, 0.5))

    tree = Tree.from_edges(30, edges)
    rt = root_tree(tree, index["JPM"])
    rho = {}
    for (a, b), value in correlations_by_edge.items():
        child = a if rt.parent[a] == b else b
        rho[child] = value
    model = make_unit_variance_model(rt, rho)

    changes = simulate(model, get_sampler("gaussian"), N_CHANGES, seed=NOISE_SEED).values
    scale_rng = np.random.default_rng(NOISE_SEED + 1)
    vols = scale_rng.uniform(0.6, 3.0, size=30)
    bases = np.round(scale_rng.uniform(90.0, 320.0, size=30) + 60.0 * vols, 2)
    levels = np.round(bases + np.cumsum(changes * vols, axis=0), 2)
    prices = np.vstack([bases, levels])

    with open(out, "w", encoding="utf-8") as handle:
        handle.write(",".join(tickers) + "\n")
        for row in prices:
            handle.write(",".join(f"{v:.2f}" for v in row) + "\n")
    print(f"wrote {prices.shape[0]} rows x {prices.shape[1]} columns to {out}")
    print(f"min price {prices.min():.2f}  max price {prices.max():.2f}")


if __name__ == "__main__":
    main()
