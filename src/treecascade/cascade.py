"""The tree linear cascade generative model.

A cascade couples a rooted tree with one coefficient per non-root vertex
(attached to the edge toward its parent) and a diagonal error covariance.
Each component of the modeled vector is a linear function of its parent
plus a zero-mean error term; the error components are uncorrelated but
need not be independent or Gaussian.  Coefficients are stored sparsely,
one per edge; dense matrices are an explicit conversion.

All closed-form algebra here exploits the tree structure: the inverse of
(I - A) is assembled from coefficient products along directed paths and
never via numerical matrix inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .dataio import Dataset, _adopt, _block_rows
from .errors import InvalidInputError, UnsupportedModelError
from .trees import RootedTree, random_tree, root_tree
from .trees import _hop_and_meet_matrices, _parent_first_order, _path_neighbor_gaps


@dataclass(frozen=True)
class CascadeModel:
    """A rooted tree, per-edge coefficients, and positive error variances.

    ``coeffs[i]`` is the coefficient multiplying the parent of the non-root
    vertex ``i``; ``error_vars[i]`` is the error variance at vertex ``i``.
    ``unit_variance`` flags models whose induced covariance has an all-ones
    diagonal, in which case every coefficient magnitude is strictly below 1.
    Treat instances (including the mappings) as immutable.
    """

    rt: RootedTree
    coeffs: Mapping[int, float]
    error_vars: Mapping[int, float]
    unit_variance: bool = False

    def __post_init__(self) -> None:
        non_root = set(self.rt.non_root_vertices())
        if set(self.coeffs) != non_root:
            raise InvalidInputError(
                "coefficients must cover exactly the non-root vertices; "
                f"got {sorted(self.coeffs)}, expected {sorted(non_root)}"
            )
        if set(self.error_vars) != set(range(self.d)):
            raise InvalidInputError("error variances must cover every vertex")
        for i, a in self.coeffs.items():
            if not math.isfinite(a):
                raise InvalidInputError(f"coefficient at vertex {i} is not finite: {a!r}")
            if self.unit_variance and not abs(a) < 1.0:
                raise InvalidInputError(
                    f"unit-variance model requires |coefficient| < 1, got {a} at vertex {i}"
                )
        for i, v in self.error_vars.items():
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidInputError(f"error variance at vertex {i} must be > 0, got {v!r}")

    @property
    def d(self) -> int:
        return self.rt.d

    @property
    def root(self) -> int:
        return self.rt.root

    def error_variance_vector(self) -> np.ndarray:
        return np.array([self.error_vars[i] for i in range(self.d)], dtype=float)


def coefficient_matrix(m: CascadeModel) -> np.ndarray:
    """Dense d-by-d coefficient matrix; entry (i, parent(i)) per non-root i."""
    a = np.zeros((m.d, m.d))
    for i, coeff in m.coeffs.items():
        a[i, m.rt.parent[i]] = coeff
    return a


def cascade_inverse(m: CascadeModel) -> np.ndarray:
    """Closed form of (I - A)^-1 for a cascade coefficient matrix A.

    Entry (i, j) is 1 when i = j, the product of edge coefficients along
    the directed path from j down to i when j is an ancestor of i, and 0
    otherwise.  Columns fill deepest vertex first: column ``j`` times its
    coefficient becomes the parent's column over the subtree of ``j``, so
    each product accumulates in double precision from the vertex up toward
    the root.  No numerical inversion is performed.
    """
    # Row j of inv_t is column j of the inverse; below[j] marks the subtree of j.
    # Writing only there keeps signed zeros as an exact walk leaves them.
    inv_t = np.eye(m.d)
    below = np.eye(m.d, dtype=bool)
    # products that overflow are left infinite, for the caller to reject
    with np.errstate(over="ignore"):
        for j in _parent_first_order(m.rt)[:0:-1].tolist():
            p = m.rt.parent[j]
            np.multiply(inv_t[j], m.coeffs[j], out=inv_t[p], where=below[j])
            below[p] |= below[j]
    return np.ascontiguousarray(inv_t.T)


def population_covariance(m: CascadeModel) -> np.ndarray:
    """Covariance induced by the model: (I - A)^-1 D (I - A)^-T, symmetrized.

    Entries that overflow come out infinite or NaN, without a warning.
    """
    return _covariance(cascade_inverse(m), m.error_variance_vector())


def _covariance(inv: np.ndarray, error_vars: np.ndarray) -> np.ndarray:
    """``population_covariance`` from the model's inverse and error variances."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (inv * error_vars) @ inv.T
        return (cov + cov.T) / 2.0


def make_unit_variance_model(
    rt: RootedTree, edge_correlations: Mapping[int, float]
) -> CascadeModel:
    """Cascade whose induced covariance has unit diagonal.

    ``edge_correlations[i]`` becomes both the coefficient at non-root
    vertex ``i`` and the correlation across the edge to its parent; error
    variances are set to 1 minus its square (1 at the root).  Correlations
    must lie strictly inside (-1, 1) and be nonzero: a zero would give the
    generating edge zero weight and forfeit uniqueness of the recovered
    tree.
    """
    non_root = set(rt.non_root_vertices())
    if set(edge_correlations) != non_root:
        raise InvalidInputError(
            "edge correlations must cover exactly the non-root vertices; "
            f"got {sorted(edge_correlations)}, expected {sorted(non_root)}"
        )
    coeffs = {}
    error_vars = {rt.root: 1.0}
    for i, rho in edge_correlations.items():
        rho = float(rho)
        if not (math.isfinite(rho) and abs(rho) < 1.0):
            raise InvalidInputError(f"edge correlation at vertex {i} must be in (-1, 1), got {rho!r}")
        if rho == 0.0:
            raise InvalidInputError(f"edge correlation at vertex {i} must be nonzero")
        coeffs[i] = rho
        error_vars[i] = 1.0 - rho * rho
    return CascadeModel(rt, coeffs, error_vars, unit_variance=True)


def random_unit_variance_model(
    d: int,
    rng: np.random.Generator,
    magnitude_range: tuple[float, float] = (0.2, 0.9),
) -> CascadeModel:
    """Random tree, random root, signed edge correlations of bounded magnitude."""
    lo, hi = magnitude_range
    if not (0.0 < lo <= hi < 1.0):
        raise InvalidInputError(f"magnitude range must satisfy 0 < lo <= hi < 1, got {magnitude_range}")
    tree = random_tree(d, rng)
    rt = root_tree(tree, int(rng.integers(d)))
    correlations = {}
    for i in rt.non_root_vertices():
        sign = 1.0 if rng.integers(2) == 1 else -1.0
        correlations[i] = sign * float(rng.uniform(lo, hi))
    return make_unit_variance_model(rt, correlations)


# The generator type is a string so that importing this module does not load
# numpy.random (about 6 MB and 20 ms) for commands that draw nothing.
Sampler = Callable[["np.random.Generator", Sequence[int], np.ndarray], Iterator[np.ndarray]]


def _draw_gaussian(rng, sizes, variances):
    scale = np.sqrt(variances)
    for rows in sizes:
        yield rng.standard_normal((rows, variances.size)) * scale


def _draw_laplace(rng, sizes, variances):
    # Laplace(scale b) has variance 2 b^2.
    scale = np.sqrt(variances / 2.0)
    for rows in sizes:
        yield rng.laplace(0.0, 1.0, (rows, variances.size)) * scale


def _draw_uniform(rng, sizes, variances):
    # Uniform on [-a, a] has variance a^2 / 3.
    scale = np.sqrt(3.0 * variances)
    for rows in sizes:
        yield rng.uniform(-1.0, 1.0, (rows, variances.size)) * scale


def _draw_rademacher(rng, sizes, variances):
    scale = np.sqrt(variances)
    for rows in sizes:
        yield _flip_signs(rng, np.tile(scale, (rows, 1)))


def _draw_dependent(rng, sizes, variances):
    # One shared magnitude per draw, independent signs per coordinate:
    # pairwise correlations vanish, yet the components share |magnitude|.
    # Every magnitude is drawn before any sign, as in a single block, so
    # this sampler holds 8 bytes per row.
    rows = sizes.rows if isinstance(sizes, _BlockSizes) else sum(sizes)
    try:
        magnitude = rng.standard_normal((rows, 1))
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise InvalidInputError(f"the dependent sampler cannot hold {rows} magnitudes") from None
    np.abs(magnitude, out=magnitude)
    scale = np.sqrt(variances)
    start = 0
    for rows in sizes:
        yield _flip_signs(rng, magnitude[start : start + rows] * scale)
        start += rows


def _flip_signs(rng, x: np.ndarray) -> np.ndarray:
    """Negate ``x`` in place where ``integers(0, 2)`` draws 0; returns ``x``.

    Rounding is symmetric in sign, so this is ``(2 * integers(0, 2) - 1) * x``
    bit for bit, without a second float array.
    """
    np.negative(x, out=x, where=rng.integers(0, 2, x.shape) == 0)
    return x


#: Error samplers by name.  Each draw function ``(rng, sizes, variances)``
#: yields one C-ordered (rows, d) block per entry of the sequence ``sizes``,
#: and the blocks are the rows of one draw of ``sum(sizes)`` rows bit for
#: bit, however ``sizes`` splits it.  Columns have population mean zero, the
#: requested variances, and zero pairwise correlation: independent normal,
#: double-exponential, uniform and symmetric two-point errors, and
#: "dependent", a shared magnitude with independent signs (uncorrelated but
#: not independent).
BUILTIN_SAMPLERS: dict[str, Sampler] = {
    "gaussian": _draw_gaussian,
    "laplace": _draw_laplace,
    "uniform": _draw_uniform,
    "rademacher": _draw_rademacher,
    "dependent": _draw_dependent,
}


def get_sampler(name: str) -> Sampler:
    try:
        return BUILTIN_SAMPLERS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SAMPLERS))
        raise InvalidInputError(f"unknown sampler {name!r}; available: {known}") from None


def simulate(m: CascadeModel, sampler: Sampler, n: int, seed: int, names=None) -> Dataset:
    """Draw ``n`` independent realizations of the cascade.

    Each draw is the closed-form inverse applied to a fresh error draw, so
    the output is a pure function of (model, sampler, n, seed).  Columns
    follow vertex order.  The generator is numpy's seeded PCG64.
    """
    blocks = _simulated_blocks(m, sampler, n, seed)  # checks n before the allocation
    values = np.empty((n, m.d))
    start = 0
    for block in blocks:
        values[start : start + len(block)] = block
        start += len(block)
    if names is None:
        names = tuple(f"x{i}" for i in range(m.d))
    return _adopt(values, names)


def _simulated_blocks(m: CascadeModel, sampler: Sampler, n: int, seed: int) -> Iterator[np.ndarray]:
    """The rows ``simulate`` draws, as C-ordered blocks, first row first.

    The sample count is checked at once; the draws happen as the blocks
    are taken.  A block starts every ``_block_rows(d)`` rows (1 MiB) and
    the remainder joins the last block, so no block is shorter unless
    ``n`` is: BLAS multiplies a block of a few rows with other kernels,
    whose bits can differ from those of the same rows in a taller block.
    Overflow in a model's inverse or in the product leaves infinities,
    without a warning, for the caller's finiteness check to name.
    """
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    sizes = _BlockSizes(n, _block_rows(m.d))
    draws = sampler(np.random.default_rng(seed), sizes, m.error_variance_vector())
    return _transformed(draws, cascade_inverse(m).T)


class _BlockSizes(Sequence):
    """Row counts of ``rows`` rows in blocks of ``step``, the last taking the remainder, lazily."""

    def __init__(self, rows: int, step: int) -> None:
        self.rows, self.step = rows, step

    def __len__(self) -> int:
        return max(1, self.rows // self.step)

    def __getitem__(self, k: int) -> int:
        k = range(len(self))[k]  # negative indices; IndexError past the end
        return self.step if k < len(self) - 1 else self.rows - self.step * k


def _transformed(draws: Iterator[np.ndarray], inv_t: np.ndarray) -> Iterator[np.ndarray]:
    """Each error block of ``draws`` times ``inv_t``, drawn and multiplied on demand."""
    while True:
        # the scope ends before the yield, so the caller's error state is its own
        with np.errstate(over="ignore", invalid="ignore"):
            block = next(draws, None)
            if block is None:
                return
            block = block @ inv_t
        yield block


def reroot(m: CascadeModel, new_root: int) -> CascadeModel:
    """Equivalent unit-variance cascade rooted at ``new_root``.

    The undirected tree is unchanged; each re-oriented edge takes as its
    coefficient the covariance between its endpoints, and error variances
    are rebuilt as 1 minus the squared coefficient.  The induced covariance
    is preserved.  Only unit-variance models can be re-rooted this way.
    """
    if not m.unit_variance:
        raise UnsupportedModelError("reroot requires a unit-variance model")
    if not (0 <= new_root < m.d):
        raise InvalidInputError(f"root {new_root} out of range for {m.d} vertices")
    if new_root == m.root:
        return m
    cov = population_covariance(m)
    rt2 = root_tree(m.rt.tree, new_root)
    correlations = {i: float(cov[i, rt2.parent[i]]) for i in rt2.non_root_vertices()}
    return make_unit_variance_model(rt2, correlations)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one structural check; ``worst`` is explained by ``measure``."""

    name: str
    passed: bool
    worst: float
    measure: str
    pairs_checked: int


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_covariance_lemmas(m: CascadeModel) -> LemmaReport:
    """Check the closed-form covariance structure of a unit-variance cascade.

    Three checks over the induced covariance C and closed-form inverse B,
    the two equalities to within 1e-12:

    - ancestor pairs: C[i, j] equals B[j, i] when i is an ancestor of j;
    - branching pairs: C[i, j] equals B[i, m] * B[j, m] at the deepest
      common ancestor m when neither vertex is an ancestor of the other;
    - strict dominance: |C[i, j]| < min(|C[i, k]|, |C[k, j]|) for every
      nonadjacent pair, with k the first vertex on the tree path.

    Pairs are classified through the tree's first-hop and deepest-common-
    ancestor matrices, so each check is one array expression.  Failures
    are reported, never raised.
    """
    if not m.unit_variance:
        raise UnsupportedModelError("verify_covariance_lemmas requires a unit-variance model")
    inv = cascade_inverse(m)
    cov = _covariance(inv, m.error_variance_vector())
    return _lemma_report(inv, cov, *_hop_and_meet_matrices(m.rt))


def _lemma_report(inv: np.ndarray, cov: np.ndarray, hop: np.ndarray, meet: np.ndarray) -> LemmaReport:
    """``verify_covariance_lemmas`` from the model's inverse, covariance and hop/meet pair."""
    rows = np.arange(len(inv))[:, None]
    cols = np.arange(len(inv))[None, :]

    ancestor_devs = np.abs(cov - inv.T)[(meet == rows) & (rows != cols)]
    i, j = np.nonzero((rows < cols) & (meet != rows) & (meet != cols))
    k = meet[i, j]
    branch_devs = np.abs(cov[i, j] - inv[i, k] * inv[j, k])
    gaps = _path_neighbor_gaps(np.abs(cov), hop)

    ancestor_dev = float(ancestor_devs.max(initial=0.0))
    branch_dev = float(branch_devs.max(initial=0.0))
    return LemmaReport(
        (
            LemmaCheck(
                "ancestor-covariance",
                ancestor_dev <= 1e-12,
                ancestor_dev,
                "max |C_ij - B_ji|",
                ancestor_devs.size,
            ),
            LemmaCheck(
                "branching-covariance",
                branch_dev <= 1e-12,
                branch_dev,
                "max |C_ij - B_im B_jm|",
                branch_devs.size,
            ),
            LemmaCheck(
                "strict-dominance",
                bool((gaps > 0.0).all()),
                float(gaps.min(initial=math.inf)),
                "min margin min(|C_ik|, |C_kj|) - |C_ij|",
                gaps.size,
            ),
        )
    )
