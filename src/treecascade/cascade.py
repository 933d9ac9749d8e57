"""The tree linear cascade generative model.

A cascade couples a rooted tree with one coefficient per non-root vertex
(attached to the edge toward its parent) and a diagonal error covariance.
Each component of the modeled vector is a linear function of its parent
plus a zero-mean error term; the error components are uncorrelated but
need not be independent or Gaussian.  Coefficients are stored sparsely,
one per edge.

All closed-form algebra here exploits the tree structure: the inverse of
(I - A) is assembled from coefficient products along directed paths and
never via numerical matrix inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .dataio import Dataset, _adopt, _block_lengths, _column_names
from .errors import InvalidInputError, UnsupportedModelError
from .regression import CorrelationSummary, _adopt_summary, correlation_from_covariance
from .trees import RootedTree, _hop_and_meet_matrices, _parent_first_order, _path_neighbor_gaps
from .trees import _check_non_root_keys, _to_vertex_order, _unchecked, _walk, random_tree, root_tree


@dataclass(frozen=True)
class CascadeModel:
    """A rooted tree, per-edge coefficients, and positive error variances.

    ``coeffs[i]`` is the coefficient multiplying the parent of the non-root
    vertex ``i``; ``error_vars[i]`` is the error variance at vertex ``i``.
    Treat instances (including the mappings) as immutable.
    """

    rt: RootedTree
    coeffs: Mapping[int, float]
    error_vars: Mapping[int, float]

    def __post_init__(self) -> None:
        _check_non_root_keys(self.rt, self.coeffs, "coefficients")
        if set(self.error_vars) != set(range(self.d)):
            raise InvalidInputError("error variances must cover every vertex")
        for i, a in self.coeffs.items():
            if not math.isfinite(a):
                raise InvalidInputError(f"coefficient at vertex {i} is not finite: {a!r}")
        for i, v in self.error_vars.items():
            if not (math.isfinite(v) and v > 0.0):
                raise InvalidInputError(f"error variance at vertex {i} must be > 0, got {v!r}")

    @property
    def d(self) -> int:
        return self.rt.d

    @property
    def root(self) -> int:
        return self.rt.root

    @property
    def unit_variance(self) -> bool:
        """Whether ``error_vars`` are 1 at the root and ``1 - a * a`` elsewhere, bit for bit."""
        ev = self.error_vars
        return ev[self.root] == 1.0 and all(ev[v] == 1.0 - a * a for v, a in self.coeffs.items())

    def error_variance_vector(self) -> np.ndarray:
        return np.array([self.error_vars[i] for i in range(self.d)], dtype=float)


def cascade_inverse(m: CascadeModel) -> np.ndarray:
    """Closed form of (I - A)^-1 for a cascade coefficient matrix A.

    Entry (i, j) is 1 when i = j, the product of edge coefficients along
    the directed path from j down to i when j is an ancestor of i, and 0
    otherwise.  Columns fill deepest vertex first: column ``j`` times its
    coefficient becomes the parent's column over the subtree of ``j``, so
    each product accumulates in double precision from the vertex up toward
    the root.  No numerical inversion is performed.  The result is a view
    in Fortran order, the transpose of the C-ordered array filled row by row.
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
    return inv_t.T


def inverse_residual(m: CascadeModel, inv: np.ndarray) -> float:
    """``max |(I - A) inv - I|``, the residual of ``inv`` as the inverse of I - A.

    Row i of (I - A) inv is ``inv[i] - a_i inv[parent(i)]``, and the root's
    row is ``inv[root]``, so the residual costs O(d^2) elementwise steps
    with no BLAS or LAPACK call.  An error in any one entry of ``inv``
    shows in the residual at its full size.  The rows of ``inv.T`` are
    read one ``_block_rows(d)`` block at a time: ``cascade_inverse``'s
    view makes them C-ordered, and the one work array holds one block.
    """
    d = m.d
    # the root takes itself as parent, with coefficient 0
    parent = np.array(m.rt.parent)
    parent[m.root] = m.root
    coeffs = np.array([m.coeffs.get(i, 0.0) for i in range(d)])
    inv_t = inv.T
    worst = np.float64(0.0)
    start = 0
    for rows in _block_lengths(d, d):
        block = inv_t[start : start + rows]
        # column i of the block's residual is inv[i] - a_i inv[parent(i)] over these columns of inv;
        # every parent is in range, and ``clip`` gathers into ``res`` without a buffer of its own
        res = np.take(block, parent, axis=1, out=np.empty((rows, d)), mode="clip")
        np.subtract(block, np.multiply(res, coeffs, out=res), out=res)
        res.reshape(-1)[start :: d + 1] -= 1.0  # entries (k, start + k), the identity's
        worst = np.maximum(worst, np.abs(res, out=res).max())  # unlike max(), keeps a NaN
        start += rows
    return float(worst)


def population_covariance(m: CascadeModel) -> np.ndarray:
    """Covariance induced by the model, (I - A)^-1 D (I - A)^-T, by its structural equations.

    Over a parent-first walk, C[v, w] = a_v C[u, w] for each earlier w, which e_v is
    uncorrelated with, and C[v, v] = a_v^2 C[u, u] + sigma_v^2, u the parent of v.
    Entries that overflow come out infinite or NaN, without a warning.  For a
    unit-variance model the diagonal is exactly 1 and C is exactly symmetric,
    so C is its own correlation matrix (see ``_population_correlation``).
    """
    _, joins, pos = _walk(m.rt)
    cov = np.empty((m.d, m.d))
    cov[0, 0] = m.error_vars[m.root]  # the walk starts at the root
    with np.errstate(over="ignore", invalid="ignore"):
        for k, v, _, pu in joins:
            a = m.coeffs[v]
            cov[:k, k] = np.multiply(cov[pu, :k], a, out=cov[k, :k])
            cov[k, k] = a * a * cov[pu, pu] + m.error_vars[v]
    return _to_vertex_order(cov, pos)


def _population_correlation(m: CascadeModel) -> CorrelationSummary:
    """The correlations of ``population_covariance(m)``; a unit-variance model's covariance itself.

    Models that are not unit variance are normalized by
    ``correlation_from_covariance``, with its errors.  A unit-variance
    model's covariance already is its correlation matrix, bit for bit:

    - ``unit_variance`` holds exactly when sigma_root^2 = 1 and
      sigma_v^2 = fl(1 - x) for each other v, where x = fl(a_v^2).  The
      walk sets C_vv = fl(fl(x C_uu) + sigma_v^2), u the parent of v.
    - Let C_uu = 1, as at the root.  If x >= 1/2, 1 - x is exact
      (Sterbenz), so C_vv = x + (1 - x) = 1.  If x < 1/2, fl(1 - x) is
      within 2^-54 of 1 - x, so x + fl(1 - x) is within 2^-54 of 1 and
      rounds to 1 (a tie below 1 goes to the even 1).  By induction every
      C_vv is exactly 1.
    - So C_ij / sqrt(C_ii C_jj) is C_ij divided by 1, exact; every |C_ij|
      is a product of factors of magnitude at most 1, so the clip to
      [-1, 1] changes nothing; and the walk writes each row and column
      alike, so C is exactly symmetric.  ``correlation_from_covariance(C)``
      is therefore C bit for bit, signed zeros and subnormals included,
      and C is adopted without that pass.
    """
    if not m.unit_variance:
        return correlation_from_covariance(population_covariance(m))
    return _adopt_summary(population_covariance(m))


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
    _check_non_root_keys(rt, edge_correlations, "edge correlations")
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
    # each |rho| < 1 makes 1 - rho * rho positive: the constructor's checks hold
    return _unchecked(CascadeModel, rt=rt, coeffs=coeffs, error_vars=error_vars)


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
# numpy.random (about 6 MB and 20 ms) for commands that draw nothing.  A
# sampler ``(rng, n, variances)`` yields the n rows of its draw in the blocks
# of ``_block_lengths(n, d)`` and hands them over: ``simulate`` transforms
# them in place.
Sampler = Callable[["np.random.Generator", int, np.ndarray], Iterator[np.ndarray]]


def _draw_gaussian(rng, n, variances):
    scale = np.sqrt(variances)
    for rows in _block_lengths(n, variances.size):
        yield rng.standard_normal((rows, variances.size)) * scale


def _draw_laplace(rng, n, variances):
    # Laplace(scale b) has variance 2 b^2.
    scale = np.sqrt(variances / 2.0)
    for rows in _block_lengths(n, variances.size):
        yield rng.laplace(0.0, 1.0, (rows, variances.size)) * scale


def _draw_uniform(rng, n, variances):
    # Uniform on [-a, a] has variance a^2 / 3.
    scale = np.sqrt(3.0 * variances)
    for rows in _block_lengths(n, variances.size):
        yield rng.uniform(-1.0, 1.0, (rows, variances.size)) * scale


def _draw_rademacher(rng, n, variances):
    scale = np.sqrt(variances)
    for rows in _block_lengths(n, variances.size):
        yield _flip_signs(rng, np.tile(scale, (rows, 1)))


def _draw_dependent(rng, n, variances):
    # One shared magnitude per draw, independent signs per coordinate:
    # pairwise correlations vanish, yet the components share |magnitude|.
    # Every magnitude is drawn before any sign, as in a single block, so
    # this sampler holds 8 bytes per row.
    try:
        magnitude = rng.standard_normal((n, 1))
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise InvalidInputError(f"the dependent sampler cannot hold {n} magnitudes") from None
    np.abs(magnitude, out=magnitude)
    scale = np.sqrt(variances)
    start = 0
    for rows in _block_lengths(n, variances.size):
        yield _flip_signs(rng, magnitude[start : start + rows] * scale)
        start += rows


def _flip_signs(rng, x: np.ndarray) -> np.ndarray:
    """Negate ``x`` in place where ``integers(0, 2)`` draws 0; returns ``x``.

    Rounding is symmetric in sign, so this is ``(2 * integers(0, 2) - 1) * x``
    bit for bit, without a second float array.
    """
    np.negative(x, out=x, where=rng.integers(0, 2, x.shape) == 0)
    return x


#: Error samplers by name.  Each draw function ``(rng, n, variances)``
#: yields one C-ordered (rows, d) block per entry of ``_block_lengths(n, d)``,
#: and the blocks are the rows of one draw of ``n`` rows bit for bit: numpy's
#: generators give the same stream however a draw is split.  Columns have
#: population mean zero, the requested variances, and zero pairwise
#: correlation: independent normal, double-exponential, uniform and
#: symmetric two-point errors, and "dependent", a shared magnitude with
#: independent signs (uncorrelated but not independent).
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


def simulate(m: CascadeModel, sampler: Sampler, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent realizations of the cascade.

    Each draw is a fresh error draw through the structural equations, so
    the output is a pure function of (model, sampler, n, seed) on every
    CPU.  Columns follow vertex order.  The generator is numpy's seeded PCG64.
    """
    blocks = _simulated_blocks(m, sampler, n, seed)  # checks n and the seed before the allocation
    values = np.empty((n, m.d))
    start = 0
    for block in blocks:
        values[start : start + len(block)] = block
        start += len(block)
    return _adopt(values, _column_names(None, m.d))


def _simulated_blocks(m: CascadeModel, sampler: Sampler, n: int, seed: int) -> Iterator[np.ndarray]:
    """The rows ``simulate`` draws, as C-ordered blocks, first row first.

    The sample count and the seed are checked at once; the draws happen
    as the blocks are taken, in the row counts of ``_block_lengths(n, d)``.
    Overflow leaves infinities, without a warning, for the caller's
    finiteness check to name.
    """
    if n < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {n}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    draws = sampler(np.random.default_rng(seed), n, m.error_variance_vector())
    return _transformed(draws, m)


def _transformed(draws: Iterator[np.ndarray], m: CascadeModel) -> Iterator[np.ndarray]:
    """Error blocks of ``draws`` made rows of ``m`` in place, x_v = a_v x_parent + e_v, on demand."""
    joins = [(v, m.rt.parent[v], m.coeffs[v]) for v in _parent_first_order(m.rt)[1:].tolist()]
    while True:
        # the scope ends before the yield, so the caller's error state is its own
        with np.errstate(over="ignore", invalid="ignore"):
            block = next(draws, None)
            if block is None:
                return
            for v, u, a in joins:
                block[:, v] += a * block[:, u]
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
    if new_root == m.root:
        return m
    rt2 = root_tree(m.rt.tree, new_root)
    cov = population_covariance(m)
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


def verify_covariance_lemmas(m: CascadeModel) -> tuple[LemmaCheck, ...]:
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
    return _lemma_report(cascade_inverse(m), population_covariance(m), *_hop_and_meet_matrices(m.rt))


def _lemma_report(inv: np.ndarray, cov: np.ndarray, hop: np.ndarray, meet: np.ndarray) -> tuple[LemmaCheck, ...]:
    """``verify_covariance_lemmas`` from the model's inverse, covariance and hop/meet pair.

    Both covariance checks compare C with one prediction, B_im * B_jm at the
    deepest common ancestor m; at an ancestor pair m = i, and B_ii = 1 makes
    the product exactly B_ji.  ``inv`` is the working space, overwritten in
    turn by the prediction, the deviations and |C|.
    """
    rows = np.arange(len(inv))[:, None]
    cols = np.arange(len(inv))[None, :]
    meet_inv = np.take_along_axis(inv, meet, axis=1)  # B_im
    # B_im B_jm is symmetric: written through inv.T, C-ordered for cascade_inverse's view, it fills inv
    devs = np.multiply(meet_inv, meet_inv.T, out=inv.T)
    del meet_inv
    np.abs(np.subtract(cov, devs, out=devs), out=devs)
    ancestor = (meet == rows) & (rows != cols)
    branching = (rows < cols) & (meet != rows) & (meet != cols)
    checks = []
    for name, mask, measure in (
        ("ancestor-covariance", ancestor, "max |C_ij - B_ji|"),
        ("branching-covariance", branching, "max |C_ij - B_im B_jm|"),
    ):
        dev = float(devs.max(initial=0.0, where=mask))
        checks.append(LemmaCheck(name, dev <= 1e-12, dev, measure, int(np.count_nonzero(mask))))
    del ancestor, branching
    margin, pairs = _path_neighbor_gaps(np.abs(cov, out=devs), hop)
    checks.append(
        LemmaCheck(
            "strict-dominance",
            margin > 0.0,
            margin,
            "min margin min(|C_ik|, |C_kj|) - |C_ij|",
            pairs,
        )
    )
    return tuple(checks)
