"""Logarithmic capacity machinery.

Two estimator routes live here:

* ``nth_diameter`` / ``capacity_via_transfinite``: greedy Leja seeding plus
  coordinate-exchange search for n-point configurations maximizing the
  geometric-mean pairwise distance (the discrete Fekete problem).  For a
  grid on a set E, the attained value is a lower bound for the n-th
  diameter of E up to the rounding of its log sum; that diameter
  decreases to the capacity from above by a factor that equals
  n**(1/(n-1)) exactly on circles; the capacity estimate runs one search at
  its n, divides that factor out and keeps the raw diameter as its
  diagnostic.
* ``equilibrium_measure``: the energy maximizer over the weight simplex,
  from one bordered linear solve (the energy is concave on sum-zero
  weights, so an interior optimum is its stationary point), with an
  active-set re-solve when weights come out negative.  The pairwise
  objective alone is maximized by collapsing onto a few far-apart atoms
  (excluding the diagonal removes the infinite self-energy that forbids
  atoms), so the objective carries a local self-energy diagonal
  log(spacing/(2*pi)) -- the unique choice that reproduces circle energies
  exactly.  The raw pairwise sum is kept alongside.

All searches are deterministic: fixed starts, fixed tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EquilibriumSolveError, GridTooSmallError, PreconditionViolatedError

WEIGHT_TOL = 1e-12
#: a dropped node may raise the potential above the energy by this much
#: relative to max(1, |energy|): rounding, not a missed support point
KKT_TOL = 1e-12
#: coordinate-exchange sweeps of ``nth_diameter`` before it stops unconverged
MAX_PASSES = 40


# ---------------------------------------------------------------------------
# weighted point sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedPointSet:
    """Discrete node set carrying simplex weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 1:
            raise ValueError("need at least one node")
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.shape != nodes.shape:
            raise ValueError("weights shape mismatch")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", w)


def circle_nodes(center: complex, radius: float, n: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return center + radius * np.exp(1j * theta)


def segment_nodes(a: complex, b: complex, n: int) -> np.ndarray:
    return a + (b - a) * np.linspace(0.0, 1.0, n)


# ---------------------------------------------------------------------------
# energy matrix
# ---------------------------------------------------------------------------


def _pair_distances(nodes: np.ndarray) -> np.ndarray:
    """|z_i - z_j|, a fresh array whose diagonal the callers overwrite."""
    return np.abs(nodes[:, None] - nodes[None, :])


def log_distance_matrix(nodes: np.ndarray) -> np.ndarray:
    """log|z_i - z_j| with zeros on the diagonal."""
    return _log_in_place(_pair_distances(nodes))


def _log_in_place(d: np.ndarray) -> np.ndarray:
    """log of the distances d off the diagonal and 0 on it, written over d."""
    np.fill_diagonal(d, 1.0)
    return np.log(d, out=d)


def _scales(d: np.ndarray) -> np.ndarray:
    """Per-node self-energy term log(d_i / (2*pi)), d_i = nearest-node gap,
    from the pairwise distances d, whose diagonal it overwrites.

    Models node i as carrying its weight spread over a boundary piece of
    length d_i; the 1/(2*pi) normalization makes the regularized energy of
    n uniform nodes on a circle of radius rho equal log(rho) exactly (up to
    the chord/arc defect sin(x)/x, which is O(1/n^2)).
    """
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    if np.any(~np.isfinite(nearest)) or np.any(nearest <= 0.0):
        raise PreconditionViolatedError("self scales need at least two nodes, all distinct")
    return np.log(nearest / (2.0 * math.pi))


def _energy_matrix(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_distance_matrix with the self-energy scales on the diagonal, the
    scales), from one matrix of pairwise distances."""
    d = _pair_distances(nodes)
    scales = _scales(d)
    A = _log_in_place(d)
    A[np.diag_indices(nodes.size)] = scales
    return A, scales


# ---------------------------------------------------------------------------
# transfinite diameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityEstimate:
    """An n-th diameter capacity estimate (see ``capacity_via_transfinite``)."""

    value: float
    n: int
    diagnostics: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": "transfinite",
            "n": self.n,
            "diagnostics": list(self.diagnostics),
        }


def _log_column(grid: np.ndarray, z: complex, diff: np.ndarray, out: np.ndarray) -> None:
    """Write log|grid - z| into ``out``, using ``diff`` as work space."""
    np.subtract(grid, z, out=diff)
    np.abs(diff, out=out)
    np.log(out, out=out)


def _leja_seed(candidates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy product-of-distances seeding; first point = max modulus.

    Returns the chosen grid indices and, for each chosen point z_m, its
    column log|candidates - z_m|."""
    chosen = np.empty(n, dtype=int)
    cols = np.empty((n, candidates.size))
    diff = np.empty_like(candidates)
    chosen[0] = int(np.argmax(np.abs(candidates)))
    with np.errstate(divide="ignore"):
        _log_column(candidates, candidates[chosen[0]], diff, cols[0])
        score = cols[0].copy()
        for m in range(1, n):
            chosen[m] = int(score.argmax())
            _log_column(candidates, candidates[chosen[m]], diff, cols[m])
            if m < n - 1:
                np.add(score, cols[m], out=score)
    return chosen, cols


def nth_diameter(candidates: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Search the candidate grid for an n-point configuration maximizing
    prod |z_j - z_k| ** (2/(n(n-1))); returns the attained value and the
    configuration's nodes.

    Leja seeding followed by coordinate-exchange sweeps (each point re-placed
    at its conditional optimum over the grid until n steps in a row make no
    change, at most ``MAX_PASSES`` sweeps of n steps).  The configuration is
    n grid points, so when the grid lies on a set E the exact value is at
    most the n-th diameter of E; the returned value rounds its log sum in
    floating point.  It is 0.0 on a grid with fewer than n distinct points.

    The search runs on the distinct grid points in order of first
    occurrence: a repeated point ties with its first copy, which argmax
    prefers.  Each configuration point keeps its column of log-distances to
    the grid, with 0.0 at its own grid point, and S holds the column sums,
    -inf exactly at the occupied points.  A step is one subtraction S -
    column, an argmax and one compare against the point's threshold; a move
    computes one new column of logs, updates S and re-sums S at the vacated
    point.  A move leaves every threshold stale, and a slot's threshold is
    re-summed from its row of pair distances only when its step reads it.
    """
    candidates = np.asarray(candidates, dtype=complex).ravel()
    if n < 2:
        raise ValueError("n >= 2 required")
    if candidates.size < 4 * n:
        raise GridTooSmallError(f"grid of {candidates.size} points < 4n = {4 * n}")
    grid = candidates[np.sort(np.unique(candidates, return_index=True)[1])]
    idx, cols = _leja_seed(grid, n)
    rows = list(cols)
    # others[i]: the configuration slots other than i, in order
    k = np.arange(n - 1)
    others = k + (k >= np.arange(n)[:, None])
    # running sums S[c] = sum_i cols[i][c] over the configuration, each one
    # contiguous pairwise sum along a row of the grid-major copy
    S = np.sum(np.ascontiguousarray(cols.T), axis=1)
    # pair[i]: log|z_k - z_i| over the other slots k, read from column i;
    # row sum i is the current value at slot i
    pair = cols[np.arange(n)[:, None], idx[others]]
    cols[np.arange(n), idx] = 0.0
    # thresholds[i]: the value a move of slot i must beat, None while stale
    thresholds = [None] * n
    buf = np.empty_like(S)
    diff = np.empty_like(grid)
    idle = 0
    with np.errstate(divide="ignore"):
        for step in range(MAX_PASSES * n):
            i = step % n
            col = rows[i]
            np.subtract(S, col, out=buf)
            j = int(buf.argmax())
            t = thresholds[i]
            if t is None:
                # Python floats, so a -inf row sum gives NaN without a warning
                cur = float(np.add.reduce(pair[i]))
                t = thresholds[i] = cur + 1e-14 * abs(cur)
            # False at a NaN threshold: a slot sharing its point with another never moves
            if not buf[j] > t:
                idle += 1
                if idle == n:
                    break
                continue
            idle = 0
            vacated = idx[i]
            _log_column(grid, grid[j], diff, col)
            np.add(buf, col, out=S)
            col[j] = 0.0
            S[vacated] = cols[:, vacated].sum()
            idx[i] = j
            pair[i] = col[idx[others[i]]]
            # slot i sits in column i - 1 of the rows above it, i of those below
            pair[:i, i - 1] = cols[:i, j]
            if i < n - 1:
                pair[i + 1 :, i] = cols[i + 1 :, j]
            thresholds = [None] * n

        config = grid[idx]
        # a grid with fewer than n distinct points repeats a node: log 0 =
        # -inf, and the value 0.0 is still a lower bound
        A = log_distance_matrix(config)
    log_delta = float(np.sum(A)) / (n * (n - 1))
    return math.exp(log_delta), config


def supported_n(n: int, grid_size: int) -> int:
    """The largest of 8, 16, 32 and n that a grid of ``grid_size`` candidates
    supports (the search needs 4n of them)."""
    fits = [m for m in (8, 16, 32, n) if 4 * m <= grid_size]
    if not fits:
        raise GridTooSmallError(f"grid of {grid_size} supports no n of 8, 16, 32, {n}")
    return max(fits)


def capacity_via_transfinite(candidates: np.ndarray, n: int) -> CapacityEstimate:
    """Capacity estimate from one n-th diameter search.

    The raw diameter (the one entry of ``diagnostics``) decreases toward the
    capacity from above as n grows; the value divides it by the universal
    circle rate n**(1/(n-1)), which removes the finite-n bias exactly on
    circles and to first order elsewhere.
    """
    d, _ = nth_diameter(candidates, n)
    return CapacityEstimate(value=d / n ** (1.0 / (n - 1)), n=n, diagnostics=(d,))


# ---------------------------------------------------------------------------
# equilibrium measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumSolution:
    measure: WeightedPointSet
    energy: float  # corrected estimate of I(mu)
    capacity: float  # exp(energy)
    kkt_residual: float  # stationarity of the regularized objective
    raw_energy: float = 0.0
    iterations: int = 0  # linear solves
    raw_potential_spread: float = 0.0


def _check_concave(A: np.ndarray) -> None:
    """Raise unless A is negative definite on sum-zero vectors: with
    Z = [-1^T; I] spanning them, -Z^T A Z (built in place from A's first row
    and column) must admit a Cholesky factorization."""
    S = A[1:, :1] + A[:1, 1:]
    S -= A[1:, 1:]
    S -= A[0, 0]
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise EquilibriumSolveError("energy is not concave on sum-zero weights") from None


def _bordered_solve(A: np.ndarray) -> np.ndarray:
    """w solving [[A, 1], [1^T, 0]] [w; -lambda] = [0; 1]."""
    m = A.shape[0]
    K = np.ones((m + 1, m + 1))
    K[:m, :m] = A
    K[m, m] = 0.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return np.linalg.solve(K, rhs)[:m]


def equilibrium_measure(nodes) -> EquilibriumSolution:
    """Maximize the regularized discrete energy w^T A w over the weight simplex.

    A is the pairwise log-distance matrix plus the self-energy diagonal of
    ``_scales`` (without it the maximizer is near-atomic, not the continuum equilibrium).
    A is concave on sum-zero weights, so the maximizer is unique and solves
    the bordered system on its support: one solve, repeated without the
    nodes whose weight comes out negative; each dropped node must then
    satisfy KKT, (A w)_i <= w^T A w.

    ``energy`` is the objective value (exact on circles); ``kkt_residual``
    is max |(A w)_i - w^T A w| on the support and its positive part off it.
    ``raw_energy`` is the excluded-diagonal pairwise sum, and
    ``raw_potential_spread`` the spread of its potential over the support,
    which is not zero at the optimum.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    if nodes.size < 2:
        raise PreconditionViolatedError("need at least two candidate nodes")
    A, scales = _energy_matrix(nodes)
    _check_concave(A)
    keep = np.arange(nodes.size)
    w_keep = _bordered_solve(A)
    solves = 1
    while np.any(w_keep < 0.0):
        keep = keep[w_keep >= 0.0]
        w_keep = _bordered_solve(A[np.ix_(keep, keep)])
        solves += 1
    w = np.zeros(nodes.size)
    w[keep] = w_keep
    pots = A @ w
    val = float(w @ pots)
    resid = pots - val
    support = w > 0.0
    off = float(np.max(resid[~support], initial=0.0))
    if off > KKT_TOL * max(1.0, abs(val)):
        raise EquilibriumSolveError(f"a dropped node violates stationarity by {off:.3e}")
    raw_pots = pots - scales * w  # excluded-diagonal potential at every node
    raw = float(w @ raw_pots)
    return EquilibriumSolution(
        measure=WeightedPointSet(nodes, w),
        energy=val,
        capacity=math.exp(val),
        kkt_residual=max(float(np.max(np.abs(resid[support]))), off),
        raw_energy=raw,
        iterations=solves,
        raw_potential_spread=float(np.max(np.abs(raw_pots[support] - raw))),
    )
