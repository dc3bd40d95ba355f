"""Logarithmic capacity machinery.

Three estimator routes live here:

* ``nth_diameter`` / ``capacity_via_transfinite``: greedy Leja seeding plus
  coordinate-exchange search for n-point configurations maximizing the
  geometric-mean pairwise distance (the discrete Fekete problem).  The
  attained value is always a valid lower bound for the true n-th diameter,
  which itself decreases to the capacity from above by a factor that equals
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
* ``cantor_capacity_bound``: closed-form partial product for nested
  interval sets, evaluated in the log domain.

All searches are deterministic: fixed starts, fixed tie-breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domains import CantorSet
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
    """Discrete node set, optionally carrying simplex weights."""

    nodes: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).ravel()
        object.__setattr__(self, "nodes", nodes)
        if nodes.size < 1:
            raise ValueError("need at least one node")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.shape != nodes.shape:
                raise ValueError("weights shape mismatch")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise ValueError("weights must sum to 1")
            object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, nodes) -> "WeightedPointSet":
        nodes = np.asarray(nodes, dtype=complex).ravel()
        return cls(nodes, np.full(nodes.size, 1.0 / nodes.size))

    @property
    def weighted(self) -> bool:
        return self.weights is not None


def circle_nodes(center: complex, radius: float, n: int) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return center + radius * np.exp(1j * theta)


def segment_nodes(a: complex, b: complex, n: int) -> np.ndarray:
    return a + (b - a) * np.linspace(0.0, 1.0, n)


# ---------------------------------------------------------------------------
# potential and energy
# ---------------------------------------------------------------------------


def potential(mu: WeightedPointSet, z: complex) -> float:
    """sum_i w_i log|z - node_i|; -inf when z sits on a positive-weight node."""
    if not mu.weighted:
        raise ValueError("potential needs a weighted set")
    d = np.abs(z - mu.nodes)
    hit = (d == 0.0) & (mu.weights > 0)
    if np.any(hit):
        return -math.inf
    with np.errstate(divide="ignore"):
        logs = np.log(d)
    return float(np.dot(mu.weights, logs))


def log_distance_matrix(nodes: np.ndarray) -> np.ndarray:
    """log|z_i - z_j| with zeros on the diagonal."""
    d = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(d, 1.0)
    out = np.log(d)
    np.fill_diagonal(out, 0.0)
    return out


def energy(mu: WeightedPointSet) -> float:
    """Raw discrete energy sum_{i != j} w_i w_j log|z_i - z_j|."""
    if not mu.weighted:
        raise ValueError("energy needs a weighted set")
    A = log_distance_matrix(mu.nodes)
    return float(mu.weights @ A @ mu.weights)


def self_scales(nodes: np.ndarray) -> np.ndarray:
    """Per-node self-energy term log(d_i / (2*pi)), d_i = nearest-node gap.

    Models node i as carrying its weight spread over a boundary piece of
    length d_i; the 1/(2*pi) normalization makes the regularized energy of
    n uniform nodes on a circle of radius rho equal log(rho) exactly (up to
    the chord/arc defect sin(x)/x, which is O(1/n^2)).
    """
    d = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    if np.any(~np.isfinite(nearest)) or np.any(nearest <= 0.0):
        raise PreconditionViolatedError("self scales need at least two nodes, all distinct")
    return np.log(nearest / (2.0 * math.pi))


def _energy_matrix(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_distance_matrix with the self_scales diagonal, the scales)."""
    scales = self_scales(nodes)
    A = log_distance_matrix(nodes)
    A[np.diag_indices(nodes.size)] = scales
    return A, scales


def regularized_energy(mu: WeightedPointSet) -> float:
    """Pairwise energy plus the self-energy diagonal; continuum estimate."""
    A, _ = _energy_matrix(mu.nodes)
    return float(mu.weights @ A @ mu.weights)


# ---------------------------------------------------------------------------
# transfinite diameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    method: str  # transfinite | energy | closed_form | cantor_bound
    n: int
    diagnostics: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "n": self.n,
            "diagnostics": list(self.diagnostics),
        }


def _leja_seed(candidates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy product-of-distances seeding; first point = max modulus.

    Returns the chosen grid indices and, for each chosen point z_m, its
    column log|candidates - z_m|."""
    chosen = np.empty(n, dtype=int)
    cols = np.empty((n, candidates.size))
    chosen[0] = int(np.argmax(np.abs(candidates)))
    with np.errstate(divide="ignore"):
        cols[0] = np.log(np.abs(candidates - candidates[chosen[0]]))
        score = cols[0]
        for m in range(1, n):
            chosen[m] = int(np.argmax(score))
            cols[m] = np.log(np.abs(candidates - candidates[chosen[m]]))
            if m < n - 1:
                score = score + cols[m]
    return chosen, cols


def nth_diameter(candidates: np.ndarray, n: int) -> tuple[float, WeightedPointSet]:
    """Search the candidate grid for an n-point configuration maximizing
    prod |z_j - z_k| ** (2/(n(n-1))).

    Leja seeding followed by coordinate-exchange sweeps (each point re-placed
    at its conditional optimum over the grid until a full sweep makes no
    change, at most ``MAX_PASSES`` sweeps).  The attained value is a
    certified lower bound for the true n-th diameter.

    Each configuration point keeps its column of log-distances to the grid,
    so a step takes a few passes over the grid and a move computes one new
    column of logs.
    """
    candidates = np.asarray(candidates, dtype=complex).ravel()
    if n < 2:
        raise ValueError("n >= 2 required")
    if candidates.size < 4 * n:
        raise GridTooSmallError(f"grid of {candidates.size} points < 4n = {4 * n}")
    idx, cols = _leja_seed(candidates, n)
    config = candidates[idx]
    # others[i]: the configuration slots other than i, in order
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    # running sums S[c] = sum_i cols[i][c] over the configuration, each one
    # contiguous pairwise sum along a row of the grid-major copy; entries at
    # occupied grid points are -inf, which self-excludes them
    S = np.sum(np.ascontiguousarray(cols.T), axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_PASSES):
            moved = False
            for i in range(n):
                col = cols[i]
                # -inf - -inf at the point's own grid position is NaN: make it -inf
                resid = np.fmax(S - col, -np.inf)
                j = int(resid.argmax())
                cand = candidates[j]
                if cand == config[i]:
                    continue
                cur = col[idx[others[i]]].sum()
                if resid[j] > cur + 1e-14 * abs(cur):
                    old = config[i]
                    new = np.log(np.abs(candidates - cand))
                    S = S - col + new
                    cols[i] = new
                    config[i], idx[i] = cand, j
                    # only the vacated point is poisoned (-inf - -inf); entries
                    # at occupied points are -inf, as they should be
                    bad = np.isnan(S) | (candidates == old)
                    S[bad] = np.sum(np.log(np.abs(candidates[bad, None] - config[None, :])), axis=1)
                    moved = True
            if not moved:
                break

    A = log_distance_matrix(config)
    log_delta = float(np.sum(A)) / (n * (n - 1))
    return math.exp(log_delta), WeightedPointSet(config)


def supported_n(n: int, grid_size: int) -> int:
    """The largest of 8, 16, 32 and n that a grid of ``grid_size`` candidates
    supports (the search needs 4n of them)."""
    fits = [m for m in (8, 16, 32, n) if 4 * m <= grid_size]
    if not fits:
        raise GridTooSmallError(f"grid of {grid_size} supports no n of 8, 16, 32, {n}")
    return max(fits)


def capacity_via_transfinite(candidates: np.ndarray, n: int = 64) -> CapacityEstimate:
    """Capacity estimate from one n-th diameter search.

    The raw diameter (the one entry of ``diagnostics``) decreases toward the
    capacity from above as n grows; the value divides it by the universal
    circle rate n**(1/(n-1)), which removes the finite-n bias exactly on
    circles and to first order elsewhere.
    """
    d, _ = nth_diameter(candidates, n)
    return CapacityEstimate(
        value=d / n ** (1.0 / (n - 1)), method="transfinite", n=n, diagnostics=(d,)
    )


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
    converged: bool = True
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


def equilibrium_measure(candidates) -> EquilibriumSolution:
    """Maximize the regularized discrete energy w^T A w over the weight simplex.

    A is the pairwise log-distance matrix plus the ``self_scales`` diagonal
    (without it the maximizer is near-atomic, not the continuum equilibrium).
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
    nodes = candidates.nodes if isinstance(candidates, WeightedPointSet) else candidates
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


# ---------------------------------------------------------------------------
# Cantor bound and the capacity laws
# ---------------------------------------------------------------------------


def cantor_transfinite_estimate(C: CantorSet, n: int = 512) -> CapacityEstimate:
    """Transfinite-diameter estimate for a nested-interval set.

    Level-J intervals sit at positions whose doubles cannot resolve the
    interval interiors (length l_J far below eps * position), so raw point
    grids starve the search.  Instead the configuration product factorizes:
    put m = n / 2^J segment-extremal points in every interval; the
    within-interval part is m-point diameters of [0, 1] scaled by l_J, the
    across part uses the exact distances between the intervals' left ends
    from ``CantorSet.endpoint_distances``.  Offsets perturb across distances
    by at most l_J / gap, far below the reported precision.  The attained
    value remains a certified lower bound for the true n-th diameter.
    """
    J = C.J
    n_int = 2**J
    lengths = C.lengths
    _, dist = C.endpoint_distances()
    dmat = dist[::2, ::2]  # between left ends (side 0)
    iu = np.triu_indices(n_int, k=1)
    log_across_per_pair = float(np.sum(np.log(dmat[iu])))

    m = n // n_int
    if m < 2:
        raise GridTooSmallError(f"n = {n} puts fewer than 2 points per interval")
    v_m, _ = nth_diameter(np.linspace(0.0, 1.0, max(16 * m, 64)).astype(complex), m)
    within = n_int * (m * (m - 1) / 2.0) * (float(np.log(lengths[J])) + math.log(v_m))
    across = (m * m) * log_across_per_pair
    delta = math.exp(2.0 * (within + across) / (n * (n - 1)))
    return CapacityEstimate(
        value=delta / n ** (1.0 / (n - 1)), method="transfinite", n=n, diagnostics=(delta,)
    )


def cantor_capacity_bound(C: CantorSet, J: Optional[int] = None) -> float:
    """(1/2) * prod_{j<J} (2 l_{j+1} / l_j) ** (1/2**j), in the log domain.

    A finite partial product; an upper bound for the full product whenever
    the factors stay below 1.
    """
    J = C.J if J is None else J
    if J < 1 or J > C.J:
        raise ValueError("need 1 <= J <= depth")
    log_l = np.log(C.lengths)
    log_sum = 0.0
    for j in range(J):
        log_sum += (math.log(2.0) + log_l[j + 1] - log_l[j]) / (2.0**j)
    return 0.5 * math.exp(log_sum)


def scaling_law_check(
    candidates: np.ndarray,
    t: Optional[float] = None,
    holder: Optional[tuple] = None,
    n: int = 64,
    slack: float = 0.02,
) -> dict:
    """Check the dilatation law Cap(tE) = t Cap(E) and/or the distortion
    inequality Cap(T(E)) <= A * Cap(E)**c at matched n."""
    candidates = np.asarray(candidates, dtype=complex).ravel()
    n = supported_n(n, candidates.size)
    base = capacity_via_transfinite(candidates, n)
    report: dict = {"cap_E": base.value, "n": base.n}
    if t is not None:
        dil = capacity_via_transfinite(t * candidates, n)
        report["t"] = t
        report["cap_tE"] = dil.value
        report["dilatation_ok"] = abs(dil.value - t * base.value) <= slack * t * base.value
    if holder is not None:
        A_const, c_const, T = holder
        img = capacity_via_transfinite(T(candidates), n)
        report["cap_TE"] = img.value
        report["holder_ok"] = img.value <= A_const * base.value**c_const * (1.0 + slack)
        report["A"] = A_const
        report["c"] = c_const
    return report


def measure_dilatation_check(nodes: np.ndarray, t: float) -> dict:
    """Solve the equilibrium problem on E and tE and compare weights node
    for node (the dilated measure of a dilated set is the pushforward)."""
    sol = equilibrium_measure(np.asarray(nodes, dtype=complex))
    sol_t = equilibrium_measure(t * np.asarray(nodes, dtype=complex))
    dev = float(np.max(np.abs(sol.measure.weights - sol_t.measure.weights)))
    return {
        "t": t,
        "max_weight_deviation": dev,
        "cap_E": sol.capacity,
        "cap_tE": sol_t.capacity,
    }


def subadditivity_check(
    parts: Sequence[np.ndarray],
    d: Optional[float] = None,
    n: int = 64,
    slack: float = 0.05,
) -> dict:
    """Check 1/log(d/Cap(union)) <= (1+slack) * sum_n 1/log(d/Cap(E_n))."""
    parts = [np.asarray(p, dtype=complex).ravel() for p in parts]
    union = np.concatenate(parts)
    diam = float(np.max(np.abs(union[:, None] - union[None, :])))
    if d is None:
        d = 2.0 * diam
    n = supported_n(n, min(p.size for p in parts))
    cap_union = capacity_via_transfinite(union, n).value
    if diam > d or cap_union > d:
        raise PreconditionViolatedError("d must dominate both diam(E) and Cap(E)")
    caps = [capacity_via_transfinite(p, n).value for p in parts]
    lhs = 1.0 / math.log(d / cap_union)
    rhs = sum(1.0 / math.log(d / c) for c in caps)
    return {
        "d": d,
        "cap_union": cap_union,
        "cap_parts": caps,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs * (1.0 + slack),
    }
