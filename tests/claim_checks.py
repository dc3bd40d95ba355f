"""Multi-step checks of the paper's capacity laws, the Cantor estimates and
the Cauchy-transform norm lemma, built from berglab's public functions.
No pipeline runs them; the acceptance criteria and the capacity and Bergman
tests do."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from berglab.bergman import ETA
from berglab.capacity import (
    CapacityEstimate,
    capacity_via_transfinite,
    circle_nodes,
    equilibrium_measure,
    nth_diameter,
)
from berglab.domains import CantorSet
from berglab.errors import GridTooSmallError, PreconditionViolatedError
from berglab.quadrature import RationalFunction, norms_sq


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
    return CapacityEstimate(value=delta / n ** (1.0 / (n - 1)), n=n, diagnostics=(delta,))


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


def supported_n(n: int, grid_size: int) -> int:
    """The largest of 8, 16, 32 and n that a grid of ``grid_size`` candidates
    supports (the search needs 4n of them)."""
    fits = [m for m in (8, 16, 32, n) if 4 * m <= grid_size]
    if not fits:
        raise GridTooSmallError(f"grid of {grid_size} supports no n of 8, 16, 32, {n}")
    return max(fits)


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


def cauchy_transform_norm_check(holes: Sequence[tuple[complex, float]]) -> dict:
    """Compare the L2 mass of an equilibrium Cauchy transform outside its
    carrier against log(1 / capacity), inside the quarter disk.  Each hole
    rim carries 64 nodes, with poles retracted by ``ETA``.

    Also verifies the dilatation identity f_{tE}(w) = f_E(w/t) / t at
    t = 1/2 with a freshly solved measure on the dilated copy, at 16 sample
    points drawn from seed 11.
    """
    for c0, rho in holes:
        if abs(c0) + rho >= 0.25:
            raise ValueError("carrier must sit inside the quarter disk")
    n, t = 64, 0.5
    poles = np.concatenate([circle_nodes(complex(c0), (1.0 - ETA) * rho, n) for c0, rho in holes])
    bnds = np.concatenate([circle_nodes(complex(c0), rho, n) for c0, rho in holes])
    sol = equilibrium_measure(bnds)  # capacity of the true carrier rims
    f = RationalFunction.from_nodes(poles, sol.measure.weights)
    lhs = float(norms_sq([(0j, 0.25, 1)] + [(complex(c0), rho, -1) for c0, rho in holes], [f])[0][0])
    rhs = math.log(1.0 / sol.capacity)
    sol_t = equilibrium_measure(t * bnds)
    f_t = RationalFunction.from_nodes(t * poles, sol_t.measure.weights)
    rng = np.random.default_rng(11)
    zs = 0.3 + rng.uniform(0.0, 0.5, 16) + 1j * rng.uniform(-0.3, 0.3, 16)
    lhs_vals = f_t.eval(zs)
    rhs_vals = f.eval(zs / t) / t
    dil_err = float(np.max(np.abs(lhs_vals - rhs_vals) / np.abs(rhs_vals)))
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs != 0 else math.inf,
        "capacity": sol.capacity,
        "dilatation_error": dil_err,
    }
