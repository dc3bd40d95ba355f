"""Boundary thickness conditions and their capacity counterparts.

Two conditions are checked on a domain with boundary scale function h:

* the annulus condition: every annulus {c*h(r) <= |z-a| <= r} around a
  boundary point a meets the boundary.  On circle-hole domains this reduces
  to interval arithmetic on the exact distance spectrum, so satisfied /
  failed flags carry no sampling error.
* the capacity density condition: Cap(closed disk(a, r) minus the domain)
  >= C * h(r).  Probed numerically through boundary-arc discretizations.

The bridge between them is a branching chain of boundary points (2^k points
whose pairwise distances are controlled scale by scale), which produces a
transfinite-diameter certificate and a capacity floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import capacity_via_transfinite, supported_n
from .domains import CantorSet, CircleDomain, ScaleFunction, ZalcmanDomain
from .errors import (
    AnnulusEmptyError,
    EmptySetError,
    NotBoundaryPointError,
    PreconditionViolatedError,
)

TWO_PI = 2.0 * math.pi

#: boundary samples of the c* profile on each circle
SAMPLES_PER_CIRCLE = 8
#: annulus constants c at which a weakened condition must fail
C_GRID = (1.0, 0.5, 0.25)
#: hole-rim and outer-circle nodes of the condition-C grid before densifying
PROBE_NODES_PER_CIRCLE = 16
PROBE_OUTER_NODES = 512


# ---------------------------------------------------------------------------
# annulus condition
# ---------------------------------------------------------------------------


def default_boundary_samples(domain: CircleDomain) -> np.ndarray:
    """Deterministic boundary sample set: origin (when boundary) and
    ``SAMPLES_PER_CIRCLE`` points on every circle."""
    ring = np.exp(1j * TWO_PI * np.arange(SAMPLES_PER_CIRCLE) / SAMPLES_PER_CIRCLE)
    samples = [c0 + rho * ring for c0, rho in zip(domain.circle_centers, domain.circle_radii)]
    if domain.include_origin:
        samples.insert(0, np.array([0j]))
    return np.concatenate(samples)


def log_spaced_radii(r_min: float, r_max: float, per_decade: int = 16) -> np.ndarray:
    decades = math.log10(r_max / r_min)
    n = max(2, int(math.ceil(decades * per_decade)) + 1)
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), n))


def resolved_r_min(domain: CircleDomain) -> float:
    """Radius below which truncation hides boundary structure near 0.

    From the origin, radii below x_K see no retained hole (everything deeper
    was cut), so constant profiles are only meaningful for r >= x_K.
    """
    if isinstance(domain, ZalcmanDomain) and domain.variant == "superset":
        return float(domain.xs[domain.K - 1]) * 1.0001
    if domain.centers.size:
        return 1e-3 * float(domain.radii.min())
    return 1e-6


def best_constant_profile(domain: CircleDomain, h: ScaleFunction) -> tuple[float, dict[str, np.ndarray]]:
    """Tabulate c_star(a, r) over ``default_boundary_samples`` and radii
    log-spaced at 16 per decade from ``resolved_r_min`` up to r0: x1/2 on
    Zalcman domains, twice the largest hole radius on other holed domains,
    0.5 otherwise, and at most epsilon0 / 2 of h.  c_star(a, r), the largest
    boundary distance from a at most r over h(r), is the largest c for which
    the annulus {c*h(r) <= |z-a| <= r} meets the boundary.

    Returns (min over the table, table).  The table holds the columns
    ``a_re``, ``a_im``, ``r`` and ``c_star`` as equal-length arrays, one row
    per (sample, radius) pair, samples outer.  Each c_star is exact at its
    radius, but the sampled radii can only miss dips of c_star(a, .), so the
    min lies at or above the infimum over [r_min, r0] at these boundary
    samples (h2(1), x1 = 1e-3, K = 40: 1.00896 sampled, 1.00660 exact); it is
    not a certified lower bound.
    """
    a_samples = default_boundary_samples(domain)
    if isinstance(domain, ZalcmanDomain):
        r0 = domain.x1 / 2.0
    else:
        r0 = (domain.radii.max() * 2.0) if domain.centers.size else 0.5
    # h is defined below epsilon0 only; x1 / 2 already lies below epsilon0 / 2
    r0 = min(r0, h.epsilon0 / 2.0)
    radii = log_spaced_radii(resolved_r_min(domain), r0)
    # scalar h.value per radius: np.log/np.exp may differ from math in the last ulp
    hr = np.array([h.value(r) for r in radii.tolist()])
    c_star = np.empty((a_samples.size, radii.size))
    for i, a in enumerate(a_samples):
        c_star[i] = domain.distance_spectrum(a).sup_at_most(radii) / hr
    table = {
        "a_re": np.repeat(a_samples.real, radii.size),
        "a_im": np.repeat(a_samples.imag, radii.size),
        "r": np.tile(radii, a_samples.size),
        "c_star": c_star.ravel(),
    }
    # NaN-skipping, like a running min(); inf for an empty table
    return float(np.fmin.reduce(c_star.ravel(), initial=math.inf)), table


# ---------------------------------------------------------------------------
# classification of the weak conditions
# ---------------------------------------------------------------------------


def exact_empty_annulus(domain: ZalcmanDomain, k: int, c: float, h_test: ScaleFunction) -> Optional[dict]:
    """Certificate that [c*h_test(x_k/2), x_k/2] around a=0 misses the full
    (untruncated) boundary; None when the annulus is inhabited or when the
    truncation cannot decide.

    Valid for k <= K-1: everything unresolved lies within x_{K+1}+r_{K+1}
    of the origin, which is below the resolved disk k+1 edge.
    """
    if k < 1 or k > domain.K - 1:
        return None
    xs, rs = domain.xs, domain.rs
    r = float(xs[k - 1]) / 2.0
    lo = c * h_test.value(r)
    # structure below r from the origin: disks j >= k+1 reach up to
    # x_{k+1} + r_{k+1}; disk k begins at x_k - r_k
    upper_inhabited = xs[k] + rs[k]  # x_{k+1} + r_{k+1}
    lower_clear = xs[k - 1] - rs[k - 1]  # x_k - r_k
    if lo > upper_inhabited and r < lower_clear:
        if domain.distance_spectrum(0j).intersects(lo, r):
            raise PreconditionViolatedError(
                f"scale {k}: certified empty annulus [{lo}, {r}] meets the distance spectrum of 0"
            )
        return {"k": k, "r": r, "c": c, "annulus_lo": lo, "gap_top": float(upper_inhabited)}
    return None


def classify_weak_perfectness(
    domain: ZalcmanDomain, h: ScaleFunction, eps_list: Sequence[float]
) -> tuple[dict, dict]:
    """Check the annulus condition for h (an h1 or h2 scale function) and
    exhibit exact failure witnesses for each weakened parameter
    h.param - eps, eps in eps_list.

    Failure policy: the weakened condition is flagged failed when, for every
    c in ``C_GRID``, some resolved scale carries a certified empty annulus, and
    the c_star profile along the witness radii x_k/2 is strictly decreasing
    at the tail.  All comparisons are plain interval arithmetic.

    Returns (report, the table of ``best_constant_profile(domain, h)``).
    """
    cs_global, table = best_constant_profile(domain, h)
    report = {
        "family": h.family,
        "param": h.param,
        "satisfied": bool(cs_global > 0.0),
        "c_star_global": cs_global,
        "table_size": int(table["c_star"].size),
        "failures": [],
    }
    spec0 = domain.distance_spectrum(0j)
    tail_radii = [float(domain.xs[k - 1]) / 2.0 for k in range(max(1, domain.K - 4), domain.K)]
    tail_sup = spec0.sup_at_most(np.asarray(tail_radii)).tolist()
    for eps in eps_list:
        h_weak = ScaleFunction.of(h.family, h.param - eps)
        witnesses = []  # the first certified empty annulus for each c that has one
        for c in C_GRID:
            certs = (exact_empty_annulus(domain, k, c, h_weak) for k in range(1, domain.K))
            found = next((cert for cert in certs if cert is not None), None)
            if found is not None:
                witnesses.append(found)
        # c_star along witness radii r = x_k/2 decreasing at the tail
        tail = [s / h_weak.value(r) for s, r in zip(tail_sup, tail_radii)]
        decreasing = all(a > b for a, b in zip(tail, tail[1:]))
        report["failures"].append(
            {
                "eps": eps,
                "param_weak": h_weak.param,
                "failed": bool(len(witnesses) == len(C_GRID) and decreasing),
                "witnesses": witnesses,
                "c_star_tail": tail,
            }
        )
    return report, table


# ---------------------------------------------------------------------------
# capacity density probe
# ---------------------------------------------------------------------------


def hole_arc_nodes(
    domain: CircleDomain,
    a: complex,
    r: float,
    nodes_per_circle: int,
    outer_nodes: int,
) -> np.ndarray:
    """Discretize the complement set (closed disk(a, r) minus the domain)
    by the boundary arcs of the holes, the inner barrier, and the outer
    circle clipped to distance r from a (``CircleDomain.arc_angles``, at
    least 8 nodes on a partial arc)."""
    pts = []
    # hole rims get nodes_per_circle nodes, the inner barrier and the outer
    # circle (the complement includes |z| >= outer_radius) outer_nodes
    circles = zip(domain.circle_centers.tolist(), domain.circle_radii.tolist())
    for i, (c0, rho) in enumerate(circles):
        n_full = nodes_per_circle if i < domain.centers.size else outer_nodes
        theta = domain.arc_angles(i, a, r, n_full, 8)
        if theta is not None:
            pts.append(c0 + rho * np.exp(1j * theta))
    if domain.include_origin and abs(a) <= r:
        pts.append(np.array([0j]))
    if not pts:
        return np.empty(0, dtype=complex)
    return np.concatenate(pts)


def condition_C_probe(
    domain: CircleDomain,
    h: ScaleFunction,
    a: complex,
    r: float,
    n: int,
) -> tuple[float, float]:
    """Capacity of the complement piece in disk(a, r), and its ratio to h(r)."""
    nodes_per_circle, outer_nodes = PROBE_NODES_PER_CIRCLE, PROBE_OUTER_NODES
    grid = hole_arc_nodes(domain, a, r, nodes_per_circle, outer_nodes)
    if grid.size == 0:
        raise EmptySetError(f"no complement nodes within {r} of {a}")
    for _ in range(8):  # densify short arcs until the grid supports n
        if grid.size >= 4 * n:
            break
        nodes_per_circle *= 2
        outer_nodes *= 2
        grid = hole_arc_nodes(domain, a, r, nodes_per_circle, outer_nodes)
    cap = capacity_via_transfinite(grid, supported_n(n, grid.size)).value
    return cap, cap / h.value(r)


def condition_C_profile(
    domain: CircleDomain,
    h: ScaleFunction,
    a: complex,
    radii: Sequence[float],
    n: int,
) -> dict:
    """Probe Cap(disk(a,r) \\ domain)/h(r) over a radius grid; least-squares
    slope of log cap against log r comes along for exponent diagnostics.

    ``table`` holds the columns ``a_re``, ``a_im``, ``r``, ``cap`` and
    ``ratio``, one entry per radius; ``cap`` and ``ratio`` are 0 where the
    disk holds no complement node."""
    r = np.asarray(radii, dtype=float)
    cap, ratio = np.zeros(r.size), np.zeros(r.size)
    for i, ri in enumerate(r.tolist()):
        try:
            cap[i], ratio[i] = condition_C_probe(domain, h, a, ri, n=n)
        except EmptySetError:
            pass
    good = cap > 0
    slope = math.nan
    if good.sum() >= 2:
        # scalar math.log: np.log may differ in the last ulp
        lx = np.array([math.log(x) for x in r[good].tolist()])
        ly = np.array([math.log(x) for x in cap[good].tolist()])
        slope = float(np.polyfit(lx, ly, 1)[0])
    positive = ratio[ratio > 0]
    return {
        "table": {"a_re": np.full(r.size, a.real), "a_im": np.full(r.size, a.imag),
                  "r": r, "cap": cap, "ratio": ratio},
        "slope": slope,
        "ratio_inf": float(positive.min()) if positive.size else 0.0,
    }


# ---------------------------------------------------------------------------
# branching boundary chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PommerenkeCertificate:
    """A branching chain; point i's word, its branch at each level (0 stays,
    1 moves), is i written in binary with k digits."""

    a: complex
    c: float
    seed: float  # starting window top s_0
    s: np.ndarray  # derived scales s_1..s_k, s_{l+1} = (c/5) h(s_l)
    points: np.ndarray  # 2^k chain points (Cartesian display values)
    pairwise_ok: bool  # every pair at prefix length m is >= s_{m+1} apart
    distinct: bool  # all points distinct (exact chord distances > 0)
    within_seed_ball: bool  # all points within 2*seed of a
    product_bound: float  # sum_{l<k} 2^(k-l-1) log s_{l+1}
    capacity_floor: float  # exp(truncated sum of log s_{l+1} / 2^(l+1))

    @property
    def depth(self) -> int:
        return int(self.s.size)


@dataclass(frozen=True)
class _ChainPoint:
    """Boundary point carried exactly: circle index (None for the origin)
    plus, on circles, a landing angle and the per-level rotation increments
    applied since.

    Deep chain scales shrink below both the Cartesian resolution of the
    anchors and the additive resolution of any accumulated angle, so
    same-circle distances must be formed by differencing the per-level
    increments (identical floats cancel exactly along shared lineage) and
    only then summing, deepest first."""

    circle: Optional[int]  # index into domain.circle_centers / circle_radii
    angle_base: float  # angle where this lineage landed on the circle
    steps: tuple  # per-level rotation increments since the chain start
    z: complex  # materialized position (display only at deep scales)


def _chain_distance(p: _ChainPoint, q: _ChainPoint, domain: CircleDomain) -> float:
    if p.circle is not None and p.circle == q.circle:
        rho = float(domain.circle_radii[p.circle])
        if p.angle_base == q.angle_base:
            diffs = [a - b for a, b in zip(p.steps, q.steps)]
            dang = 0.0
            for t in reversed(diffs):  # deepest (smallest) first
                dang += t
        else:
            dang = (p.angle_base - q.angle_base) + (
                math.fsum(p.steps) - math.fsum(q.steps)
            )
        return 2.0 * rho * abs(math.sin(0.5 * dang))
    return abs(p.z - q.z)


def _chain_image(domain: CircleDomain, p: _ChainPoint, lo: float, hi: float) -> _ChainPoint:
    """Boundary point nearest to p within [lo, hi]; exact on p's own circle,
    where it is p rotated by one more recorded step."""
    z, d, i = domain.witness_at_distance(p.z, lo, hi, on_circle=p.circle)
    level = len(p.steps)
    if i is None:
        return _ChainPoint(None, 0.0, (0.0,) * (level + 1), z)
    c0, rho = complex(domain.circle_centers[i]), float(domain.circle_radii[i])
    if i == p.circle:
        dtheta = 2.0 * math.asin(min(1.0, d / (2.0 * rho)))  # positive rotation
        steps = p.steps + (dtheta,)
        ang = p.angle_base + math.fsum(steps)
        return _ChainPoint(
            i, p.angle_base, steps, c0 + rho * complex(math.cos(ang), math.sin(ang))
        )
    return _ChainPoint(i, math.atan2((z - c0).imag, (z - c0).real), (0.0,) * (level + 1), z)


def pommerenke_construct(
    domain: CircleDomain,
    a: complex,
    c: float,
    k: int,
    s1: float,
    h: ScaleFunction,
) -> PommerenkeCertificate:
    """Build the 2^k-point branching chain starting at boundary point a.

    Scales follow s_{l+1} = (c/5) h(s_l) from the seed s_0 = s1; level l
    maps every current point z to itself and to a boundary point at distance
    in [5 s_{l+1}, s_l] = [c h(s_l), s_l] from z (smallest achievable
    distance, deterministic tie-breaks).  Pairs whose index words first
    differ at level m are then >= s_{m+1} apart, exactly the certificate the
    transfinite product bound needs.  Raises AnnulusEmptyError(level) when
    some window misses the boundary, i.e. the annulus condition fails with
    this constant at that scale, and PreconditionViolatedError when the
    scales do not at least halve per level.
    """
    _, d, i = domain.nearest_boundary_point(a)
    if d > 1e-12 * max(1.0, 0.0 if i is None else float(domain.circle_radii[i])):
        raise NotBoundaryPointError(f"{a} is not a boundary point")
    if i is None:
        start = _ChainPoint(None, 0.0, (), 0j)
    else:
        c0 = complex(domain.circle_centers[i])
        start = _ChainPoint(i, math.atan2((a - c0).imag, (a - c0).real), (), a)
    s = np.empty(k + 1)
    s[0] = s1
    for l in range(1, k + 1):
        s[l] = (c / 5.0) * h.value(s[l - 1])
        if not s[l] <= 0.5 * s[l - 1]:
            raise PreconditionViolatedError(f"scales must at least halve per level: s_{l} = {s[l]:g}")
    # each point stays (word digit 0, one more zero step) or moves (digit 1)
    points = [start]
    for l in range(k):
        lo, hi = 5.0 * s[l + 1], s[l]
        new_points = []
        for p in points:
            try:
                img = _chain_image(domain, p, lo, hi)
            except ValueError as exc:
                raise AnnulusEmptyError(
                    l, f"level {l}: no boundary point in [{lo}, {hi}] around {p.z}"
                ) from exc
            new_points += [_ChainPoint(p.circle, p.angle_base, p.steps + (0.0,), p.z), img]
        points = new_points

    m = len(points)
    pairwise_ok = distinct = True
    for i in range(m):
        for j in range(i + 1, m):
            dij = _chain_distance(points[i], points[j], domain)
            if dij <= 0.0:
                distinct = False
            # words first differ at level prefix, whose window floor is
            # 5 s[prefix+1]; later drift eats at most 4 s[prefix+1]
            prefix = k - (i ^ j).bit_length()
            if dij < s[prefix + 1]:
                pairwise_ok = False
    pairwise_ok = pairwise_ok and distinct
    pts = np.asarray([p.z for p in points], dtype=complex)
    within = bool(np.all(np.abs(pts - a) <= 2.0 * s[0]))
    log_s = np.log(s[1 : k + 1])  # log s_1 .. log s_k (derived scales)
    product_bound = float(sum(2.0 ** (k - l - 1) * log_s[l] for l in range(k)))
    floor = math.exp(float(sum(log_s[l] / 2.0 ** (l + 1) for l in range(k))))
    return PommerenkeCertificate(
        a=complex(a),
        c=float(c),
        seed=float(s[0]),
        s=s[1 : k + 1].copy(),
        points=pts,
        pairwise_ok=bool(pairwise_ok),
        distinct=bool(distinct),
        within_seed_ball=within,
        product_bound=product_bound,
        capacity_floor=floor,
    )


def chain_capacity_comparison(
    domain: CircleDomain,
    cert: PommerenkeCertificate,
    h: ScaleFunction,
    n: int,
) -> dict:
    """Measure the complement capacity on the ball containing the chain
    (radius 2*seed) and compare with the chain floor."""
    cap, _ = condition_C_probe(domain, h, cert.a, 2.0 * cert.seed, n=n)
    return {
        "capacity_floor": cert.capacity_floor,
        "measured_cap": cap,
        "floor_below_measured": cert.capacity_floor <= 1.05 * cap,
    }


# ---------------------------------------------------------------------------
# aggregated reports
# ---------------------------------------------------------------------------


def uc_report(
    domain: ZalcmanDomain, h: ScaleFunction, classification: dict, n: int
) -> tuple[dict, dict]:
    """One-page diagnostic: the annulus-condition ``classification`` of h
    (from ``classify_weak_perfectness``) on one side, capacity-density
    constants and exponents on the other.

    ``U_weakened_failed`` reports the classification's first weakening.
    Returns (the diagnostic, the ``condition_C_profile`` table at the origin).
    """
    # 1.25 (x_k + r_k) for k = 1..K-1, from resolved_r_min up
    radii = 1.25 * (domain.xs[: domain.K - 1] + domain.rs[: domain.K - 1])
    prof = condition_C_profile(domain, h, 0j, radii[radii >= resolved_r_min(domain)], n=n)
    out = {
        "family": h.family,
        "param": h.param,
        "U_satisfied": classification["satisfied"],
        "c_star_global": classification["c_star_global"],
        "U_weakened_failed": classification["failures"][0]["failed"],
        "C_ratio_inf": prof["ratio_inf"],
        "C_slope": prof["slope"],
    }
    if h.family == "h1" and 1.0 < h.param < 2.0:
        out["C_exponent_bound"] = 1.0 / (2.0 - h.param)
        out["C_slope_ok"] = prof["slope"] <= 1.0 / (2.0 - h.param) + 0.2
    if h.family == "h2":
        out["C_ratio_positive"] = prof["ratio_inf"] > 0.0
    return out, prof["table"]


def cantor_U_check(C: CantorSet) -> dict:
    """Exact annulus checks for the complement of a nested-interval set, with
    h(r) = r**C.alpha and c = 2**(-2 - alpha).

    Base points and witnesses are interval endpoints, which all belong to
    the limit set, so every satisfied flag is a certificate.  Distances are
    evaluated combinatorially from construction words (see
    ``CantorSet.endpoint_distances``).  Radii are restricted to the range the
    finite depth resolves (r > 2 l_{J-1}).
    """
    alpha = C.alpha
    c = 0.5 * 2.0 ** (-1.0 - alpha)
    r_grid = log_spaced_radii(2.0 * float(C.lengths[C.J - 1]) * 1.0001, 1.9 * C.l0, per_decade=8)
    lo = np.array([c * r**alpha for r in r_grid])
    words, dist = C.endpoint_distances()
    failures = []
    for word, d in zip(words, np.sort(dist, axis=1)):
        # the smallest positive distance >= c h(r), inf if none, must be <= r
        d = np.append(d[d > 0.0], math.inf)
        missed = r_grid[d[np.searchsorted(d, lo, side="left")] > r_grid]
        failures.extend({"word": word, "r": float(r)} for r in missed)
    return {
        "alpha": alpha,
        "c": c,
        "checks": len(words) * r_grid.size,
        "passed": not failures,
        "failures": failures[:10],
    }
