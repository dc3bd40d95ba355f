"""Boundary thickness conditions and their capacity counterparts.

Two conditions are checked on a domain with boundary scale function h:

* the annulus condition: every annulus {c*h(r) <= |z-a| <= r} around a
  boundary point a meets the boundary.  On circle-hole domains this reduces
  to interval arithmetic on the exact distance spectrum, so satisfied /
  failed flags carry no sampling error.
* the capacity density condition: Cap(closed disk(a, r) minus the domain)
  >= C * h(r).  Probed through a proven lower bound, the capacity of the
  largest disks that the complement holds in disk(a, r).

The bridge between them is a branching chain of boundary points (2^k points
whose pairwise distances are controlled scale by scale), which produces a
transfinite-diameter certificate and a capacity floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import EPS, disk_union_capacity
from .domains import CantorSet, CircleDomain, ScaleFunction, ZalcmanDomain
from .errors import (
    AnnulusEmptyError,
    NotBoundaryPointError,
    PreconditionViolatedError,
    ScaleUnderflowError,
)

TWO_PI = 2.0 * math.pi

#: boundary samples of the c* profile on each circle
SAMPLES_PER_CIRCLE = 8
#: annulus constants c at which a weakened condition must fail
C_GRID = (1.0, 0.5, 0.25)
#: radii per decade of the Cantor annulus check
CANTOR_RADII_PER_DECADE = 8
#: largest complement disks per condition-C probe (h1 and h2 Zalcman
#: probes read the same bound to 1e-6 from all of them)
PROBE_DISKS = 12
#: chain point pairs per certificate pass: bounds the pass's memory
CHAIN_PAIR_BUDGET = 2**16


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


def log_spaced_radii(r_min: float, r_max: float) -> np.ndarray:
    decades = math.log10(r_max / r_min)
    n = max(2, int(math.ceil(decades * CANTOR_RADII_PER_DECADE)) + 1)
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), n))


def resolved_r_min(domain: CircleDomain) -> float:
    """Radius below which truncation hides boundary structure near 0.

    From the origin, radii below x_K see no retained hole (everything deeper
    was cut), so constant profiles are only meaningful for r >= x_K.
    """
    if isinstance(domain, ZalcmanDomain):
        return float(domain.xs[domain.K - 1]) * 1.0001
    if domain.centers.size:
        return 1e-3 * float(domain.radii.min())
    return 1e-6


def _profile_range(domain: CircleDomain, h: ScaleFunction) -> tuple[float, float]:
    """(r_min, r0) of ``best_constant_profile``; empty when r_min > r0."""
    if isinstance(domain, ZalcmanDomain):
        r0 = domain.x1 / 2.0
    else:
        r0 = (domain.radii.max() * 2.0) if domain.centers.size else 0.5
    # h is defined below epsilon0 only; x1 / 2 already lies below epsilon0 / 2
    return resolved_r_min(domain), min(r0, h.epsilon0 / 2.0)


def best_constant_profile(domain: CircleDomain, h: ScaleFunction) -> tuple[float, dict[str, np.ndarray]]:
    """Tabulate c_star(a, r), the largest boundary distance from a at most r
    over h(r), at its breakpoints: the largest c for which the annulus
    {c*h(r) <= |z-a| <= r} meets the boundary.  Samples a are
    ``default_boundary_samples``; radii run over [r_min, r0], r_min from
    ``resolved_r_min`` and r0 = x1/2 on Zalcman domains, twice the largest
    hole radius on other holed domains, 0.5 otherwise, and at most
    epsilon0 / 2 of h.

    Between the component starts of a's distance spectrum the largest
    distance at most r is constant or equal to r, while h(r) and h(r)/r grow
    (h1 and h2 alike), so c_star(a, .) falls; it jumps up only at a start.
    Its infimum over [r_min, r0] is therefore its left limit at some start
    t in (r_min, r0], or its value at r0.  Each sample gets one row at
    r = nextafter(t, 0) per such start t, in increasing order, then one at
    r0; every row is exact at its own r.  A row one ulp below t lies above
    the left limit at t by h's change over that ulp: about 1e-16 relative
    times d log h / d log r, which is alpha for h1 and near 1 for h2.

    Returns (min over the table, table).  The table holds the columns
    ``a_re``, ``a_im``, ``r`` and ``c_star`` as equal-length arrays, samples
    outer.  The min is the infimum over [r_min, r0] at these boundary
    samples, up to that ulp; boundary points between the samples are not
    probed.
    """
    a_samples = default_boundary_samples(domain)
    r_min, r0 = _profile_range(domain, h)
    lo, top, start, _ = domain.distance_spectra(a_samples)
    n = lo.shape[0]
    # before[:, k], the largest top of the first k sorted intervals, is the sup
    # just below a start at k; one more column per sample holds its r0 row
    before = np.column_stack([np.zeros(n), top])
    last = np.count_nonzero(lo <= r0, axis=1)
    sup = np.column_stack([before[:, :-1], np.minimum(before[np.arange(n), last], r0)])
    r = np.column_stack([np.nextafter(lo, 0.0), np.full(n, r0)])
    rows = np.column_stack([start & (lo > r_min) & (lo <= r0), np.ones(n, dtype=bool)])
    counts, r = np.count_nonzero(rows, axis=1), r[rows]
    table = {
        "a_re": np.repeat(a_samples.real, counts),
        "a_im": np.repeat(a_samples.imag, counts),
        "r": r,
        "c_star": sup[rows] / np.array(h.values(r)),
    }
    # NaN-skipping, like a running min(); inf for an empty table
    return float(np.fmin.reduce(table["c_star"], initial=math.inf)), table


# ---------------------------------------------------------------------------
# classification of the weak conditions
# ---------------------------------------------------------------------------


def classify_weak_perfectness(
    domain: ZalcmanDomain, h: ScaleFunction, eps_list: Sequence[float]
) -> tuple[dict, dict]:
    """Check the annulus condition for h (an h1 or h2 scale function) and
    exhibit exact failure witnesses for each weakened parameter
    h.param - eps, eps in eps_list.

    The witnesses are read from one array: the origin's largest boundary
    distance at most r_k = x_k/2, k = 1..K-1.  r_k lies below disk k's
    nearest edge x_k - r_k, so that distance is the top x_{k+1} + r_{k+1} of
    disk k+1, or r_k itself when disk k+1 reaches past r_k; every disk
    deeper than K lies within x_{K+1} + r_{K+1} of the origin, below it, so
    the truncation does not change it.  For each c in ``C_GRID`` the witness
    is the first k with c*h_weak(r_k) above that distance: the annulus
    [c*h_weak(r_k), r_k] around 0 misses the untruncated boundary.

    Failure policy: the weakened condition is flagged failed when every c in
    ``C_GRID`` has a witness and c_star_tail, the last four of
    sup / h_weak(r_k), is strictly decreasing.

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
    radii = (domain.xs[: domain.K - 1] / 2.0).tolist()
    sup = domain.distance_spectrum(0j).sup_at_most(np.asarray(radii)).tolist()
    for eps in eps_list:
        h_weak = ScaleFunction.of(h.family, h.param - eps)
        h_r = h_weak.values(radii)
        witnesses = []  # the first empty annulus for each c that has one
        for c in C_GRID:
            k = next((k for k in range(len(radii)) if c * h_r[k] > sup[k]), None)
            if k is not None:
                witnesses.append({"k": k + 1, "r": radii[k], "c": c, "annulus_lo": c * h_r[k], "gap_top": sup[k]})
        tail = [s / hr for s, hr in zip(sup[-4:], h_r[-4:])]
        report["failures"].append(
            {
                "eps": eps,
                "param_weak": h_weak.param,
                "failed": bool(len(witnesses) == len(C_GRID) and all(a > b for a, b in zip(tail, tail[1:]))),
                "witnesses": witnesses,
                "c_star_tail": tail,
            }
        )
    return report, table


# ---------------------------------------------------------------------------
# capacity density probe
# ---------------------------------------------------------------------------


def condition_C_probe(domain: CircleDomain, h: ScaleFunction, a: complex, r: float) -> tuple[float, float]:
    """Proven lower bound on Cap(closed disk(a, r) minus the domain), and its
    ratio to h(r): ``disk_union_capacity`` of the ``PROBE_DISKS`` largest
    closed disks in that set, at most one per circle, or 0 without one (the
    isolated origin).  The disk is the whole hole once d + rho (d = |a - c|),
    raised by 8 eps, is at most r; else the disk on the lens's chord along
    the line through a and c, of radius (r + rho - d)/2 in a hole and
    (|a| + r - 1)/2 past the unit circle, cut by 16 eps (|a| + |c| + r + rho)
    for the rounding of its centre and radius.  The disks lie in disjoint
    closed holes or outside the unit disk."""
    d, _, far = domain._reach(a)
    c, rho = domain.circle_centers, domain.circle_radii
    lo = d - rho  # the chord runs from lo to r; the unit circle's side faces away from 0
    lo[-1] = -lo[-1]
    radii = 0.5 * (r - np.maximum(lo, -r))
    whole = far * (1.0 + 8.0 * EPS) <= r
    whole[-1] = False
    np.copyto(radii, rho, where=whole)
    keep = np.flatnonzero(radii > 0.0)
    keep = np.sort(keep[np.argsort(-radii[keep], kind="stable")[:PROBE_DISKS]])
    centers, radii = c[keep], radii[keep]
    for j in np.flatnonzero(~whole[keep]).tolist():
        i = int(keep[j])
        u = (c[i] - a) / d[i] if d[i] > 0.0 else 1.0  # towards the hole; any one at d = 0
        centers[j] = a + 0.5 * (r + lo[i]) * (-u if i == rho.size - 1 else u)
        radii[j] -= 16.0 * EPS * (abs(a) + abs(c[i]) + r + rho[i])
    left = radii > 0.0
    cap = disk_union_capacity(centers[left], radii[left])[0] if left.any() else 0.0
    return cap, cap / h.value(r)


def condition_C_profile(domain: CircleDomain, h: ScaleFunction, a: complex, radii: Sequence[float]) -> dict:
    """Probe Cap(disk(a,r) \\ domain)/h(r) over a radius grid; least-squares
    slope of log cap against log r comes along for exponent diagnostics.

    ``table`` holds the columns ``a_re``, ``a_im``, ``r``, ``cap`` and
    ``ratio``, one entry per radius; ``cap`` is ``condition_C_probe``'s
    proven lower bound, 0 where the disk holds no complement disk."""
    r = np.asarray(radii, dtype=float)
    cap, ratio = np.array([condition_C_probe(domain, h, a, ri) for ri in r.tolist()]).reshape(-1, 2).T
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
    this constant at that scale, ScaleUnderflowError when a scale underflows
    to 0, and PreconditionViolatedError when the scales do not at least
    halve per level.

    Each point is carried as (circle index, -1 for the origin; landing
    angle; per-level rotations since the start; position).  Deep scales fall
    below the resolution of positions and of summed angles, so two points of
    one lineage (same circle and landing angle) are compared through their
    rotations' differences, exact where the lineage is shared, deepest first.
    """
    if not domain.is_boundary(a):
        raise NotBoundaryPointError(f"{a} is not a boundary point")
    _, _, i = domain.nearest_boundary_point(a)
    if i is None:
        points = [(-1, 0.0, (), 0j)]
    else:
        c0 = complex(domain.circle_centers[i])
        points = [(i, math.atan2((a - c0).imag, (a - c0).real), (), a)]
    s = np.empty(k + 1)
    s[0] = s1
    for l in range(1, k + 1):
        s[l] = (c / 5.0) * h.value(s[l - 1])
        if not s[l] > 0.0:
            raise ScaleUnderflowError(f"s_{l} underflows to {s[l]:g}: the chain is too deep for doubles")
        if not s[l] <= 0.5 * s[l - 1]:
            raise PreconditionViolatedError(f"scales must at least halve per level: s_{l} = {s[l]:g}")
    # each point stays (word digit 0, one more zero rotation) or moves (digit 1)
    for l in range(k):
        lo, hi = 5.0 * s[l + 1], s[l]
        new_points = []
        for circle, base, steps, z in points:
            try:
                w, d, i = domain.witness_at_distance(z, lo, hi, on_circle=None if circle < 0 else circle)
            except ValueError as exc:
                raise AnnulusEmptyError(l, z, lo, hi) from exc
            new_points.append((circle, base, steps + (0.0,), z))
            if i is None:
                new_points.append((-1, 0.0, (0.0,) * (l + 1), w))
            elif i == circle:
                rho = float(domain.circle_radii[i])
                turned = steps + (2.0 * math.asin(min(1.0, d / (2.0 * rho))),)  # positive rotation
                ang = base + math.fsum(turned)
                w = complex(domain.circle_centers[i]) + rho * complex(math.cos(ang), math.sin(ang))
                new_points.append((i, base, turned, w))
            else:
                w0 = w - complex(domain.circle_centers[i])
                new_points.append((i, math.atan2(w0.imag, w0.real), (0.0,) * (l + 1), w))
        points = new_points

    circle, base, steps, pts = zip(*points)
    m, circle, base, pts = len(points), np.array(circle), np.array(base), np.array(pts, dtype=complex)
    total, steps = np.array([math.fsum(t) for t in steps]), np.array(steps).reshape(m, k)
    rho, rows = domain.circle_radii[circle], max(1, CHAIN_PAIR_BUDGET // m)
    touch = close = False  # some pair at distance <= 0, some below its floor
    for r0 in range(0, m - 1, rows):  # the pairs i < j with i in [r0, r0 + rows)
        I, J = slice(r0, r0 + rows), slice(r0 + 1, m)
        i, j = np.arange(m)[I, None], np.arange(m)[J]
        dz = pts[I, None] - pts[J]
        dist = np.hypot(dz.real, dz.imag)
        dang = np.zeros(dist.shape)
        for t in reversed(range(k)):  # deepest (smallest) first
            dang += steps[I, t, None] - steps[J, t]
        dang = np.where(base[I, None] == base[J], dang, (base[I, None] - base[J]) + (total[I, None] - total[J]))
        same = (circle[I, None] == circle[J]) & (circle[I, None] >= 0)
        dist = np.where(same, 2.0 * rho[I, None] * np.abs(np.sin(0.5 * dang)), dist)
        dist[i >= j] = math.inf
        # words first differ at level prefix, whose window floor is
        # 5 s[prefix+1]; later drift eats at most 4 s[prefix+1]
        prefix = k - np.frexp(np.maximum(i ^ j, 1))[1]
        touch |= (dist <= 0.0).any()
        close |= (dist < s[prefix + 1]).any()
    distinct = not touch
    pairwise_ok = distinct and not close
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


def chain_capacity_comparison(domain: CircleDomain, cert: PommerenkeCertificate, h: ScaleFunction) -> dict:
    """Compare the chain floor with ``condition_C_probe``'s lower bound on the
    complement capacity in the ball of radius 2*seed, which holds the chain."""
    cap, _ = condition_C_probe(domain, h, cert.a, 2.0 * cert.seed)
    return {
        "capacity_floor": cert.capacity_floor,
        "measured_cap": cap,
        "floor_below_measured": cert.capacity_floor <= 1.05 * cap,
    }


# ---------------------------------------------------------------------------
# aggregated reports
# ---------------------------------------------------------------------------


def uc_report(domain: ZalcmanDomain, h: ScaleFunction, classification: dict) -> tuple[dict, dict]:
    """One-page diagnostic: the annulus-condition ``classification`` of h
    (from ``classify_weak_perfectness``) on one side, capacity-density
    constants and exponents on the other.

    ``U_weakened_failed`` reports the classification's first weakening.
    Returns (the diagnostic, the ``condition_C_profile`` table at the origin).
    """
    # 1.25 (x_k + r_k) for k = 1..K-1, from resolved_r_min up
    radii = 1.25 * (domain.xs[: domain.K - 1] + domain.rs[: domain.K - 1])
    prof = condition_C_profile(domain, h, 0j, radii[radii >= resolved_r_min(domain)])
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
    return out, prof["table"]


def _cantor_range(C: CantorSet) -> tuple[float, float]:
    """The radii of ``cantor_U_check``: 2.0002 l_{J-1} up to 1.9 l0."""
    return 2.0 * float(C.lengths[C.J - 1]) * 1.0001, 1.9 * C.l0


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
    r_grid = log_spaced_radii(*_cantor_range(C))
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
