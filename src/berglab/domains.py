"""Domain geometry: scale recursions, disk-complement domains, Cantor sets.

The central objects are

* :class:`ScaleFunction` -- the hole-size generator h, evaluated in the
  log domain so that doubly-exponential decays stay exact,
* :class:`CircleDomain` -- unit disk minus a finite list of closed disks,
  optionally with the origin as an isolated boundary point,
* :class:`ZalcmanDomain` -- a CircleDomain whose holes follow the coupling
  r_k = x_{k+1} = h(x_k),
* :class:`CantorSet` -- nested-interval set with per-level lengths l_j,
* :class:`IntervalUnion` -- exact carrier of achievable-distance sets.

Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .config import DOMAINS, check
from .errors import (
    BerglabError,
    BisectionFailureError,
    ConfigInvalidError,
    NonDisjointError,
    NotBoundaryPointError,
    RuleViolationError,
    ScaleUnderflowError,
)

#: natural-log floor below which scale arrays are declared unrepresentable
LOG_FLOOR = -690.0

#: tolerance for "lies on the boundary" queries
BOUNDARY_TOL = 1e-12

#: the JSON key of each scale family's parameter
PARAM_KEY = {"h1": "alpha", "h2": "beta"}


# ---------------------------------------------------------------------------
# scale functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleFunction:
    """Hole-size generator h on (0, epsilon0).

    Families:
      * ``h1``:  h(r) = r**alpha          (alpha > 1)
      * ``h2``:  h(r) = r * log(1/r)**-beta   (beta > 0)

    h is strictly increasing and satisfies h(r) < r on its validity range.
    """

    family: str
    param: float  # alpha for h1, beta for h2

    @classmethod
    def h1(cls, alpha: float) -> "ScaleFunction":
        if alpha <= 1.0:
            raise ValueError("h1 requires alpha > 1")
        return cls(family="h1", param=float(alpha))

    @classmethod
    def h2(cls, beta: float) -> "ScaleFunction":
        if beta <= 0.0:
            raise ValueError("h2 requires beta > 0")
        return cls(family="h2", param=float(beta))

    @classmethod
    def of(cls, family: str, param: float) -> "ScaleFunction":
        """The h1 family at alpha = param, or the h2 family at beta = param."""
        if family not in PARAM_KEY:
            raise ValueError(f"unknown family {family!r}")
        return getattr(cls, family)(param)

    @property
    def epsilon0(self) -> float:
        # h2(r) < r needs log(1/r) > 1
        return 1.0 if self.family == "h1" else math.exp(-1.0)

    def log_value(self, log_r):
        """log h(r) from log r; vectorized."""
        log_r = np.asarray(log_r, dtype=float)
        if self.family == "h1":
            out = self.param * log_r
        elif self.family == "h2":
            out = log_r - self.param * np.log(-log_r)
        else:  # pragma: no cover
            raise ValueError(f"unknown family {self.family!r}")
        return out if out.shape else float(out)

    def value(self, r: float) -> float:
        return math.exp(self.log_value(math.log(r)))

    def values(self, radii) -> list[float]:
        """``value`` at each radius of a list or an array, bit for bit, with
        one ``log_value`` call: math.log and math.exp once per distinct
        radius, as np.log and np.exp may differ from them in the last ulp."""
        r, where = np.unique(np.asarray(radii, dtype=float), return_inverse=True)
        log_r = np.array([math.log(v) for v in r.tolist()], dtype=float)
        return np.array([math.exp(v) for v in self.log_value(log_r).tolist()])[where].tolist()

    def inverse(self, t: float) -> float:
        """g(t) = h^{-1}(t) by bisection in the log domain."""
        if t <= 0:
            raise BisectionFailureError("inverse target must be positive")
        log_t = math.log(t)
        lo = log_t  # h(r) < r  =>  g(t) > t
        hi = math.log(self.epsilon0) - 1e-12
        if self.log_value(hi) < log_t:
            raise BisectionFailureError(f"t={t} above h(epsilon0)")
        if self.log_value(lo) > log_t:
            raise BisectionFailureError(f"cannot bracket t={t}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.log_value(mid) < log_t:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * max(1.0, abs(hi)):
                break
        g = 0.5 * (lo + hi)
        if abs(self.log_value(g) - log_t) > 1e-12:
            raise BisectionFailureError("bisection did not converge")
        return math.exp(g)


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted disjoint closed intervals of nonnegative reals plus isolated points."""

    intervals: np.ndarray  # shape (m, 2)
    points: np.ndarray  # shape (p,)

    @classmethod
    def build(cls, intervals: Sequence[tuple[float, float]], points: Sequence[float] = ()) -> "IntervalUnion":
        ivs = np.array(list(intervals), dtype=float).reshape(-1, 2)
        bad = ivs[(ivs[:, 0] < 0) | (ivs[:, 1] < ivs[:, 0])]
        if bad.size:
            raise ValueError(f"bad interval {bad[0].tolist()}")
        pts = np.array(sorted({float(p) for p in points}), dtype=float)
        if np.any(pts < 0):
            raise ValueError("negative isolated point")
        ivs = _components(*_merge(ivs[:, 0], ivs[:, 1]))
        # a point lies in the last interval starting at or below it, or in none
        held = pts <= np.append(-math.inf, ivs[:, 1])[np.searchsorted(ivs[:, 0], pts, side="right")]
        return cls(intervals=ivs, points=pts[~held])

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if self.intervals.size and bool(
            np.any((self.intervals[:, 0] - tol <= x) & (x <= self.intervals[:, 1] + tol))
        ):
            return True
        return bool(self.points.size and np.any(np.abs(self.points - x) <= tol))

    def intersects(self, lo: float, hi: float) -> bool:
        """Nonempty intersection with the closed interval [lo, hi], lo <= hi."""
        if self.intervals.size and bool(
            np.any((self.intervals[:, 0] <= hi) & (self.intervals[:, 1] >= lo))
        ):
            return True
        return bool(self.points.size and np.any((self.points >= lo) & (self.points <= hi)))

    def sup_at_most(self, hi):
        """Largest element <= hi (0.0 if none).

        ``hi`` may be a scalar (float returned) or an array (array returned).
        The intervals are sorted and disjoint, so their tops increase and the
        answer from the intervals is min(top, hi) of the last one starting at
        or below hi; the last point at or below hi is the point candidate.
        """
        q = np.asarray(hi, dtype=float)
        best = np.zeros(q.shape)
        if self.intervals.size:
            j = np.searchsorted(self.intervals[:, 0], q, side="right") - 1
            cand = np.minimum(self.intervals[np.maximum(j, 0), 1], q)
            best = np.where((j >= 0) & (cand > best), cand, best)
        if self.points.size:
            j = np.searchsorted(self.points, q, side="right") - 1
            cand = self.points[np.maximum(j, 0)]
            best = np.where((j >= 0) & (cand > best), cand, best)
        return best if q.ndim else float(best)

    def inf_at_least(self, lo: float) -> Optional[float]:
        """Smallest element >= lo, or None."""
        cands = []
        for a, b in self.intervals:
            if b >= lo:
                cands.append(max(a, lo))
        if self.points.size:
            pts = self.points[self.points >= lo]
            if pts.size:
                cands.append(float(pts[0]))
        return min(cands) if cands else None


def _merge(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge the closed intervals [lo, hi] of each row (the last axis):
    (lo sorted, the running max of hi in that order, the component starts).
    A component starts at the first entry and wherever lo exceeds the
    running max before it; its top is the running max at its last entry."""
    order = np.argsort(lo, axis=-1, kind="stable")
    lo = np.take_along_axis(lo, order, -1)
    top = np.maximum.accumulate(np.take_along_axis(hi, order, -1), axis=-1)
    start = np.ones(lo.shape, dtype=bool)
    start[..., 1:] = lo[..., 1:] > top[..., :-1]
    return lo, top, start


def _components(lo: np.ndarray, top: np.ndarray, start: np.ndarray) -> np.ndarray:
    """One merged row's (m, 2) intervals: component starts and their tops."""
    return np.column_stack([lo[start], top[np.roll(start, -1)]])


# ---------------------------------------------------------------------------
# circle domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleDomain:
    """Unit-disk domain with circular holes.

    The boundary is the isolated origin (when ``include_origin``) plus the
    circles ``circle_centers``/``circle_radii``: removed-disk circles, then
    the unit circle.  Queries visit the origin first, then the circles in
    order, so ties break the same way everywhere.  A component is named by
    its circle index, or None for the origin.
    """

    centers: np.ndarray  # complex hole centers
    radii: np.ndarray  # hole radii
    include_origin: bool

    @classmethod
    def build(cls, disks: Sequence[tuple[complex, float]] = (), include_origin: bool = False) -> "CircleDomain":
        centers = np.asarray([c for c, _ in disks], dtype=complex)
        radii = np.asarray([r for _, r in disks], dtype=float)
        if np.any(radii <= 0):
            raise ValueError("hole radii must be positive")
        return cls(centers, radii, include_origin)

    @cached_property
    def circle_centers(self) -> np.ndarray:
        """Centers of every boundary circle: holes, then the outer circle."""
        return np.append(self.centers, 0j)

    @cached_property
    def circle_radii(self) -> np.ndarray:
        """Radii aligned with ``circle_centers``."""
        return np.append(self.radii, 1.0)

    def _reach(self, a: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per circle, in order: d = |a - c|, and the nearest and farthest
        distances |d - rho| and d + rho from a.  np.hypot of the parts is abs()
        of each complex bit for bit; np.abs of a complex array is not."""
        diff = a - self.circle_centers
        d = np.hypot(diff.real, diff.imag)
        return d, np.abs(d - self.circle_radii), d + self.circle_radii

    def _gaps(self, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_reach`` from a boundary point a, or from a column of them, one
        row each (else NotBoundaryPointError), with nearest distances up to
        BOUNDARY_TOL (|a| + |c| + rho), the rounding noise of a sitting on the
        circle, set to 0."""
        d, near, far = self._reach(a)
        abs_a = np.hypot(a.real, a.imag)
        off = ~((near.min(-1, keepdims=True) <= BOUNDARY_TOL) | (self.include_origin & (abs_a <= BOUNDARY_TOL)))
        if off.any():
            raise NotBoundaryPointError(f"point {np.ravel(a)[np.ravel(off)][0]} is off the boundary")
        c = self.circle_centers
        on = near <= BOUNDARY_TOL * (abs_a + np.hypot(c.real, c.imag) + self.circle_radii)
        return d, np.where(on, 0.0, near), far

    # --- geometry queries ---------------------------------------------------

    def contains(self, z):
        """Open-domain membership of a point (bool) or of an array of points
        (bool array of the same shape)."""
        z = np.asarray(z, dtype=complex)
        inside = np.abs(z) < 1.0
        for c, rho in zip(self.centers.tolist(), self.radii.tolist()):
            inside &= np.abs(z - c) > rho
        if self.include_origin:
            inside &= z != 0
        return inside if z.ndim else bool(inside)

    def is_boundary(self, z: complex) -> bool:
        return self.nearest_boundary_point(z)[1] <= BOUNDARY_TOL

    def distance_spectra(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``_merge`` of the distance spectra of boundary points a, a row each,
        and point: each circle gives [| |a-c| - rho |, |a-c| + rho] and the
        isolated origin [|a|, |a|], last, which is a component of its own where
        no circle's interval holds |a|; point is |a| there, else NaN.  Raises
        NotBoundaryPointError for any a off the boundary."""
        a = np.asarray(a, dtype=complex)[:, None]
        _, gap, far = self._gaps(a)
        p = np.hypot(a.real, a.imag)
        held = (not self.include_origin) | np.any((gap <= p) & (p <= far), axis=1)
        if self.include_origin:
            gap, far = np.hstack([gap, p]), np.hstack([far, p])
        return *_merge(gap, far), np.where(held, math.nan, p[:, 0])

    def distance_spectrum(self, a: complex) -> IntervalUnion:
        """Exact set of distances {|z - a| : z on the boundary}, the one-row
        case of ``distance_spectra``.  Requires a on the boundary."""
        lo, top, start, point = self.distance_spectra([a])
        ivs = _components(lo[0], top[0], start[0])
        return IntervalUnion(ivs[ivs[:, 0] != point], point[~np.isnan(point)])

    def nearest_boundary_point(self, z: complex) -> tuple[complex, float, Optional[int]]:
        """(point, distance, circle index) of the closest boundary point; the
        index is None for the isolated origin."""
        d, near, _ = self._reach(z)
        i = int(near.argmin())
        if self.include_origin and abs(z) <= near[i]:
            return 0j, abs(z), None
        c, rho, dc = complex(self.circle_centers[i]), float(self.circle_radii[i]), float(d[i])
        return (c + rho if dc == 0.0 else c + rho * (z - c) / dc), float(near[i]), i

    def witness_at_distance(
        self, a: complex, lo: float, hi: float, on_circle: Optional[int] = None
    ) -> tuple[complex, float, Optional[int]]:
        """Boundary point at the smallest achievable distance within [lo, hi],
        as (point, distance, circle index or None for the origin).

        ``on_circle`` is the index of a circle that a is known to lie on: its
        distances from a are then exactly [0, 2 rho], free of the rounding in
        |a - c|.  The point on a circle breaks symmetric pairs by smaller
        absolute argument of (point - a).  Without ``on_circle`` the distance
        is the spectrum's ``inf_at_least(lo)``.  Raises NotBoundaryPointError
        if a is off the boundary, ValueError if the window misses the
        spectrum.
        """
        dc, gap, far = self._gaps(a)
        if on_circle is not None:
            gap[on_circle], far[on_circle] = 0.0, 2.0 * self.circle_radii[on_circle]
        dist = np.where((gap <= hi) & (far >= lo), np.maximum(gap, lo), math.inf)
        i = int(dist.argmin())
        if self.include_origin and lo <= abs(a) <= min(hi, dist[i]):
            return 0j, abs(a), None
        if dist[i] == math.inf:
            raise ValueError("distance window misses the boundary spectrum")
        # max() keeps lo itself, of the caller's type, when it is the distance
        d = max(float(gap[i]), lo)
        c, rho = complex(self.circle_centers[i]), float(self.circle_radii[i])
        return _point_on_circle_at_distance(a, c, rho, float(dc[i]), d), d, i


def _point_on_circle_at_distance(a: complex, c: complex, rho: float, dc: float, d: float) -> complex:
    """A point z with |z - c| = rho and |z - a| = d (smallest |arg(z - a)|),
    given dc = |a - c|."""
    if dc == 0.0:
        return c + rho  # any point works; pick argument 0
    u = (c - a) / dc
    t = _triangle_angle(dc, d, rho) if d > 0 else 0.0
    cand1 = a + d * u * complex(math.cos(t), math.sin(t))
    cand2 = a + d * u * complex(math.cos(t), -math.sin(t))
    # deterministic tie-break: smaller |arg|, then positive imaginary part
    a1, a2 = abs(np.angle(cand1 - a)), abs(np.angle(cand2 - a))
    if abs(a1 - a2) > 1e-15:
        return cand1 if a1 < a2 else cand2
    return cand1 if cand1.imag >= cand2.imag else cand2


def _triangle_angle(p: float, q: float, r: float) -> float:
    """Angle between the sides p and q of a triangle with third side r.

    Kahan's needle-triangle formula ("Miscalculating area and angles of a
    needle-like triangle", 2014): accurate to a few ulps for every shape.
    The law of cosines loses half the digits near angles 0 and pi, which is
    where the nearest and farthest points of a circle sit, and misses a
    small circle seen from afar altogether.  Sides that break the triangle
    inequality by rounding give 0 or pi.
    """
    p, q = max(p, q), min(p, q)
    mu = r - (p - q) if q >= r else q - (p - r)
    den = (p + (q + r)) * ((p - r) + q)
    if den <= 0.0:
        return math.pi
    return 2.0 * math.atan(math.sqrt(max(0.0, ((p - q) + r) * mu) / den))


# ---------------------------------------------------------------------------
# Zalcman-type domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ZalcmanDomain(CircleDomain):
    """Truncated disk-chain domain with r_k = x_{k+1} = h(x_k).

    ``logx[k-1]`` holds log x_k for k = 1..K+2, and log r_k = log x_{k+1};
    the recursion is evaluated purely in logs.  Only the first K disks are
    removed and the origin is kept as an isolated boundary point, so the
    domain contains the untruncated one.
    """

    h: ScaleFunction
    x1: float
    K: int
    logx: np.ndarray

    @cached_property
    def xs(self) -> np.ndarray:
        """x_k for k = 1..K+2."""
        return np.exp(self.logx)

    @cached_property
    def rs(self) -> np.ndarray:
        """r_k = x_{k+1} for k = 1..K+1."""
        return self.xs[1:]

    def to_json_dict(self) -> dict:
        return {"type": "zalcman", "family": self.h.family, PARAM_KEY[self.h.family]: self.h.param,
                "x1": self.x1, "K": self.K}


def build_zalcman(h: ScaleFunction, x1: float, K: int) -> ZalcmanDomain:
    """Run the scale recursion in the log domain and validate disjointness."""
    if K < 1:
        raise ValueError("K >= 1 required")
    if not 0.0 < x1 < h.epsilon0:
        raise ValueError(f"x1 must lie in (0, {h.epsilon0})")

    logx = np.empty(K + 2)
    logx[0] = math.log(x1)
    for k in range(1, K + 2):
        logx[k] = h.log_value(logx[k - 1])
        if not np.isfinite(logx[k]) or logx[k] <= LOG_FLOOR:
            raise ScaleUnderflowError(
                f"log x_{k + 1} = {logx[k]:.1f} below representable floor {LOG_FLOOR}"
            )
        if logx[k] >= logx[k - 1]:
            raise NonDisjointError("scale sequence is not strictly decreasing")
    # disjointness: x_{k+1} + r_{k+1} < x_k - r_k, checked through ratios
    # relative to x_k so deep scales never underflow; r_k = x_{k+1}
    for k in range(K + 1):
        ratio_next = math.exp(logx[k + 1] - logx[k])  # x_{k+1}/x_k = r_k/x_k
        r_next_over = math.exp(logx[k + 2] - logx[k]) if k + 2 <= K + 1 else 0.0  # r_{k+1}/x_k
        if ratio_next + r_next_over >= 1.0 - ratio_next:
            raise NonDisjointError(f"disks {k + 1} and {k + 2} touch (x1 too large for h)")
    if x1 + math.exp(logx[1]) >= 1.0:
        raise NonDisjointError("first disk reaches the unit circle")

    xs = np.exp(logx)
    return ZalcmanDomain(
        centers=xs[:K].astype(complex),
        radii=xs[1 : K + 1],
        include_origin=True,
        h=h,
        x1=float(x1),
        K=int(K),
        logx=logx,
    )


# ---------------------------------------------------------------------------
# Cantor sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorSet:
    """Nested middle-removal set on [0, l0] to depth J.

    Level j consists of 2^j closed intervals of identical length l_j; level
    j+1 keeps an l_{j+1}-piece at each end of every level-j interval.  All
    interval endpoints belong to the limit set, which makes endpoint queries
    exact certificates.
    """

    l0: float
    alpha: float
    J: int
    lengths: np.ndarray  # l_0..l_J
    lefts: tuple  # per level: sorted array of left endpoints

    def intervals(self, level: Optional[int] = None) -> tuple[np.ndarray, float]:
        j = self.J if level is None else level
        return self.lefts[j], float(self.lengths[j])

    def endpoint_distances(self) -> tuple[list[tuple], np.ndarray]:
        """(words, distances) of the level-J interval endpoints, left to right;
        the word (b_1..b_J, side) is the endpoint sum_j b_j (l_{j-1} - l_j) +
        side * l_J.  Subtracting positions would lose everything below
        eps * position; summing the word differences per level, in ascending
        magnitude, is exact to relative rounding at each distance's scale."""
        J = self.J
        bits = [tuple((mask >> (J - 1 - j)) & 1 for j in range(J)) for mask in range(2**J)]
        words = [b + (side,) for b in bits for side in (0, 1)]
        steps = np.append(self.lengths[:-1] - self.lengths[1:], self.lengths[J])
        W = np.asarray(words, dtype=float)
        d = np.zeros((W.shape[0], W.shape[0]))
        for idx in np.argsort(np.abs(steps)):
            d += (W[:, None, idx] - W[None, :, idx]) * steps[idx]
        return words, np.abs(d)

    def to_json_dict(self) -> dict:
        return {"type": "cantor", "l0": self.l0, "alpha": self.alpha, "J": self.J}


def build_cantor(l0: float, alpha: float, J: int) -> CantorSet:
    """Power-rule set: l_{j+1} = l_j**alpha, endpoints exact to depth J."""
    if not 0.0 < l0 < 0.5:
        raise ValueError("l0 must lie in (0, 1/2)")
    if alpha < 1.0:
        raise ValueError("alpha >= 1 required")
    log_l = [math.log(l0)]
    for _ in range(J):
        log_l.append(alpha * log_l[-1])
    lengths = np.exp(log_l)
    return _assemble_cantor(l0, alpha, J, lengths)


def _assemble_cantor(l0: float, alpha: float, J: int, lengths: np.ndarray) -> CantorSet:
    for j in range(J):
        if not lengths[j + 1] < lengths[j] / 2.0:
            raise RuleViolationError(
                f"l_{j + 1} = {lengths[j + 1]:g} is not below l_{j}/2 = {lengths[j] / 2.0:g}"
            )
    lefts = [np.array([0.0])]
    for j in range(1, J + 1):
        prev = lefts[-1]
        lj, lprev = lengths[j], lengths[j - 1]
        nxt = np.concatenate([prev, prev + (lprev - lj)])
        lefts.append(np.sort(nxt))
    return CantorSet(l0=l0, alpha=alpha, J=J, lengths=lengths, lefts=tuple(lefts))


# ---------------------------------------------------------------------------
# JSON round-trip for configs
# ---------------------------------------------------------------------------


def domain_from_json(d: dict):
    """Build a Zalcman domain or a Cantor set from its JSON spec, read through
    the tables of ``config.DOMAINS``; a spec that does not build is a
    ConfigInvalidError too."""
    t, p = check(d, DOMAINS, "domain", "a domain spec")
    try:
        if t == "cantor":
            return build_cantor(p["l0"], p["alpha"], p["J"])
        key = PARAM_KEY[p["family"]]
        if p[key] is None:
            raise ValueError(f"family {p['family']} needs {key}")
        return build_zalcman(ScaleFunction.of(p["family"], p[key]), p["x1"], p["K"])
    except (ValueError, BerglabError) as exc:
        raise ConfigInvalidError(f"the {t} domain does not build: {exc}") from exc
