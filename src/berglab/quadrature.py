"""Area integration of rational-function products over disk-chain domains.

The domain D(0,1) minus shrinking holes spans dozens of decades of scale, so
a single quadrature grid is hopeless.  The partition used here is exact and
per-scale:

* pole annuli r_k < |z - x_k| < R_k around each hole: every basis product is
  integrated in closed form through the Laurent orthogonality of centered
  annuli (regular parts as power sums, pole pairs through explicit kernels
  that stay O(1) at any scale),
* gap bands between consecutive scale blocks, the innermost disk, and the
  outermost band: centered annuli, same closed forms,
* one numeric "collar" band around each hole (or around each group of holes
  whose bands overlap) with the enlarged disks excluded: an O(1) geometry
  after rescaling, handled by polar Gauss-Legendre with arc exclusion and
  doubling refinement.

An independent seeded Monte-Carlo estimator is available for spot checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss as _leggauss_raw

from .domains import CircleDomain, ZalcmanDomain
from .errors import PolesTooCloseError, QuadratureStallError


@lru_cache(maxsize=None)
def leggauss(n: int):
    # Gauss rules are eigen-decompositions; collar assembly asks for the
    # same orders thousands of times
    return _leggauss_raw(n)

#: validity margin for series expansions: |pole offset| / radius must stay
#: on the correct side of this ratio
SERIES_MARGIN = 0.95

#: truncation bounds for regular (nonnegative-power) expansions
SERIES_TERMS_MIN = 96
SERIES_TERMS_MAX = 768


def _terms_for(ratio: float) -> int:
    """Expansion order driving the geometric tail below 1e-14."""
    if ratio <= 0.0:
        return SERIES_TERMS_MIN
    need = int(math.ceil(14.0 * math.log(10.0) / (2.0 * -math.log(min(ratio, 0.999)))))
    return min(SERIES_TERMS_MAX, max(SERIES_TERMS_MIN, need))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """poly(z) + sum_i coeff_i / (z - center_i)**order_i.

    Any order works for evaluation and for poles at an integration frame's
    center; off-center poles inside an annulus hole have closed-form pair
    integrals for orders 1 and 2 only.
    """

    poly: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    pole_centers: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    pole_orders: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    pole_coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "poly", np.asarray(self.poly, dtype=complex).ravel())
        object.__setattr__(self, "pole_centers", np.asarray(self.pole_centers, dtype=complex).ravel())
        object.__setattr__(self, "pole_orders", np.asarray(self.pole_orders, dtype=int).ravel())
        object.__setattr__(self, "pole_coeffs", np.asarray(self.pole_coeffs, dtype=complex).ravel())
        if np.any(self.pole_orders < 1):
            raise ValueError("pole orders must be >= 1")

    @classmethod
    def monomial(cls, j: int) -> "RationalFunction":
        p = np.zeros(j + 1, dtype=complex)
        p[j] = 1.0
        return cls(poly=p)

    @classmethod
    def pole(cls, center: complex, order: int, coeff: complex = 1.0) -> "RationalFunction":
        return cls(
            pole_centers=np.array([center], dtype=complex),
            pole_orders=np.array([order]),
            pole_coeffs=np.array([coeff], dtype=complex),
        )

    @classmethod
    def from_nodes(cls, nodes: np.ndarray, weights: np.ndarray) -> "RationalFunction":
        """Cauchy-transform style sum_i w_i / (z - node_i)."""
        nodes = np.asarray(nodes, dtype=complex).ravel()
        return cls(
            pole_centers=nodes,
            pole_orders=np.ones(nodes.size, dtype=int),
            pole_coeffs=np.asarray(weights, dtype=complex).ravel(),
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        n = max(self.poly.size, other.poly.size)
        p = np.zeros(n, dtype=complex)
        p[: self.poly.size] += self.poly
        p[: other.poly.size] -= other.poly
        return RationalFunction(
            poly=p,
            pole_centers=np.concatenate([self.pole_centers, other.pole_centers]),
            pole_orders=np.concatenate([self.pole_orders, other.pole_orders]),
            pole_coeffs=np.concatenate([self.pole_coeffs, -other.pole_coeffs]),
        )

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        if self.poly.size:
            out += np.polynomial.polynomial.polyval(z, self.poly)
        for c, m, a in zip(self.pole_centers, self.pole_orders, self.pole_coeffs):
            # sequential products: (z-c)**m alone can under/overflow at deep
            # scales even when a/(z-c)**m is comfortably representable
            t = a / (z - c)
            for _ in range(m - 1):
                t = t / (z - c)
            out = out + t
        return out

    def eval_deriv(self, z):
        # derivative poles exceed order 2, so the derivative is evaluated
        # directly instead of being represented
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        if self.poly.size > 1:
            out += np.polynomial.polynomial.polyval(
                z, np.polynomial.polynomial.polyder(self.poly)
            )
        for c, m, a in zip(self.pole_centers, self.pole_orders, self.pole_coeffs):
            t = a / (z - c)
            for _ in range(m):
                t = t / (z - c)
            out = out - m * t
        return out


# ---------------------------------------------------------------------------
# closed-form annulus blocks
# ---------------------------------------------------------------------------


def _regular_coefficients(fns: Sequence[RationalFunction], center: complex, r_in: float, r_out: float) -> np.ndarray:
    """Nonnegative-power expansion coefficients, normalized by r_out.

    Row i holds c_p with f_i(z) = sum_p c_p (w/r_out)**p + (inner-pole part),
    w = z - center, valid on the annulus.  Outer poles must clear
    r_out / SERIES_MARGIN; inner poles contribute nothing here (their
    negative powers are orthogonal to these).
    """
    # worst convergence ratio over all outer poles sets the truncation order
    worst = 0.0
    for f in fns:
        for c, m, a in zip(f.pole_centers, f.pole_orders, f.pole_coeffs):
            ad = abs(c - center)
            if ad <= r_in:
                continue
            if ad * SERIES_MARGIN < r_out:
                raise PolesTooCloseError(
                    f"pole at {c} too close to annulus |w| < {r_out} around {center}"
                )
            worst = max(worst, r_out / ad)
    P = _terms_for(worst)
    out = np.zeros((len(fns), P + 1), dtype=complex)
    powers = np.arange(P + 1)
    for i, f in enumerate(fns):
        if f.poly.size:
            coeffs = _shift_poly(f.poly, center)  # powers of w = z - center
            n = min(coeffs.size, P + 1)
            out[i, :n] += coeffs[:n] * r_out ** powers[:n]
        for c, m, a in zip(f.pole_centers, f.pole_orders, f.pole_coeffs):
            delta = c - center
            ad = abs(delta)
            if ad <= r_in:  # inner pole: negative powers only
                continue
            q = r_out / delta
            # (w-delta)^-m = (-1)^m delta^-m sum_n C(n+m-1, n) (w/delta)^n
            binom = np.ones(P + 1)
            for t in range(1, m):
                binom *= (powers + t) / t
            out[i] += a * (-1.0) ** m / delta**m * binom * q**powers
    return out


def _shift_poly(coeffs: np.ndarray, center: complex) -> np.ndarray:
    """Coefficients of p(w + center) in powers of w."""
    out = np.zeros_like(coeffs)
    for j, cj in enumerate(coeffs):
        if cj == 0:
            continue
        row = np.zeros(j + 1, dtype=complex)
        row[0] = 1.0
        binom = 1.0
        for mdeg in range(j + 1):
            if mdeg > 0:
                binom = binom * (j - mdeg + 1) / mdeg
            out[mdeg] += cj * binom * center ** (j - mdeg)
    return out


def _inner_poles(fns: Sequence[RationalFunction], center: complex, r_in: float):
    """Per function: list of (delta, order, coeff) with |delta| < r_in."""
    per = []
    for f in fns:
        rows = []
        for c, m, a in zip(f.pole_centers, f.pole_orders, f.pole_coeffs):
            delta = c - center
            ad = abs(delta)
            if ad <= r_in:
                if r_in > 0 and ad > SERIES_MARGIN * r_in:
                    raise PolesTooCloseError(
                        f"pole at {c} hugs the annulus hole |w| = {r_in} around {center}"
                    )
                if r_in == 0.0:
                    raise PolesTooCloseError(f"pole at {c} inside disk region around {center}")
                rows.append((delta, int(m), a))
        per.append(rows)
    return per


def _pole_pair_block(
    d1: complex, m1: int, a1: complex, d2: complex, m2: int, a2: complex, r1: float, r2: float
) -> complex:
    """conj(a1) * a2 * integral over r1<|w|<r2 of conj((w-d1)^-m1) (w-d2)^-m2 dA.

    Orders 1 and 2 come from I11 = 2 pi [log(r2/r1) - log(1-t/r1^2)/2
    + log(1-t/r2^2)/2] with t = d1 * conj(d2), differentiated in the pole
    positions.  The kernel scales like r1^(2 - m1 - m2), so coefficients are
    folded in as a / r1^(m-1) ratios first: with the radius-scaled basis
    every intermediate stays O(1) at any hole depth.  Centered poles reduce
    to Laurent monomials and support any order.
    """
    if d1 == 0 and d2 == 0:
        if m1 != m2:
            return 0.0 + 0.0j
        m = m1
        c = np.conj(a1 / r1 ** (m - 1)) * (a2 / r1 ** (m - 1))
        if m == 1:
            return c * 2.0 * math.pi * math.log(r2 / r1)
        return c * 2.0 * math.pi * (1.0 - (r1 / r2) ** (2 * m - 2)) / (2.0 * m - 2.0)
    if m1 > 2 or m2 > 2:
        raise PolesTooCloseError("off-center inner poles support orders 1 and 2 only")
    c = np.conj(a1 / r1 ** (m1 - 1)) * (a2 / r1 ** (m2 - 1))
    u1, u2 = d1 / r1, d2 / r1
    s = (r1 / r2) ** 2
    T = u2 * np.conj(u1)  # normalized t for the conj(f) g orientation
    if m1 == 1 and m2 == 1:
        val = math.log(r2 / r1) - 0.5 * np.log(1.0 - T) + 0.5 * np.log(1.0 - T * s)
    elif m1 == 1 and m2 == 2:
        # d/d(d2) of I11 in the conj(f) g orientation
        val = 0.5 * np.conj(u1) * (1.0 / (1.0 - T) - s / (1.0 - T * s))
    elif m1 == 2 and m2 == 1:
        val = 0.5 * u2 * (1.0 / (1.0 - T) - s / (1.0 - T * s))
    else:
        val = 0.5 * (1.0 / (1.0 - T) ** 2 - s / (1.0 - T * s) ** 2)
    return c * 2.0 * math.pi * complex(val)


@dataclass(frozen=True)
class AnnulusRegion:
    """Centered annulus r_in < |z - center| < r_out, integrated analytically."""

    center: complex
    r_in: float
    r_out: float

    def area(self) -> float:
        return math.pi * (self.r_out**2 - self.r_in**2)

    def gram(self, fns: Sequence[RationalFunction]) -> np.ndarray:
        """G_ij = integral of conj(f_i) * f_j over the annulus."""
        n = len(fns)
        # regular x regular through normalized power sums
        A = _regular_coefficients(fns, self.center, self.r_in, self.r_out)
        p = np.arange(A.shape[1])
        ratio = (self.r_in / self.r_out) ** 2 if self.r_out > 0 else 0.0
        Q = (1.0 - ratio ** (p + 1)) / (2.0 * p + 2.0)  # integral of |w/r_out|^{2p} s ds / r_out^2
        G = 2.0 * math.pi * self.r_out**2 * (A.conj() * Q) @ A.T
        # inner-pole pairs in closed form (orthogonal to the regular parts)
        inner = _inner_poles(fns, self.center, self.r_in)
        for i in range(n):
            if not inner[i]:
                continue
            for j in range(n):
                if not inner[j]:
                    continue
                acc = 0.0 + 0.0j
                for d1, m1, a1 in inner[i]:
                    for d2, m2, a2 in inner[j]:
                        acc += _pole_pair_block(
                            d1, m1, a1, d2, m2, a2, self.r_in, self.r_out
                        )
                G[i, j] += acc
        return G


# ---------------------------------------------------------------------------
# numeric polar regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarRegion:
    """{r_in <= |z - center| <= r_out} minus excluded disks, by polar
    Gauss-Legendre with per-radius arc exclusion."""

    center: complex
    r_in: float
    r_out: float
    holes: tuple  # (center, radius) pairs to exclude

    def area(self) -> float:
        a = math.pi * (self.r_out**2 - self.r_in**2)
        for _, rho in self.holes:
            a -= math.pi * rho**2  # holes assumed fully inside the band
        return a

    def nodes_weights(self, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
        n_rad = 24 * 2**level
        n_ang = 96 * 2**level
        # radial splits at every hole horizon
        crit = {self.r_in, self.r_out}
        for hc, rho in self.holes:
            d = abs(hc - self.center)
            for r in (d - rho, d + rho):
                if self.r_in < r < self.r_out:
                    crit.add(r)
        seg = sorted(crit)
        xs, ws = leggauss(n_rad)
        zs, wts = [], []
        for a, b in zip(seg, seg[1:]):
            r = 0.5 * (b - a) * xs + 0.5 * (a + b)
            wr = 0.5 * (b - a) * ws
            for ri, wi in zip(r, wr):
                arcs = self._free_arcs(ri)
                for t0, t1 in arcs:
                    # quantized order keeps the Gauss rule cache small
                    m = max(8, int(n_ang * (t1 - t0) / (2.0 * math.pi)))
                    m = 16 * ((m + 15) // 16) if m > 8 else 8
                    xt, wt = leggauss(m)
                    th = 0.5 * (t1 - t0) * xt + 0.5 * (t0 + t1)
                    zs.append(self.center + ri * np.exp(1j * th))
                    wts.append(wi * ri * 0.5 * (t1 - t0) * wt)
        return np.concatenate(zs), np.concatenate(wts)

    def _free_arcs(self, r: float) -> list[tuple[float, float]]:
        blocked = []
        for hc, rho in self.holes:
            d = abs(hc - self.center)
            if d == 0.0:
                if r <= rho:
                    return []
                continue
            cosv = (r * r + d * d - rho * rho) / (2.0 * r * d)
            if cosv >= 1.0:
                continue
            if cosv <= -1.0:
                return []
            half = math.acos(cosv)
            base = math.atan2((hc - self.center).imag, (hc - self.center).real)
            blocked.append((base - half, base + half))
        if not blocked:
            return [(0.0, 2.0 * math.pi)]
        # unroll blocked arcs onto [0, 2pi], splitting any that wrap
        two_pi = 2.0 * math.pi
        pieces = []
        for t0, t1 in blocked:
            s = t0 % two_pi
            e = s + (t1 - t0)
            if e <= two_pi:
                pieces.append((s, e))
            else:
                pieces.append((s, two_pi))
                pieces.append((0.0, e - two_pi))
        pieces.sort()
        merged = [list(pieces[0])]
        for t0, t1 in pieces[1:]:
            if t0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], t1)
            else:
                merged.append([t0, t1])
        free = []
        cur = 0.0
        for t0, t1 in merged:
            if t0 - cur > 1e-15:
                free.append((cur, t0))
            cur = max(cur, t1)
        if two_pi - cur > 1e-15:
            free.append((cur, two_pi))
        return free

    def gram(self, fns: Sequence[RationalFunction], level: int = 0) -> np.ndarray:
        z, w = self.nodes_weights(level)
        B = np.empty((z.size, len(fns)), dtype=complex)
        for i, f in enumerate(fns):
            B[:, i] = f.eval(z)
        return (B.conj().T * w) @ B


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass
class QuadratureInfo:
    regions_analytic: int = 0
    regions_numeric: int = 0
    levels: dict = field(default_factory=dict)
    achieved: dict = field(default_factory=dict)
    tol: float = 1e-3

    def to_json_dict(self) -> dict:
        return {
            "regions_analytic": self.regions_analytic,
            "regions_numeric": self.regions_numeric,
            "levels": {str(k): v for k, v in self.levels.items()},
            "achieved": {str(k): v for k, v in self.achieved.items()},
            "tol": self.tol,
        }


def zalcman_partition(domain: ZalcmanDomain) -> tuple[list, list]:
    """(analytic regions, numeric collars) covering the domain exactly.

    Each hole k gets an analytic pole annulus r_k < |z - x_k| < R_k and a
    numeric collar band around |z| = x_k with the enlarged hole excluded.
    Enlargement ratios q_k = R_k / x_k adapt to the hole-to-center ratio
    rho_k = r_k / x_k so that every centered series in the gap annuli keeps
    its convergence ratio below SERIES_MARGIN; slowly decaying chains whose
    bands would overlap are merged into one multi-hole collar.
    """
    xs, rs, K = domain.xs, domain.rs, domain.K
    rho = rs[:K] / xs[:K]
    q = np.empty(K)
    for k in range(K):
        lo_need = max(1.05 * rho[k], 0.5 * rho[k] + 0.08, (1.0 + 0.5 * rho[k]) / 0.93 - 1.0)
        # the pole annulus must clear the next hole's retracted content
        # (x_{k+1} = r_k, so rho_k is also the next center's relative position)
        cap = 0.93 * (1.0 - rho[k] * (1.0 + 0.75 * (rho[k + 1] if k + 1 < K else 0.0)))
        if lo_need > cap:
            raise PolesTooCloseError(
                f"hole {k + 1}: no feasible collar (rho = {rho[k]:.3f}); x1 too large for h"
            )
        q[k] = min(0.6, max(lo_need, 0.12))
        if q[k] > cap:
            q[k] = cap
    bands = [(float(xs[k]) * (1.0 - q[k]), float(xs[k]) * (1.0 + q[k])) for k in range(K)]

    # group overlapping bands (k ascending = scales descending)
    groups: list[list[int]] = [[0]]
    for k in range(1, K):
        prev_bottom = bands[groups[-1][-1]][0]
        if bands[k][1] >= 0.995 * prev_bottom:
            groups[-1].append(k)
        else:
            groups.append([k])

    analytic: list = []
    numeric: list = []
    for k in range(K):
        analytic.append(AnnulusRegion(complex(xs[k]), float(rs[k]), float(q[k] * xs[k])))
    for gi, grp in enumerate(groups):
        top = bands[grp[0]][1]
        bottom = bands[grp[-1]][0]
        holes = tuple((complex(xs[k]), float(q[k] * xs[k])) for k in grp)
        numeric.append(PolarRegion(0j, bottom, top, holes))
        if gi == 0:
            analytic.append(AnnulusRegion(0j, top, 1.0))
        else:
            analytic.append(AnnulusRegion(0j, top, bands[groups[gi - 1][-1]][0]))
    inner_top = bands[groups[-1][-1]][0]
    if domain.variant == "sandwich":
        analytic.append(AnnulusRegion(0j, float(domain.inner_radius), inner_top))
    else:
        analytic.append(AnnulusRegion(0j, 0.0, inner_top))
    return analytic, numeric


def reference_partition(domain: CircleDomain) -> tuple[list, list]:
    """Disk or concentric annulus, fully analytic."""
    if domain.centers.size:
        raise ValueError("reference partition needs a hole-free domain")
    r_in = float(domain.inner_radius) if domain.inner_radius is not None else 0.0
    return [AnnulusRegion(0j, r_in, float(domain.outer_radius))], []


def generic_partition(
    outer_radius: float,
    holes: Sequence[tuple[complex, float]],
    enlargement: float = 2.0,
) -> tuple[list, list]:
    """Disk of given radius minus arbitrary well-separated holes: analytic
    annuli around each hole up to the enlarged radius, one numeric region
    for the rest."""
    analytic = []
    enlarged = []
    for c, rho in holes:
        rr = enlargement * rho
        if abs(c) + rr >= outer_radius:
            raise PolesTooCloseError("hole enlargement reaches the outer circle")
        analytic.append(AnnulusRegion(complex(c), float(rho), float(rr)))
        enlarged.append((complex(c), float(rr)))
    for i in range(len(enlarged)):
        for j in range(i + 1, len(enlarged)):
            if abs(enlarged[i][0] - enlarged[j][0]) <= enlarged[i][1] + enlarged[j][1]:
                raise PolesTooCloseError("enlarged holes overlap")
    numeric = [PolarRegion(0j, 0.0, float(outer_radius), tuple(enlarged))]
    return analytic, numeric


def partition_for(domain: CircleDomain) -> tuple[list, list]:
    if isinstance(domain, ZalcmanDomain):
        return zalcman_partition(domain)
    if domain.centers.size == 0:
        return reference_partition(domain)
    return generic_partition(float(domain.outer_radius), list(zip(domain.centers, domain.radii)))


# ---------------------------------------------------------------------------
# assembly with refinement
# ---------------------------------------------------------------------------


def integrate_hermitian(
    partition: tuple[list, list],
    fns: Sequence[RationalFunction],
    tol: float = 1e-3,
    max_level: int = 3,
) -> tuple[np.ndarray, QuadratureInfo]:
    """Gram matrix of fns over the partitioned domain.

    Analytic regions are exact (series truncation far below tol); numeric
    regions refine by doubling until successive levels agree entry-wise to
    tol relative to the global diagonal scale sqrt(G_ii G_jj) -- the scale
    that controls how Gram perturbations move kernel and metric values.
    """
    analytic, numeric = partition
    n = len(fns)
    G = np.zeros((n, n), dtype=complex)
    info = QuadratureInfo(regions_analytic=len(analytic), regions_numeric=len(numeric), tol=tol)
    for reg in analytic:
        G += reg.gram(fns)
    level0 = [reg.gram(fns, level=0) for reg in numeric]
    d = np.real(np.diag(G) + sum(np.diag(c) for c in level0)) if numeric else np.real(np.diag(G))
    root = np.sqrt(np.maximum(np.abs(d), 1e-300))
    scale = root[:, None] * root[None, :]
    for idx, reg in enumerate(numeric):
        prev = level0[idx]
        achieved = math.inf
        level = 0
        for level in range(1, max_level + 1):
            cur = reg.gram(fns, level=level)
            achieved = float((np.abs(cur - prev) / scale).max())
            prev = cur
            if achieved <= tol:
                break
        else:
            raise QuadratureStallError(
                f"collar {idx} stalled at rel {achieved:.2e} (tol {tol})"
            )
        info.levels[idx] = level
        info.achieved[idx] = achieved
        G += prev
    # enforce exact Hermitian symmetry against roundoff
    G = 0.5 * (G + G.conj().T)
    return G, info


def partition_area(partition: tuple[list, list]) -> float:
    analytic, numeric = partition
    return sum(r.area() for r in analytic) + sum(r.area() for r in numeric)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------


def mc_integral(
    contains: Callable[[np.ndarray], np.ndarray],
    integrand: Callable[[np.ndarray], np.ndarray],
    radius: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Rejection-sampled area integral over {inside the domain, |z| < radius}."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-radius, radius, n_samples)
    y = rng.uniform(-radius, radius, n_samples)
    z = x + 1j * y
    keep = (np.abs(z) < radius) & contains(z)
    vals = integrand(z[keep])
    return float(np.real(np.sum(vals)) * (2.0 * radius) ** 2 / n_samples)
