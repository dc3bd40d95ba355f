"""Reproducing-kernel machinery on disk-chain domains.

Three bound routes with different strength/cost trade-offs:

* ``witness_kernel_bound``: one explicit pole, fully analytic denominator
  bound; certified for the untruncated domain, no quadrature at all.
* ``subspace_kernel`` / ``subspace_metric``: the exact extremum over a
  finite-dimensional subspace (polynomials plus poles at hole centers),
  via a Gram system; on the superset truncation these are certified lower
  bounds for the true kernel (smaller function space, larger norms).
* ``equilibrium_witness_bound``: the two-cluster construction with
  equilibrium-measure Cauchy transforms; sharper where the hole cascade is
  slowly varying.

Metric quantities divide a constrained derivative extremum by the kernel
and are estimates, not certified bounds: certifying the metric from below
would need an upper kernel bound, which is out of numerical reach here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import circle_nodes, equilibrium_measure
from .domains import CircleDomain, ZalcmanDomain
from .errors import (
    DegenerateConstraintError,
    NoSecondPointError,
    OutsideDomainError,
    PreconditionViolatedError,
    RankCollapseError,
    ScaleNotRetainedError,
)
from .quadrature import Basis, QuadratureInfo, RationalFunction, boundary_gram, domain_circles, norm_sq

TWO_PI = 2.0 * math.pi

#: pole order at each hole center of ``default_basis`` on Zalcman domains
POLE_ORDER = 2
#: equilibrated Gram eigenvalues at or below this fraction of the largest are dropped
DROP_TOL = 1e-12
#: retraction of equilibrium-cluster poles inside their holes, as a fraction
#: of the hole radius
ETA = 0.5


# ---------------------------------------------------------------------------
# basis and Gram systems
# ---------------------------------------------------------------------------


def default_basis(domain: CircleDomain, degree: int = 8) -> list[RationalFunction]:
    """Polynomials up to ``degree``, then poles of orders 1..m at every center
    the domain keeps outside itself: m = ``POLE_ORDER`` at Zalcman holes, and
    m = ``degree`` at the center of an annulus (negative-power monomials).

    A pole of order m carries the coefficient scale**(m-1), scale being the
    radius of the hole around it (1 on the annulus): kernel and metric values
    are exactly invariant under diagonal basis scaling, and this keeps
    deep-scale Gram entries inside double range (a raw order-2 pole at a
    hole of radius r has norm ~ 1/r^2).
    """
    centers, scales, order = [], [], POLE_ORDER
    if isinstance(domain, ZalcmanDomain):
        n = domain.K if domain.variant == "superset" else domain.K + 1
        centers, scales = domain.xs[:n].tolist(), domain.rs[:n].tolist()
        if domain.variant == "sandwich":
            # the inner barrier swallows x_{K+1} and the origin
            centers.append(0.0)
            scales.append(float(domain.inner_radius))
    elif domain.inner_radius is not None:
        centers, scales, order = [0.0], [1.0], degree
    fns = [RationalFunction.monomial(j) for j in range(degree + 1)]
    for c, s in zip(centers, scales):
        for m in range(1, order + 1):
            fns.append(RationalFunction.pole(complex(c), m, coeff=s ** (m - 1)))
    return fns


@dataclass
class GramSystem:
    domain: CircleDomain
    fns: list
    basis: Basis  # fns packed, for evaluating all of them at a point
    G: np.ndarray
    scale: np.ndarray  # diagonal equilibration 1/sqrt(G_ii)
    eigvals: np.ndarray  # of the equilibrated matrix, ascending
    eigvecs: np.ndarray
    kept: np.ndarray  # eigenvalue mask above the drop tolerance
    quad: QuadratureInfo

    def report(self) -> dict:
        """The boundary rule's record plus the rank the factorization kept
        and its smallest kept eigenvalue."""
        return {
            **self.quad.to_json_dict(),
            "effective_rank": int(self.kept.sum()),
            "min_kept_eigenvalue": float(self.eigvals[self.kept].min()),
        }

    def project(self, u: np.ndarray) -> np.ndarray:
        """u in the equilibrated eigenbasis, the input of ``quadratic``."""
        return self.eigvecs.conj().T @ (self.scale * u)

    def quadratic(self, uu: np.ndarray, vv: np.ndarray) -> complex:
        """u^H G^+ v from the projections uu and vv of u and v."""
        return complex(np.sum(np.where(self.kept, np.conj(uu) * vv / self.eigvals, 0.0)))


def assemble_gram(domain: CircleDomain, fns: Optional[list[RationalFunction]] = None) -> GramSystem:
    """Gram matrix of the basis ``fns`` (default: ``default_basis``) over the
    domain, equilibrated and factorized.

    Deep-scale conditioning comes from exact diagonal equilibration (the
    kernel and metric values are invariant under diagonal basis scaling);
    the factorization is a rank-revealing eigendecomposition with a drop
    tolerance, so downstream extrema are taken over the kept eigenspace and
    remain valid subspace bounds.
    """
    fns = fns if fns is not None else default_basis(domain)
    basis = Basis.of(fns)
    G, info = boundary_gram(domain_circles(domain), basis)
    diag = np.real(np.diag(G)).copy()
    if np.any(diag <= 0):
        raise RankCollapseError("nonpositive Gram diagonal")
    scale = 1.0 / np.sqrt(diag)
    Gt = (scale[:, None] * G) * scale[None, :]
    Gt = 0.5 * (Gt + Gt.conj().T)
    eigvals, eigvecs = np.linalg.eigh(Gt)
    kept = eigvals > DROP_TOL * eigvals.max()
    rank = int(kept.sum())
    if rank < len(fns) / 2:
        raise RankCollapseError(f"effective rank {rank} below half of {len(fns)}")
    return GramSystem(
        domain=domain,
        fns=fns,
        basis=basis,
        G=G,
        scale=scale,
        eigvals=eigvals,
        eigvecs=eigvecs,
        kept=kept,
        quad=info,
    )


# ---------------------------------------------------------------------------
# subspace kernel and metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelEstimate:
    K_low: float
    certified: bool


@dataclass(frozen=True)
class MetricEstimate:
    S_low: float
    K_low: float
    b_est: float


def _safe_scale(vec: np.ndarray) -> float:
    """Norm of vec computed without squaring huge entries."""
    m = float(np.max(np.abs(vec)))
    if m == 0.0:
        return 1.0
    return m * float(np.linalg.norm(vec / m))


def subspace_kernel(gs: GramSystem, w: complex) -> KernelEstimate:
    """sup |f(w)|^2 over unit-norm f in the basis span: conj(v)^H G^+ conj(v).

    On a superset truncation this certifies a lower bound for the true
    kernel, up to the boundary rule's error (checked by one doubling, see
    ``QuadratureInfo``): the subspace sup is below the truncated-domain sup,
    which is below the untruncated one by domain monotonicity.
    """
    if not gs.domain.contains(w):
        raise OutsideDomainError(f"{w} is not inside the domain")
    b = np.conj(gs.basis.values(w))
    # normalize before the quadratic form: |b|^2 entries can pass 1e154
    nb = _safe_scale(b)
    bb = gs.project(b / nb)
    K = float(np.real(gs.quadratic(bb, bb))) * nb * nb
    # reference domains are exact; a sandwich truncation is a subdomain
    certified = not isinstance(gs.domain, ZalcmanDomain) or gs.domain.variant == "superset"
    return KernelEstimate(K_low=K, certified=certified)


def subspace_metric(gs: GramSystem, w: complex) -> MetricEstimate:
    """Constrained derivative extremum over the basis span.

    S^2 = sup{|f'(w)|^2 : f(w) = 0, ||f|| = 1}; the estimate divides by the
    subspace kernel, b_est = S / sqrt(K).
    """
    if not gs.domain.contains(w):
        raise OutsideDomainError(f"{w} is not inside the domain")
    v, u = gs.basis.values_and_derivs(w)
    q, p = np.conj(v), np.conj(u)
    # all quadratic forms on unit vectors; norms carried as scalar factors
    # so nothing squares past double range at deep scales
    nq, np_ = _safe_scale(q), _safe_scale(p)
    qq, pp = gs.project(q / nq), gs.project(p / np_)
    b_form = float(np.real(gs.quadratic(qq, qq)))
    K = b_form * nq * nq
    if K <= 0.0 or b_form <= 0.0:
        raise DegenerateConstraintError("kernel value vanished at w")
    a_form = float(np.real(gs.quadratic(pp, pp)))
    c_form = gs.quadratic(pp, qq)
    S2_hat = a_form - abs(c_form) ** 2 / b_form
    S = np_ * math.sqrt(max(0.0, S2_hat))
    b_est = (np_ / nq) * math.sqrt(max(0.0, S2_hat) / b_form)
    return MetricEstimate(S_low=S, K_low=K, b_est=b_est)


# ---------------------------------------------------------------------------
# explicit witnesses
# ---------------------------------------------------------------------------


def band_index(domain: ZalcmanDomain, x: float) -> int:
    """k with x in (x_{k+1}, x_k); 1-based; error outside retained bands."""
    xs = domain.xs
    for k in range(1, domain.K + 1):
        if xs[k] < x < xs[k - 1]:
            return k
    raise ScaleNotRetainedError(f"x = {x} not inside a retained scale band")


def witness_kernel_bound(domain: ZalcmanDomain, x: float) -> dict:
    """Certified lower kernel bound at -x from the single pole 1/(z - x_{k+1}).

    The norm is dominated by the integral over the punctured disk
    r_{k+1} < |z - x_{k+1}| < 2, which is 2 pi log(2 / r_{k+1}) exactly;
    the hole around the pole is removed in the untruncated domain, so the
    bound needs no quadrature and holds for the true kernel.
    """
    k = band_index(domain, x)
    xk1 = float(domain.xs[k])  # x_{k+1}
    rk1 = float(domain.rs[k])  # r_{k+1}
    numer = 1.0 / abs(-x - xk1) ** 2
    denom = TWO_PI * math.log(2.0 / rk1)
    return {
        "x": x,
        "k": k,
        "value": numer / denom,
        "witness_value_sq": numer,
        "norm_bound": denom,
    }


def witness_metric_bound(domain: ZalcmanDomain, w: complex, variant: str = "two_pole") -> dict:
    """|f'(w)| / ||f|| for the explicit zero-at-w pole combinations.

    The norm is integrated over the superset truncation, which contains the
    untruncated domain, so the ratio lower-bounds the derivative extremum
    b(w) * sqrt(K(w)) there.
    """
    if domain.variant != "superset":
        raise PreconditionViolatedError("witness norms are integrated on the superset variant")
    k = band_index(domain, abs(w))
    xs = domain.xs
    xk, xk1 = complex(xs[k - 1]), complex(xs[k])
    if variant == "two_pole":
        if k + 1 > domain.K:
            raise ScaleNotRetainedError("two-pole witness needs hole k+1 retained")
        lam = (w - xk1) / (w - xk)
        f = RationalFunction(
            pole_centers=np.array([xk, xk1]),
            pole_orders=np.array([1, 1]),
            pole_coeffs=np.array([1.0, -lam]),
        )
        # one quotient at a time: the product of the distances underflows
        # to 0 at deep scales
        fprime = abs(xk - xk1) / abs(w - xk1) / abs(w - xk) / abs(w - xk)
        extra = {"lambda": lam}
    elif variant == "three_pole":
        if k < 2 or k + 1 > domain.K:
            raise ScaleNotRetainedError("three-pole witness needs holes k-1..k+1 retained")
        xkm = complex(xs[k - 2])
        a_k = (xkm - xk) * (w - xk1) / ((xkm - xk1) * (w - xk))
        f = RationalFunction(
            pole_centers=np.array([xk, xk1, xkm]),
            pole_orders=np.array([1, 1, 1]),
            pole_coeffs=np.array([1.0, -a_k, -(1.0 - a_k)]),
        )
        fprime = abs(f.eval_deriv(w))
        extra = {"a_k": a_k, "a_k_abs": abs(a_k)}
    else:
        raise ValueError(f"unknown witness variant {variant!r}")
    residual = abs(f.eval(w)) * abs(w - xk1)  # scale-free zero check
    norm2 = norm_sq(domain_circles(domain), f)
    out = {
        "w": complex(w),
        "k": k,
        "variant": variant,
        "fprime": float(fprime),
        "norm_sq": norm2,
        "ratio": float(fprime) / math.sqrt(norm2),
        "zero_residual": float(residual),
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# equilibrium-measure witness
# ---------------------------------------------------------------------------


def retracted_cluster_nodes(
    domain: ZalcmanDomain,
    center: complex,
    radius: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(pole nodes, boundary nodes) representing the set
    (closed disk(center, radius) minus domain).

    Boundary nodes sit on the hole rims and carry the measure (weights and
    capacity estimates); pole nodes are the same angles retracted inward by
    ``ETA`` of each hole radius, because poles on the rim itself would
    make the witness norm divergent.  Both arrays stay aligned; circles too
    deep for double resolution collapse to a single representative node.
    The angles are ``CircleDomain.arc_angles``: 16 on a whole rim, at least
    6 on a partial arc.
    """
    poles, bnds = [], []
    for i, (c0, rho) in enumerate(zip(domain.centers.tolist(), domain.radii.tolist())):
        theta = domain.arc_angles(i, center, radius, 16, 6)
        if theta is None:
            continue
        ring = np.exp(1j * theta)
        poles.append(c0 + (1.0 - ETA) * rho * ring)
        bnds.append(c0 + rho * ring)
    if not poles:
        return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
    poles = np.concatenate(poles)
    bnds = np.concatenate(bnds)
    _, keep = np.unique(poles, return_index=True)
    keep = np.sort(keep)
    return poles[keep], bnds[keep]


def _sector_split(nodes: np.ndarray, w: complex) -> list[np.ndarray]:
    """Index masks of the three 2 pi / 3 sectors around w."""
    ang = np.angle(nodes - w)  # in (-pi, pi]
    m1 = (ang >= -math.pi / 3.0) & (ang < math.pi / 3.0)
    m2 = (ang >= math.pi / 3.0) & (ang <= math.pi)
    m3 = ang < -math.pi / 3.0
    return [m1, m2, m3]


def _cluster_measure(nodes: np.ndarray):
    if np.unique(nodes).size < 2:
        return None
    return equilibrium_measure(nodes)


def equilibrium_witness_bound(domain: ZalcmanDomain, w: complex) -> dict:
    """Kernel lower bound at w from the difference of two equilibrium
    Cauchy transforms.

    Construction: nearest boundary point w', second point w'' at distance
    in [8 delta, r] with c h(r) = 8 delta at the annulus constant c = 1;
    clusters E1 (around w', split into three sectors as seen from w,
    best-capacity sector kept) and E2 (around w''), each discretized by
    retracted hole arcs (``retracted_cluster_nodes``); the witness is
    f = f_{E11} - f_{E2} and the bound |f(w)|^2 / ||f||^2 is valid for any
    discrete weights, so optimizer quality only affects sharpness.
    """
    if not domain.contains(w):
        raise OutsideDomainError(f"{w} is outside the domain")
    delta = domain.unsigned_boundary_distance(w)
    wprime, _, _ = domain.nearest_boundary_point(w)
    try:
        r = domain.h.inverse(8.0 * delta)
    except Exception as exc:
        raise NoSecondPointError(f"no radius with h(r) = 8 delta: {exc}") from exc
    try:
        wsecond, _, _ = domain.witness_at_distance(wprime, 8.0 * delta, r)
    except ValueError as exc:
        raise NoSecondPointError(
            f"no boundary point in [8 delta, r] = [{8 * delta}, {r}] around {wprime}"
        ) from exc

    e1_poles, e1_bnd = retracted_cluster_nodes(domain, wprime, delta)
    e2_poles, e2_bnd = retracted_cluster_nodes(domain, wsecond, delta)
    if e1_poles.size < 2 or e2_poles.size < 2:
        raise NoSecondPointError("clusters too thin to carry a measure")

    masks = _sector_split(e1_bnd, w)
    sols = [_cluster_measure(e1_bnd[m]) for m in masks]
    caps = [s.capacity if s is not None else 0.0 for s in sols]
    best = int(np.argmax(caps))
    if sols[best] is None:
        raise NoSecondPointError("no sector carries at least two nodes")
    mu11 = sols[best]
    # the best sector often holds every E1 node: its solve is the full one
    mu1_full = mu11 if masks[best].all() else _cluster_measure(e1_bnd)
    mu2 = _cluster_measure(e2_bnd)

    # weights live on the boundary nodes; poles sit at the retracted copies
    f11 = RationalFunction.from_nodes(e1_poles[masks[best]], mu11.measure.weights)
    f2 = RationalFunction.from_nodes(e2_poles, mu2.measure.weights)
    f = f11 - f2
    f11_w = complex(f11.eval(w))
    f2_w = complex(f2.eval(w))
    fw = abs(complex(f.eval(w)))
    norm2 = norm_sq(domain_circles(domain), f)
    return {
        "w": complex(w),
        "delta": delta,
        "w_prime": complex(wprime),
        "w_second": complex(wsecond),
        "r": r,
        "bound": fw**2 / norm2,
        "f_w": fw,
        "f11_w_abs": abs(f11_w),
        "f2_w_abs": abs(f2_w),
        "norm_sq": norm2,
        "sector_caps": caps,
        "cap_E11": mu11.capacity,
        "cap_E1": mu1_full.capacity,
        "facing_floor": 1.0 / (4.0 * delta),
        "second_ceiling": 1.0 / (6.0 * delta),
    }


# ---------------------------------------------------------------------------
# Cauchy-transform norm lemma check
# ---------------------------------------------------------------------------


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
    lhs = norm_sq([(0j, 0.25, 1)] + [(complex(c0), rho, -1) for c0, rho in holes], f)
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


# ---------------------------------------------------------------------------
# distance profiles
# ---------------------------------------------------------------------------


def band_sample_points(domain: ZalcmanDomain, k_range: Sequence[int], per_band: int) -> np.ndarray:
    """Log-spaced x samples inside each retained band (x_{k+1}, x_k).

    Deep bands span many decades (width (alpha-1) log(1/x_k) for power
    scales), and the metric varies like 1/x^2 near the band floor, so the
    sample count grows with the band's log-width to keep the trapezoid
    rule honest (spacing <= 0.4 in log x).
    """
    xs = domain.logx
    out = []
    for k in k_range:
        lo, hi = xs[k], xs[k - 1]  # log x_{k+1} < log x_k
        pad = 0.05 * (hi - lo)
        n_k = max(per_band, int(math.ceil((hi - lo) / 0.4)) + 1)
        out.append(np.exp(np.linspace(hi - pad, lo + pad, n_k)))
    return np.concatenate(out)


def distance_profile(
    domain: ZalcmanDomain,
    k_range: Sequence[int],
    per_band: int,
    *,
    gram: GramSystem,
) -> list[dict]:
    """Metric samples along the negative real axis and the running length.

    One Gram system serves every sample; the cumulative trapezoid of b_est
    along the segment estimates the upper path integral from -x_1 inward.
    Returns one row per sample with the band index, per-band increments
    accumulating in "d_est".
    """
    x_grid = band_sample_points(domain, k_range, per_band)
    x_grid = np.sort(x_grid)[::-1]  # from outer scale inward
    rows = []
    d_est = 0.0
    prev_x = None
    prev_b = None
    for x in x_grid:
        est = subspace_metric(gram, complex(-x))
        if prev_x is not None:
            d_est += 0.5 * (prev_b + est.b_est) * (prev_x - x)
        k = band_index(domain, float(x))
        rows.append(
            {
                "k": k,
                "x": float(x),
                "b_est": est.b_est,
                "K_low": est.K_low,
                "S_low": est.S_low,
                "d_est": d_est,
            }
        )
        prev_x, prev_b = x, est.b_est
    return rows


def band_increments(rows: list[dict]) -> dict[int, float]:
    """Per-band distance increments from a profile table."""
    out: dict[int, float] = {}
    prev_row = None
    for row in rows:
        if prev_row is not None:
            k = row["k"]
            out[k] = out.get(k, 0.0) + (row["d_est"] - prev_row["d_est"])
        prev_row = row
    return out
