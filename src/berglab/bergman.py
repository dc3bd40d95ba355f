"""Reproducing-kernel machinery on disk-chain domains.

Four bound routes with different strength/cost trade-offs:

* ``witness_kernel_bound``: one explicit pole, fully analytic denominator
  bound; certified for the untruncated domain, no quadrature at all.
* ``subspace_kernel`` / ``subspace_metric``: the exact extremum over a
  finite-dimensional subspace (polynomials plus poles at hole centers),
  via a Gram system; on the superset truncation these are certified lower
  bounds for the true kernel (smaller function space, larger norms).
* ``equilibrium_witness_bound``: the two-cluster construction with
  equilibrium-measure Cauchy transforms; sharper where the hole cascade is
  slowly varying.
* ``witness_metric_bound``: the best combination of the poles at holes
  k - 1, k, k + 1 that vanishes at the point, its norm read from a block of
  the sweep's own Gram system.

Metric quantities divide a constrained derivative extremum by the kernel
and are estimates, not certified bounds: certifying the metric from below
would need an upper kernel bound, which is out of numerical reach here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import equilibrium_measure
from .domains import CircleDomain, ZalcmanDomain
from .errors import (
    BerglabError,
    BisectionFailureError,
    DegenerateConstraintError,
    NoSecondPointError,
    OutsideDomainError,
    PreconditionViolatedError,
    RankCollapseError,
    ScaleNotRetainedError,
)
from .quadrature import Basis, QuadratureInfo, RationalFunction, boundary_gram, domain_circles, norms_sq

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
    m = ``degree`` at the origin when a hole is centred there, as on an
    annulus (negative-power monomials).  Other holes get no poles.

    A pole of order m carries the coefficient scale**(m-1), scale being the
    radius of the hole around it (1 on the annulus): kernel and metric values
    are exactly invariant under diagonal basis scaling, and this keeps
    deep-scale Gram entries inside double range (a raw order-2 pole at a
    hole of radius r has norm ~ 1/r^2).
    """
    centers, scales, order = [], [], POLE_ORDER
    if isinstance(domain, ZalcmanDomain):
        centers, scales = domain.xs[: domain.K].tolist(), domain.rs[: domain.K].tolist()
    elif np.any(domain.centers == 0):
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
        """Each row of u in the equilibrated eigenbasis, the input of
        ``quadratic``: one matrix product for all the rows."""
        return (self.scale * u) @ self.eigvecs.conj()

    def quadratic(self, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
        """u^H G^+ v for each row pair of the projections uu and vv."""
        return np.sum(np.where(self.kept, np.conj(uu) * vv / self.eigvals, 0.0), axis=-1)


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
    """Values at the points asked for: a float for one point, an array of
    the points' shape for an array of them."""

    K_low: float | np.ndarray


@dataclass(frozen=True)
class MetricEstimate:
    """Values at the points asked for, shaped as in ``KernelEstimate``."""

    S_low: float | np.ndarray
    K_low: float | np.ndarray
    b_est: float | np.ndarray


def _points(gs: GramSystem, w) -> np.ndarray:
    """The points w as a flat complex array, all of them inside the domain."""
    z = np.asarray(w, dtype=complex).ravel()
    inside = gs.domain.contains(z)
    if not inside.all():
        raise OutsideDomainError(f"{z[~inside][0]} is not inside the domain")
    return z


def _shaped(values: np.ndarray, w) -> float | np.ndarray:
    """Per-point values in the shape of the points w: a float for one point."""
    shape = np.shape(w)
    return values.reshape(shape) if shape else float(values[0])


def _safe_scale(rows: np.ndarray) -> np.ndarray:
    """Norm of each row, computed without squaring huge entries; 1 for a
    zero row, so that dividing by it is safe."""
    m = np.max(np.abs(rows), axis=-1)
    zero = m == 0.0
    m[zero] = 1.0
    norm = m * np.linalg.norm(rows / m[:, None], axis=-1)
    norm[zero] = 1.0
    return norm


def subspace_kernel(gs: GramSystem, w) -> KernelEstimate:
    """sup |f(w)|^2 over unit-norm f in the basis span: conj(v)^H G^+ conj(v),
    at a point w or at every point of an array w, all in one pass.

    On a superset truncation this certifies a lower bound for the true
    kernel, up to the boundary rule's error (checked by one doubling, see
    ``QuadratureInfo``): the subspace sup is below the truncated-domain sup,
    which is below the untruncated one by domain monotonicity.
    """
    z = _points(gs, w)
    b = np.conj(gs.basis.values(z))
    # normalize before the quadratic form: |b|^2 entries can pass 1e154
    nb = _safe_scale(b)
    bb = gs.project(b / nb[:, None])
    K = gs.quadratic(bb, bb).real * nb * nb
    return KernelEstimate(K_low=_shaped(K, w))


def subspace_metric(gs: GramSystem, w) -> MetricEstimate:
    """Constrained derivative extremum over the basis span, at a point w or
    at every point of an array w, all in one pass.

    S^2 = sup{|f'(w)|^2 : f(w) = 0, ||f|| = 1}; the estimate divides by the
    subspace kernel, b_est = S / sqrt(K).
    """
    z = _points(gs, w)
    v, u = gs.basis.values_and_derivs(z)
    q, p = np.conj(v), np.conj(u)
    # all quadratic forms on unit vectors; norms carried as scalar factors
    # so nothing squares past double range at deep scales
    nq, np_ = _safe_scale(q), _safe_scale(p)
    qq, pp = gs.project(q / nq[:, None]), gs.project(p / np_[:, None])
    b_form = gs.quadratic(qq, qq).real
    K = b_form * nq * nq
    vanished = (K <= 0.0) | (b_form <= 0.0)
    if vanished.any():
        raise DegenerateConstraintError(f"kernel value vanished at {z[vanished][0]}")
    a_form = gs.quadratic(pp, pp).real
    c_form = gs.quadratic(pp, qq)
    S2_hat = a_form - np.abs(c_form) ** 2 / b_form
    S2_hat = np.where(S2_hat > 0.0, S2_hat, 0.0)
    S = np_ * np.sqrt(S2_hat)
    b_est = (np_ / nq) * np.sqrt(S2_hat / b_form)
    return MetricEstimate(S_low=_shaped(S, w), K_low=_shaped(K, w), b_est=_shaped(b_est, w))


# ---------------------------------------------------------------------------
# explicit witnesses
# ---------------------------------------------------------------------------


def band_index(domain: ZalcmanDomain, x):
    """k with x_{k+1} < x < x_k, 1-based, for a float x (an int) or for each
    entry of an array x (an int array); ScaleNotRetainedError unless every x
    lies inside a retained band, its ends excluded."""
    up = domain.xs[domain.K :: -1]  # x_{K+1} < ... < x_1
    q = np.asarray(x, dtype=float)
    # up[j - 1] < q <= up[j] (a NaN counts 0): np.searchsorted's search as a
    # count, because searchsorted's first call in a process alone adds about
    # 62 KB to its resident memory
    j = (up < q[..., None]).sum(axis=-1)
    inside = (j >= 1) & (q < up[np.minimum(j, domain.K)])
    if not inside.all():
        raise ScaleNotRetainedError(f"x = {q[~inside][0] if q.ndim else x} not inside a retained scale band")
    k = domain.K + 1 - j
    return k if q.ndim else int(k)


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


def witness_metric_bound(gs: GramSystem, w) -> float | np.ndarray:
    """|f'(w)| / ||f|| for the best f with f(w) = 0 in the span of
    g_j = 1/(z - x_j) over J, the retained holes among k - 1, k, k + 1 for
    the band k of |w|: at a point w, or at every point of an array w in one
    pass, shaped as in ``subspace_kernel``.

    J holds the two-pole witness g_k - lambda g_{k+1} and the three-pole
    one, so the ratio is at least either.  The zero is imposed through the
    null-space basis h_i = g_i - (g_i(w) / g_a(w)) g_a, a the deepest hole
    of J: with M = T^H G_J T = L L^H and d_i = h_i'(w), the ratio is
    ||L^{-1} conj(d)||.  Each g_j is the basis's order-1 pole at x_j, so
    G_J is a block of ``gs.G`` and no quadrature runs; on the superset
    truncation the ratio lower-bounds the derivative extremum
    b(w) sqrt(K(w)), up to the boundary rule's error.  A band whose J holds
    one hole (K = 1) gets NaN.
    """
    dom = gs.domain
    z = _points(gs, w)
    r = np.abs(z)
    k = band_index(dom, r)
    a = np.minimum(k + 1, dom.K)[:, None]
    others = k[:, None] + np.array([-1, 0])
    valid = (others >= 1) & (others < a)
    # a column outside J repeats hole a, so its h_i is 0 exactly
    J = np.concatenate([np.where(valid, others, a), a], axis=1)
    f = _unit_poles(gs, J)
    x = dom.xs[J - 1]
    dz = z[:, None] - x
    # |w|^2 d_i = (x_a - x_i) / (w - x_a) * (|w| / (w - x_i))^2: one
    # quotient at a time, so that nothing squares past double range
    d = (x[:, 2:] - x[:, :2]) / dz[:, 2:] * (r[:, None] / dz[:, :2]) ** 2
    T = np.zeros((z.size, 3, 2), dtype=complex)
    T[:, [0, 1], [0, 1]] = 1.0
    T[:, 2, :] = -dz[:, 2:] / dz[:, :2]
    M = np.conj(T).transpose(0, 2, 1) @ gs.G[f[:, :, None], f[:, None, :]] @ T
    M[:, [0, 1], [0, 1]] += ~valid
    # y = L^{-1} conj(d), M = L L^H, by hand: LAPACK's first Cholesky and
    # solve in a process add about 0.4 MB to its resident memory
    l00 = np.sqrt(M[:, 0, 0].real)
    l10 = M[:, 1, 0] / l00
    y0 = np.conj(d[:, 0]) / l00
    y1 = (np.conj(d[:, 1]) - l10 * y0) / np.sqrt(M[:, 1, 1].real - np.abs(l10) ** 2)
    ratio = np.hypot(np.abs(y0), np.abs(y1)) / r / r
    ratio[~valid.any(axis=1)] = math.nan
    return _shaped(ratio, w)


def _unit_poles(gs: GramSystem, holes: np.ndarray) -> np.ndarray:
    """The basis index of g_j = 1/(z - x_j) for each hole j of ``holes``:
    a function with one pole, of order 1 and coefficient 1, and no
    polynomial part."""
    b = gs.basis
    single = np.bincount(b.owner, minlength=len(gs.fns))[b.owner] == 1
    unit = single & (b.orders == 1) & (b.coeffs == 1.0) & ~b.poly[b.owner].any(axis=1)
    match = b.centers[unit] == gs.domain.xs[holes - 1, None]
    found = match.any(axis=-1)
    if not found.all():
        raise PreconditionViolatedError(f"the basis has no 1/(z - x_j) at hole j = {holes[~found][0]}")
    return b.owner[unit][match.argmax(axis=-1)]


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
    Each hole whose rim comes within ``radius`` of center gets 16 equispaced
    angles when the whole rim is in reach, and at least 6 across the arc
    facing center when part of it is.
    """
    d, near, far = domain._reach(center)
    poles, bnds = [], []
    for i in np.flatnonzero(near[: domain.radii.size] <= radius).tolist():
        c0, rho, di = complex(domain.centers[i]), float(domain.radii[i]), float(d[i])
        if far[i] <= radius:
            theta = TWO_PI * np.arange(16) / 16
        else:
            # half-opening psi of the reachable arc, by the law of cosines
            cos_psi = (di * di + rho * rho - radius * radius) / (2.0 * di * rho)
            psi = math.acos(min(1.0, max(-1.0, cos_psi)))
            base = math.atan2((center - c0).imag, (center - c0).real)
            theta = base + np.linspace(-psi, psi, max(6, int(16 * psi / math.pi)))
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
    # two distinct nodes, without np.unique's import of numpy.ma
    if not (nodes.size >= 2 and np.any(nodes != nodes[0])):
        return None
    return equilibrium_measure(nodes)


#: the report of a point without an equilibrium witness
NO_WITNESS = dict.fromkeys(
    ["w", "delta", "w_prime", "w_second", "r", "f_w", "f11_w_abs", "f2_w_abs", "cap_E11", "cap_E1"], math.nan
) | {"facing_floor": math.nan, "second_ceiling": math.nan, "sector_caps": [math.nan] * 3}


def equilibrium_witness_bound(domain: ZalcmanDomain, w) -> dict:
    """Kernel lower bound |f(w)|^2 / ||f||^2 from the difference of two
    equilibrium Cauchy transforms, at a point w, which raises the reason
    where it has no witness, or at every point of an array w, which gives
    arrays of w's shape ("sector_caps" with a last axis of 3), NaN where a
    point has no witness.

    Construction: nearest boundary point w', second point w'' at distance
    in [8 delta, r] with c h(r) = 8 delta at the annulus constant c = 1;
    clusters E1 (around w', split into three sectors as seen from w,
    best-capacity sector kept) and E2 (around w''), each discretized by
    retracted hole arcs (``retracted_cluster_nodes``); the witness is
    f = f_{E11} - f_{E2} and the bound is valid for any discrete weights,
    so optimizer quality only affects sharpness.  All the witnesses' norms
    come from one ``norms_sq`` pass ("quad"); one that fails a check is NaN.
    """
    z = np.asarray(w, dtype=complex)
    reports, fns = [], []
    for p in z.ravel().tolist():
        try:
            rep, f = _equilibrium_witness(domain, p)
        except BerglabError:
            if not z.ndim:
                raise
            # a NaN pole fails its norm's pole check: the point reads NaN
            rep, f = NO_WITNESS, RationalFunction.pole(complex(math.nan), 1)
        reports.append(rep)
        fns.append(f)
    norms, info = norms_sq(domain_circles(domain), fns)
    out = {key: np.array([rep[key] for rep in reports]).reshape(z.shape + np.shape(v)) for key, v in NO_WITNESS.items()}
    out.update(norm_sq=norms.reshape(z.shape), bound=out["f_w"] ** 2 / norms.reshape(z.shape))
    return (out if z.ndim else {key: v.tolist() for key, v in out.items()}) | {"quad": info.to_json_dict()}


def _equilibrium_witness(domain: ZalcmanDomain, w: complex) -> tuple[dict, RationalFunction]:
    """(report without the norm, witness f) at the point w."""
    if not domain.contains(w):
        raise OutsideDomainError(f"{w} is outside the domain")
    wprime, delta, _ = domain.nearest_boundary_point(w)
    try:
        r = domain.h.inverse(8.0 * delta)
    except BisectionFailureError as exc:
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
    f11_w, f2_w = Basis.of([f11, f2]).values(w).tolist()
    report = {
        "w": complex(w),
        "delta": delta,
        "w_prime": complex(wprime),
        "w_second": complex(wsecond),
        "r": r,
        "f_w": abs(complex(f.eval(w))),
        "f11_w_abs": abs(f11_w),
        "f2_w_abs": abs(f2_w),
        "sector_caps": caps,
        "cap_E11": mu11.capacity,
        "cap_E1": mu1_full.capacity,
        "facing_floor": 1.0 / (4.0 * delta),
        "second_ceiling": 1.0 / (6.0 * delta),
    }
    return report, f


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

    One Gram system and one ``subspace_metric`` call serve every sample; the
    cumulative trapezoid of b_est along the segment estimates the upper path
    integral from -x_1 inward.  Returns one row per sample with the band
    index, per-band increments accumulating in "d_est".
    """
    x = np.sort(band_sample_points(domain, k_range, per_band))[::-1]  # from outer scale inward
    est = subspace_metric(gram, -x)
    b = est.b_est
    # the running sum, added in sample order
    d_est = np.zeros(x.size)
    d_est[1:] = np.cumsum(0.5 * (b[:-1] + b[1:]) * (x[:-1] - x[1:]))
    columns = (band_index(domain, x), x, b, est.K_low, est.S_low, d_est)
    names = ("k", "x", "b_est", "K_low", "S_low", "d_est")
    return [dict(zip(names, row)) for row in zip(*(c.tolist() for c in columns))]


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
