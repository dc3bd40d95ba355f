"""Area integrals of rational-function products over circle domains.

Every domain here is bounded by circles: an outer circle and holes.
Choosing Phi_i with dPhi_i/dzbar = conj(f_i), the complex Green formula
turns each Gram entry into a boundary integral,

    G_ij = integral over the domain of conj(f_i) f_j dA
         = (1 / 2i) * contour integral over the boundary of Phi_i f_j dz,

with the outer circle run counter-clockwise and holes clockwise.  A
single-valued Phi exists for every basis element: the conjugate of an
antiderivative for polynomials and poles of order >= 2, and
conj(a) log|z - c|^2 for a simple pole a / (z - c).  On a circle the
integrand is smooth and periodic, so the N-point trapezoidal rule converges
geometrically in the nearest-singularity ratio (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Rev. 56, 2014).  Every
factor is evaluated in the circle's own frame, (c_circle - c_pole) +
rho e^{i theta}, so holes far below the resolution of their centers stay
exact.

Every rational function is evaluated by :class:`Basis`, which packs a list
of them into arrays (``RationalFunction.eval`` packs one), and every pole
power a / U^m by the sequential divisions of ``_pole_powers``.  Each
circle's sums are matrix products taken on power-of-two-equilibrated columns
(``_circle_sums``), which keeps them clear of subnormal arithmetic.

The polar Gauss-Legendre area rule of :class:`PolarRegion` and a seeded
Monte-Carlo estimator are kept as independent oracles.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .domains import CircleDomain, ZalcmanDomain
from .errors import PolesTooCloseError, PreconditionViolatedError, QuadratureStallError


@lru_cache(maxsize=None)
def leggauss(n: int):
    # Gauss rules are eigen-decompositions; the polar area rule asks for the
    # same orders many times; no pipeline calls it or imports numpy.polynomial
    from numpy.polynomial.legendre import leggauss as gauss

    return gauss(n)

#: largest nearest-singularity ratio a boundary circle accepts
SERIES_MARGIN = 0.95

#: largest change, on the scale sqrt(G_ii G_jj), that doubling every
#: circle's node count may make to a Gram entry
DOUBLING_TOL = 1e-9

#: ``_circle_sums`` scales each column's largest entry to about 2**256: a sum
#: of 2N <= 2**11 complex products of two such entries stays below 2**525,
#: and two entries that lie, together, up to 1534 binades below their
#: maxima still give a normal product
EQUILIBRATED_EXP = 256

#: the smallest unit 2**unit that ``_circle_sums`` gives a diagonal sum: its
#: two column exponents are clipped at 1023 each
MIN_UNIT = -2 * 1023


def _terms_for(ratio: float, s: int) -> int:
    """Trapezoidal nodes N on a circle: s + ceil(14 ln 10 / -ln ratio), and
    s + 1 at ratio 0, for s = n_coef + m + 1.

    On the circle z = c + rho zeta, |zeta| = 1, a basis with n_coef
    polynomial coefficients and poles of order at most m gives an integrand
    Phi_i f_j dz that is a Laurent series in zeta: a finite part, with modes
    |k| <= n_coef + m (polynomials, their antiderivatives, poles at the
    circle's own center), plus tails that decay like ratio**|k| (poles off
    the center, the logarithm of a simple pole).  The N-point rule
    integrates zeta**k exactly unless k is a nonzero multiple of N, so it is
    exact on the finite part, and a tail mode aliases onto the integral only
    at an order of at least N - s, where it has decayed by ratio**(N - s) <=
    1e-14.  The tail of an order-m pole carries a further factor of about
    k**(m-1) / (m-1)!, which the count leaves to the doubling check (the
    returned 2N-point rule squares the decay).  SERIES_MARGIN caps N at
    s + 629.
    """
    if ratio <= 0.0:
        return s + 1
    return s + math.ceil(14.0 * math.log(10.0) / -math.log(ratio))


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """poly(z) + sum_i coeff_i / (z - center_i)**order_i, any orders."""

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
        return Basis.of([self]).values(z)[..., 0]

    def eval_deriv(self, z):
        return Basis.of([self]).values_and_derivs(z)[1][..., 0]


@dataclass(frozen=True)
class Basis:
    """A list of rational functions packed into arrays, for evaluating all of
    them at once: on a circle's nodes (``boundary_gram``) or at any array of
    points (``values``, ``values_and_derivs``, function axis last).

    ``poly`` holds the coefficient rows zero-padded to a common length,
    ``antideriv`` the coefficients of z^1 .. z^n_coef of their
    antiderivatives and ``deriv`` those of their derivatives.  The poles of
    every function are concatenated, function by function, into
    ``centers``, ``orders`` and ``coeffs``; ``ranks`` selects the poles of
    order at least 2, 3, ..., one entry for each division that
    ``_pole_powers`` makes after the first.  The pole-to-function map comes
    in two forms: ``owner``, the function of each pole, from which the Gram
    engine adds the term of a one-pole function as a column and sums the
    terms of the others by a 0/1 matrix product, and ``slots``, whose row i
    indexes the stack [pole terms, polynomial values, 0] so that its running
    sum is function i's 0 + p(z) + t_1 + t_2 + ..., in pole order whatever
    the basis.
    """

    poly: np.ndarray
    antideriv: np.ndarray
    deriv: np.ndarray
    centers: np.ndarray
    orders: np.ndarray
    ranks: tuple
    coeffs: np.ndarray
    owner: np.ndarray
    slots: np.ndarray

    @classmethod
    def of(cls, fns: Sequence[RationalFunction]) -> "Basis":
        n = len(fns)
        if n == 0:
            raise PreconditionViolatedError("a basis needs at least one function")
        # one zero column at least, so that _horner has no empty case
        n_coef = max(1, max(f.poly.size for f in fns))
        poly = np.zeros((n, n_coef), dtype=complex)
        for i, f in enumerate(fns):
            poly[i, : f.poly.size] = f.poly
        counts = np.array([f.pole_centers.size for f in fns])
        owner = np.repeat(np.arange(n), counts)
        n_poles = owner.size
        # row i: zeros, then function i's polynomial value, then its poles
        width = int(counts.max(initial=0)) + 2
        slots = np.full((n, width), n_poles + n)
        slots[np.arange(n), width - 1 - counts] = n_poles + np.arange(n)
        slots[owner, np.arange(n_poles) + (width - np.cumsum(counts))[owner]] = np.arange(n_poles)
        orders = np.concatenate([f.pole_orders for f in fns])
        return cls(
            poly=poly,
            antideriv=poly / np.arange(1, n_coef + 1),
            # polyder's per-entry products, and its one zero column at n_coef = 1
            deriv=poly[:, 1:] * np.arange(1, n_coef) if n_coef > 1 else poly * 0,
            centers=np.concatenate([f.pole_centers for f in fns]),
            orders=orders,
            ranks=tuple(_select(np.flatnonzero(orders >= k)) for k in range(2, int(orders.max(initial=1)) + 1)),
            coeffs=np.concatenate([f.pole_coeffs for f in fns]),
            owner=owner,
            slots=slots,
        )

    def values(self, w) -> np.ndarray:
        """f_i(w) for every function, on the last axis."""
        z = np.asarray(w, dtype=complex)
        U = z[..., None] - self.centers
        T, _ = _pole_powers(U, self.coeffs, self.ranks, np.empty_like(U), np.empty_like(U))
        return self._sum(_horner(self.poly, z), T)

    def values_and_derivs(self, w) -> tuple[np.ndarray, np.ndarray]:
        """(f_i(w), f_i'(w)) for every function, on the last axis; the poles
        of order m + 1 give a / U**(m+1) and a / U**m in one pass."""
        z = np.asarray(w, dtype=complex)
        U = z[..., None] - self.centers
        D, T = _pole_powers(U, self.coeffs, (slice(None), *self.ranks), np.empty_like(U), np.empty_like(U))
        return self._sum(_horner(self.poly, z), T), self._sum(_horner(self.deriv, z), -(self.orders * D))

    def _sum(self, values: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """values[..., i] plus function i's pole terms, added in pole order."""
        zero = np.zeros(values.shape[:-1] + (1,), dtype=complex)
        stack = np.concatenate([terms, values, zero], axis=-1)
        return np.add.accumulate(stack.take(self.slots, axis=-1), axis=-1)[..., -1]


def _pole_powers(
    U: np.ndarray, coeffs: np.ndarray, ranks: Sequence, T: np.ndarray, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(a / U**m, a / U**(m-1)) for every pole, poles on the last axis,
    written into T and lower (arrays shaped like U) by sequential division:
    U**m alone can under/overflow at deep scales even when a / U**m is
    representable.  ``ranks`` selects the poles that each further division
    applies to (``Basis.ranks``); for a simple pole ``lower`` keeps what it
    held, which no caller reads."""
    np.divide(coeffs, U, out=T)
    for cols in ranks:
        lower[..., cols] = T[..., cols]
        T[..., cols] /= U[..., cols]
    return T, lower


def _select(idx: np.ndarray) -> slice | np.ndarray:
    """The increasing indices ``idx`` as a slice when they are evenly spaced,
    so that indexing with them gives a view, else as they are."""
    if idx.size == 0:
        return slice(0, 0)
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    if np.all(np.diff(idx) == step):
        return slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx


def _horner(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of ``coef`` evaluated at z by Horner's rule, rows on the last
    axis, in the order of ``np.polynomial.polynomial.polyval``; the zero
    padding leaves the sums unchanged."""
    # a 0-d z broadcasts against the rows as it is, faster than with shape (1,)
    z = z[..., None] if z.ndim else z
    out = coef[:, -1] + z * 0
    for j in range(coef.shape[1] - 2, -1, -1):
        out = coef[:, j] + out * z
    return out


# ---------------------------------------------------------------------------
# the boundary-integral Gram engine
# ---------------------------------------------------------------------------


@dataclass
class QuadratureInfo:
    """What the boundary rule did: the a-priori node count N of each circle
    (the returned Gram uses 2N), the largest change from the N- to the
    2N-point rule and the Hermitian defect of the unsymmetrised result, both
    relative to sqrt(G_ii G_jj)."""

    nodes: list
    doubling_change: float
    hermitian_defect: float
    #: the boundary rule has no refinement levels; the mapping stays empty
    #: because perfbench/tracer.py sums it
    levels: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "circle_nodes": self.nodes,
            "doubling_change": self.doubling_change,
            "hermitian_defect": self.hermitian_defect,
        }


def domain_circles(domain: CircleDomain) -> list[tuple[complex, float, int]]:
    """The domain's boundary circles as (center, radius, orientation): +1
    (counter-clockwise) for the outer circle, -1 for holes.  The isolated
    origin bounds no area and is left out."""
    last = domain.circle_radii.size - 1
    return [
        (c, rho, 1 if i == last else -1)
        for i, (c, rho) in enumerate(zip(domain.circle_centers.tolist(), domain.circle_radii.tolist()))
    ]


def boundary_gram(
    circles: Sequence[tuple[complex, float, int]], fns: Basis | Sequence[RationalFunction]
) -> tuple[np.ndarray, QuadratureInfo]:
    """G_ij = integral of conj(f_i) f_j over the domain bounded by ``circles``.

    ``circles`` holds (center, radius, orientation) triples, orientation +1
    for counter-clockwise and -1 for clockwise, with the domain on the left;
    ``fns`` is a packed :class:`Basis` or a list of functions to pack.
    Each circle gets N = _terms_for(ratio, s) nodes from the ratio of its
    nearest pole (min(d, rho) / max(d, rho) at distance d from its center)
    and the basis's mode bound s = n_coef + m + 1 (n_coef polynomial
    coefficients, highest pole order m), and its rule is doubled once: the
    returned matrix is the 2N-point result, Hermitian-symmetrised, and the
    N-point result must agree with it to DOUBLING_TOL on the global scale
    sqrt(G_ii G_jj).  Each circle's sums are taken by ``_circle_sums`` on
    power-of-two-equilibrated columns, and G_ii for that scale is summed in
    a unit of its own, so the check sees subnormal and underflowed norms.

    Raises PreconditionViolatedError for an empty basis, PolesTooCloseError
    for a pole inside the domain or with a ratio above SERIES_MARGIN (or not
    a number), QuadratureStallError when the doubling check fails.
    """
    basis = fns if isinstance(fns, Basis) else Basis.of(fns)
    n = basis.poly.shape[0]
    centers, orders, coeffs, owner = basis.centers, basis.orders, basis.coeffs, basis.owner
    worst = _worst_ratios(circles, centers)

    # the pole-to-function sums: a column add for a function with one pole,
    # a 0/1 product (BLAS gemm, summing each column in pole order) for those
    # with several.  numpy sends a one-column product to gemv, which rounds
    # otherwise, so a single shared function gets a second, zero column; a
    # one-function basis stays with gemv, which keeps its bits
    count = np.bincount(owner, minlength=n)
    lone = count[owner] == 1
    lone_fns, lone_poles = _select(owner[lone]), _select(np.flatnonzero(lone))
    shared = np.flatnonzero(count > 1)
    shared_fns, shared_poles = _select(shared), _select(np.flatnonzero(~lone))
    columns = np.append(shared, -1) if shared.size == 1 and n > 1 else shared
    shared_owner = (owner[~lone][:, None] == columns).astype(complex)
    simple = _select(np.flatnonzero(orders == 1))
    higher = basis.ranks[0] if basis.ranks else slice(0, 0)
    simple_coeffs, higher_div = np.conj(coeffs[simple]), 1 - orders[higher]

    s_modes = basis.poly.shape[1] + int(orders.max(initial=0)) + 1
    nodes = [_terms_for(float(r), s_modes) for r in worst]
    # work arrays for the largest circle, reused by every circle
    rows = 2 * max(nodes)
    Phi_work, F_work = np.empty((rows, n), dtype=complex), np.empty((rows, n), dtype=complex)
    U_work, T_work, P_work = (np.empty((rows, centers.size), dtype=complex) for _ in range(3))
    coarse = np.zeros((n, n), dtype=complex)
    fine = np.zeros((n, n), dtype=complex)
    diags, units = [], []
    for (c, rho, s), N in zip(circles, nodes):
        zeta = _roots(2 * N)
        offsets = rho * zeta
        z = c + offsets
        Phi, F = Phi_work[: 2 * N], F_work[: 2 * N]
        # every function and its Phi at the nodes, one column per function;
        # pole factors are formed as (c - center) + offset
        powers = np.cumprod(np.column_stack([np.ones_like(z)] + [z] * basis.poly.shape[1]), axis=1)
        np.matmul(powers[:, :-1], basis.poly.T, out=F)
        np.conjugate(np.matmul(powers[:, 1:], basis.antideriv.T, out=Phi), out=Phi)
        if centers.size:
            U = np.add(c - centers, offsets[:, None], out=U_work[: 2 * N])
            T, P = _pole_powers(U, coeffs, basis.ranks, T_work[: 2 * N], P_work[: 2 * N])
            P[:, higher] = np.conj(P[:, higher]) / higher_div
            # conj(a) 2 log|U| by parts, as a complex product casts the logs
            L = 2.0 * np.log(np.abs(U[:, simple]))
            P.imag[:, simple] = L * simple_coeffs.imag
            P.real[:, simple] = np.multiply(L, simple_coeffs.real, out=L)
            F[:, lone_fns] += T[:, lone_poles]
            Phi[:, lone_fns] += P[:, lone_poles]
            if shared.size:
                F[:, shared_fns] += (T[:, shared_poles] @ shared_owner)[:, : shared.size]
                Phi[:, shared_fns] += (P[:, shared_poles] @ shared_owner)[:, : shared.size]
        # (1/2i) dz = (rho zeta / 2) dtheta, and dtheta = pi / N on 2N nodes
        WF = np.multiply((s * math.pi * rho / (2 * N)) * zeta[:, None], F, out=F)
        fine_c, coarse_c, diag, unit = _circle_sums(Phi, WF)
        fine += fine_c
        coarse += coarse_c
        diags.append(diag)
        units.append(unit)

    half, (norm,) = _rescaled(np.array(units), np.array(diags))
    root = np.sqrt(np.abs(norm))
    scale = root[:, None] * root[None, :]
    # a zero function has exactly zero rows, whatever they are divided by
    scale[scale == 0.0] = 1.0
    shift = -(half[:, None] + half[None, :])
    change = float(np.max(np.ldexp(np.abs(fine - coarse), shift) / scale))
    if not change <= DOUBLING_TOL:
        raise QuadratureStallError(
            f"doubling the boundary rule changed the Gram matrix by {change:.2e} (tolerance {DOUBLING_TOL})"
        )
    info = QuadratureInfo(
        nodes=nodes,
        doubling_change=change,
        hermitian_defect=float(np.max(np.ldexp(np.abs(fine - fine.conj().T), shift) / scale)),
    )
    return 0.5 * (fine + fine.conj().T), info


def norms_sq(
    circles: Sequence[tuple[complex, float, int]], fns: Sequence[RationalFunction]
) -> tuple[np.ndarray, QuadratureInfo]:
    """||f||^2 for each sum of simple poles f of ``fns``: ``boundary_gram``'s
    diagonal, to rounding, from one circle loop over the union of the poles,
    each circle on the N of its worst ratio over the union.  With U = z - p
    over the distinct poles p and their coefficients A (poles x functions),
    F = (1/U) @ A and Phi = 2 log|U| @ conj(A), and each norm is a column
    sum of Phi WF at 2N and at N nodes.  An f that fails ``boundary_gram``'s
    pole checks, or the doubling check on its own scale, reads NaN and is
    left out of the info's maxima; a polynomial part or a pole of higher
    order raises PreconditionViolatedError.
    """
    basis = Basis.of(fns)
    if basis.poly.any() or np.any(basis.orders != 1):
        raise PreconditionViolatedError("norms_sq takes sums of simple poles only")
    worst = np.full((len(fns), len(circles)), math.nan)
    for i in range(len(fns)):
        with contextlib.suppress(PolesTooCloseError):
            worst[i] = _worst_ratios(circles, basis.centers[basis.owner == i])
    good = ~np.isnan(worst).any(axis=1)
    keep = good[basis.owner]
    centers, where = np.unique(basis.centers[keep], return_inverse=True)
    A = np.zeros((centers.size, len(fns)), dtype=complex)
    np.add.at(A, (where, basis.owner[keep]), basis.coeffs[keep])
    # simple poles and no polynomial: s = n_coef + m + 1 = 3, as Basis counts it
    nodes = [_terms_for(float(r), 3) for r in np.max(worst, axis=0, where=good[:, None], initial=0.0)]
    sums, units = [], []
    for (c, rho, s), N in zip(circles, nodes):
        zeta = _roots(2 * N)
        U = (c - centers) + (rho * zeta)[:, None]
        Phi = (2.0 * np.log(np.abs(U)) @ np.conj(A).view(float)).view(complex)
        WF = (np.divide(1.0, U) @ A) * ((s * math.pi * rho / (2 * N)) * zeta[:, None])
        units.append(-(_equilibrate(Phi) + _equilibrate(WF)))
        fine, coarse = np.sum(Phi * WF, axis=0), 2.0 * np.sum(Phi[::2] * WF[::2], axis=0)
        sums.append([fine.real, fine.imag, (fine - coarse).real, (fine - coarse).imag])
    half, (norm, imag, *change) = _rescaled(np.array(units), *np.moveaxis(np.array(sums), 1, 0))
    scale = np.where(norm == 0.0, 1.0, np.abs(norm))
    change, defect = np.hypot(*change) / scale, 2.0 * np.abs(imag) / scale
    ok = good & (change <= DOUBLING_TOL)
    maxima = (float(np.max(v, where=ok, initial=0.0)) for v in (change, defect))
    return np.where(ok, np.ldexp(norm, 2 * half), math.nan), QuadratureInfo(nodes, *maxima)


def _worst_ratios(circles: Sequence[tuple[complex, float, int]], centers: np.ndarray) -> np.ndarray:
    """The largest min(d, rho) / max(d, rho) of the poles ``centers`` on
    each circle; PolesTooCloseError for a pole inside the domain or a ratio
    above SERIES_MARGIN (or not a number)."""
    cc, rr, sign = (np.array(v, dtype=t) for v, t in zip(zip(*circles), (complex, float, float)))
    dist = np.abs(centers[:, None] - cc[None, :])
    # winding number of the oriented boundary around each pole
    inside = (sign * (dist < rr)).sum(axis=1) > 0
    if np.any(inside):
        raise PolesTooCloseError(f"pole {centers[inside][0]} lies inside the domain")
    ratio = np.minimum(dist, rr) / np.maximum(dist, rr)
    worst = ratio.max(axis=0, initial=0.0)
    # written so that a NaN ratio (a NaN pole or circle) fails it too
    far = worst <= SERIES_MARGIN
    if not np.all(far):
        i = int(np.argmin(far))
        raise PolesTooCloseError(f"a pole sits at ratio {worst[i]:.3f} of the circle |z - {cc[i]}| = {rr[i]}")
    return worst


def _rescaled(unit: np.ndarray, diag: np.ndarray, *more: np.ndarray) -> tuple[np.ndarray, list]:
    """(half, sums): G_ii = norm_i * 4**half_i, the circles' diagonal sums
    diag * 2**unit (circles x functions) summed in the largest unit one of
    them needs (even, so that sqrt is exact), normal where G_ii is subnormal
    or 0; ``more`` are further sums in the same units."""
    half = (np.max(unit, axis=0, where=diag != 0.0, initial=MIN_UNIT) + 1) // 2
    return half, [np.add.reduce(np.ldexp(d, unit - 2 * half), axis=0) for d in (diag, *more)]


@lru_cache(maxsize=None)
def _roots(m: int) -> np.ndarray:
    """The m-th roots of unity, read-only.  The cache stays small: m = 2N
    with s + 1 <= N <= s + 629 (``_terms_for``), s the mode bound of a
    basis."""
    zeta = np.exp(2j * math.pi * np.arange(m) / m)
    zeta.flags.writeable = False
    return zeta


def _circle_sums(
    Phi: np.ndarray, WF: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Phi.T @ WF, Phi[::2].T @ (2 WF[::2]), diag, unit): one circle's 2N-
    and N-point sums, bit for bit wherever those products stay normal
    numbers, and the real part of the first one's (leading) diagonal as
    diag * 2**unit, with diag taken before scaling back.

    Both sums are taken on columns scaled by powers of two (``_equilibrate``,
    which overwrites Phi and WF) and scaled back with ldexp, so a product of
    two column entries is subnormal only far below its columns' maxima (see
    EQUILIBRATED_EXP): the Gram entries of deep circles keep their relative
    precision down to the normal floor instead of losing it, slowly, in
    subnormal arithmetic.  ``unit`` is at least MIN_UNIT.
    """
    a, b = _equilibrate(Phi), _equilibrate(WF)
    # one exponent per real and imaginary part, contiguous like the parts
    shift = -(a[:, None] + b.repeat(2)[None, :])
    # a strided single column goes to another BLAS kernel than a contiguous
    # one and rounds otherwise; the copy keeps one-function bases on the
    # contiguous path
    even = WF[::2] if WF.shape[1] > 1 else WF[::2].copy()
    fine = Phi.T @ WF
    diag = fine.diagonal().real.copy()
    unit = -(a[: diag.size] + b[: diag.size])
    return _ldexp(fine, shift), _ldexp(Phi[::2].T @ even, shift + 1), diag, unit


def _equilibrate(A: np.ndarray) -> np.ndarray:
    """Scale each column of the C-contiguous complex A in place by 2**e, e
    putting the column's largest real or imaginary part near
    2**EQUILIBRATED_EXP, clipped so that 2**e is a normal number (a zero
    column gets the unclipped e); returns e."""
    parts = A.view(float)
    top = np.maximum.reduce(np.abs(parts))
    e = EQUILIBRATED_EXP - np.frexp(np.maximum(top[::2], top[1::2]))[1]
    e = np.minimum(np.maximum(e, -1022), 1023)
    parts *= np.ldexp(1.0, e).repeat(2)
    return e


def _ldexp(R: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """R * 2**shift in place, with one rounding where the result is
    subnormal; R is C-contiguous complex (n, m) and shift holds the (n, 2m)
    exponents of its real and imaginary parts."""
    parts = R.view(float)
    np.ldexp(parts, shift, out=parts)
    return R


# ---------------------------------------------------------------------------
# partition regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnulusRegion:
    """Centered annulus r_in < |z - center| < r_out (a disk when r_in = 0)."""

    center: complex
    r_in: float
    r_out: float

    def circles(self) -> list[tuple[complex, float, int]]:
        inner = [(self.center, self.r_in, -1)] if self.r_in > 0.0 else []
        return [(self.center, self.r_out, 1), *inner]

    def gram(self, fns: Sequence[RationalFunction]) -> np.ndarray:
        """G_ij = integral of conj(f_i) * f_j over the annulus."""
        return boundary_gram(self.circles(), fns)[0]


@dataclass(frozen=True)
class PolarRegion:
    """{r_in <= |z - center| <= r_out} minus excluded disks.  Its polar
    Gauss-Legendre area rule with per-radius arc exclusion
    (``nodes_weights``) is an oracle independent of the boundary rule."""

    center: complex
    r_in: float
    r_out: float
    holes: tuple  # (center, radius) pairs to exclude

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

    def circles(self) -> list[tuple[complex, float, int]]:
        return AnnulusRegion(self.center, self.r_in, self.r_out).circles() + [
            (hc, rho, -1) for hc, rho in self.holes
        ]

    def gram(self, fns: Sequence[RationalFunction]) -> np.ndarray:
        """G_ij = integral of conj(f_i) * f_j over the region."""
        return boundary_gram(self.circles(), fns)[0]


# ---------------------------------------------------------------------------
# the Zalcman partition
# ---------------------------------------------------------------------------


def zalcman_partition(domain: ZalcmanDomain) -> tuple[list, list]:
    """(annuli, collars) covering the domain exactly: the per-scale partition
    the earlier collar quadrature integrated over.  No pipeline uses it;
    perfbench's collar check integrates over each piece.

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
    analytic.append(AnnulusRegion(0j, 0.0, bands[groups[-1][-1]][0]))
    return analytic, numeric


def partition_for(domain: ZalcmanDomain) -> tuple[list, list]:
    """The per-scale partition of a Zalcman domain, see ``zalcman_partition``."""
    if not isinstance(domain, ZalcmanDomain):
        raise TypeError("only Zalcman domains have a partition")
    return zalcman_partition(domain)


def integrate_hermitian(
    partition: tuple[list, list], fns: Sequence[RationalFunction]
) -> tuple[np.ndarray, QuadratureInfo]:
    """Gram matrix of fns over the union of a partition's regions: one
    boundary integral over all their circles (a circle shared by two regions
    is run once each way and cancels)."""
    analytic, numeric = partition
    return boundary_gram([c for reg in (*analytic, *numeric) for c in reg.circles()], fns)


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------


def mc_integral(
    contains: Callable[[np.ndarray], np.ndarray],
    integrand: Callable[[np.ndarray], np.ndarray],
    radius: float,
    n_samples: int,
    seed: int,
) -> float:
    """Rejection-sampled area integral over {inside the domain, |z| < radius}."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-radius, radius, n_samples)
    y = rng.uniform(-radius, radius, n_samples)
    z = x + 1j * y
    keep = (np.abs(z) < radius) & contains(z)
    vals = integrand(z[keep])
    return float(np.real(np.sum(vals)) * (2.0 * radius) ** 2 / n_samples)
