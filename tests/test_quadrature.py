import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from basis_oracle import spec_functions
from berglab import bergman, quadrature
from berglab.domains import CircleDomain, ScaleFunction, build_zalcman
from berglab.errors import (
    BerglabError,
    NonDisjointError,
    PolesTooCloseError,
    PreconditionViolatedError,
    QuadratureStallError,
    ScaleUnderflowError,
)
from berglab.quadrature import (
    AnnulusRegion,
    Basis,
    PolarRegion,
    RationalFunction,
    boundary_gram,
    domain_circles,
    integrate_hermitian,
    mc_integral,
    norms_sq,
    partition_for,
)


@functools.cache
def area_nodes(region: PolarRegion, level: int) -> tuple[np.ndarray, np.ndarray]:
    return region.nodes_weights(level)


def area_gram(region: PolarRegion, fns, level: int = 2) -> np.ndarray:
    """The polar Gauss-Legendre area rule, independent of the boundary rule."""
    z, w = area_nodes(region, level)
    B = np.column_stack([f.eval(z) for f in fns])
    return (B.conj().T * w) @ B


def test_rational_eval_and_deriv_against_finite_differences():
    f = RationalFunction(
        poly=np.array([1.0, 2.0, 0.5j]),
        pole_centers=np.array([0.3 + 0j, -0.2 + 0.1j]),
        pole_orders=np.array([1, 2]),
        pole_coeffs=np.array([1.5, -0.7j]),
    )
    z = 0.5 + 0.4j
    h = 1e-6
    fd = (f.eval(z + h) - f.eval(z - h)) / (2 * h)
    assert f.eval_deriv(z) == pytest.approx(fd, rel=1e-8)


def test_disk_monomial_gram_closed_form():
    basis = [RationalFunction.monomial(j) for j in range(4)]
    G, _ = boundary_gram(domain_circles(CircleDomain.build()), basis)
    expected = np.diag([math.pi / (j + 1) for j in range(4)])
    assert np.allclose(G, expected, atol=1e-12)


def test_annulus_laurent_norms():
    basis = [RationalFunction.pole(0j, 1), RationalFunction.monomial(0)]
    G, _ = boundary_gram(domain_circles(CircleDomain.build([(0j, 0.5)])), basis)
    assert G[0, 0].real == pytest.approx(2 * math.pi * math.log(2.0), rel=1e-12)
    assert G[1, 1].real == pytest.approx(math.pi * (1 - 0.25), rel=1e-12)
    assert abs(G[0, 1]) < 1e-12  # rotational orthogonality


def test_pole_pair_kernels_against_polar_quadrature():
    # same annulus, offset poles: boundary rule vs the polar area rule
    reg = AnnulusRegion(0j, 0.2, 1.0)
    d1, d2 = 0.05 + 0.02j, -0.03 + 0.04j
    fns = [
        RationalFunction.pole(d1, 1),
        RationalFunction.pole(d2, 2),
        RationalFunction.pole(d1, 2),
    ]
    G = reg.gram(fns)
    num = area_gram(PolarRegion(0j, 0.2, 1.0, ()), fns)
    assert np.allclose(G, num, rtol=2e-6, atol=1e-8)


def test_mixed_pole_poly_entries_match_numeric():
    reg = AnnulusRegion(0j, 0.3, 0.9)
    fns = [
        RationalFunction.monomial(2),
        RationalFunction.pole(0.05 + 0.01j, 1),
        RationalFunction.pole(1.5 + 0.2j, 1),  # outer pole: regular part
    ]
    G = reg.gram(fns)
    num = area_gram(PolarRegion(0j, 0.3, 0.9, ()), fns)
    assert np.allclose(G, num, rtol=2e-6, atol=1e-9)


def test_partition_area_quadrature_of_one():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    part = partition_for(dom)
    one = [RationalFunction.monomial(0)]
    G, info = integrate_hermitian(part, one)
    exact = math.pi * (1.0 - float(np.sum(dom.radii**2)))
    assert G[0, 0].real == pytest.approx(exact, rel=1e-6)
    assert len(part[1]) == 3


def test_zalcman_gram_hermitian_psd():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=5)
    part = partition_for(dom)
    basis = [RationalFunction.monomial(j) for j in range(4)]
    for k in range(5):
        basis.append(RationalFunction.pole(complex(dom.xs[k]), 1))
        basis.append(RationalFunction.pole(complex(dom.xs[k]), 2))
    G, _ = integrate_hermitian(part, basis)
    assert np.allclose(G, G.conj().T)
    eig = np.linalg.eigvalsh(G)
    assert eig.min() >= -1e-10 * np.trace(G).real


def test_one_pole_norm_bounded_by_annulus_integral():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=6)
    part = partition_for(dom)
    k = 2  # pole at x_{k+1} = xs[k], hole k+1 removed
    f = [RationalFunction.pole(complex(dom.xs[k]), 1)]
    G, _ = integrate_hermitian(part, f)
    bound = 2 * math.pi * math.log(2.0 / float(dom.rs[k]))
    assert G[0, 0].real <= bound
    assert G[0, 0].real >= 0.5 * bound  # ballpark sanity: same log scale


def test_mc_oracle_agrees_on_smooth_entry():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=2)
    part = partition_for(dom)
    f = RationalFunction.monomial(1)
    G, _ = integrate_hermitian(part, [f])
    est = mc_integral(
        dom.contains,
        lambda z: np.abs(f.eval(z)) ** 2,
        radius=1.0,
        n_samples=400_000,
        seed=42,
    )
    assert est == pytest.approx(G[0, 0].real, rel=0.02)


def test_mc_deterministic_given_seed():
    dom = CircleDomain.build()
    f = lambda z: np.abs(z) ** 2
    a = mc_integral(dom.contains, f, 1.0, 100_000, seed=7)
    b = mc_integral(dom.contains, f, 1.0, 100_000, seed=7)
    assert a == b


def test_two_hole_disk_area():
    dom = CircleDomain.build([(-0.4 + 0j, 0.04), (0.4 + 0j, 0.04)])
    G, _ = boundary_gram(domain_circles(dom), [RationalFunction.monomial(0)])
    assert G[0, 0].real == pytest.approx(math.pi * (1.0 - 2 * 0.04**2), rel=1e-14)


def test_pole_hugging_raises():
    reg = AnnulusRegion(0j, 0.1, 0.5)
    with pytest.raises(PolesTooCloseError):
        reg.gram([RationalFunction.pole(0.099 + 0j, 1)])
    with pytest.raises(PolesTooCloseError):
        reg.gram([RationalFunction.pole(0.51 + 0j, 1)])


# ---------------------------------------------------------------------------
# the boundary-integral engine
# ---------------------------------------------------------------------------


def test_closed_forms_disk_monomials_and_annulus_laurent_terms():
    disk = [RationalFunction.monomial(j) for j in range(9)]
    G, _ = boundary_gram(domain_circles(CircleDomain.build()), disk)
    want = np.diag([math.pi / (j + 1) for j in range(9)])
    assert np.max(np.abs(G - want) / np.sqrt(np.outer(np.diag(want), np.diag(want)))) <= 1e-13
    # z^n for n = -8..8 on 0.5 < |z| < 1, the negative powers as poles at 0
    laurent = [RationalFunction.pole(0j, m) for m in range(8, 0, -1)] + disk
    ann = CircleDomain.build([(0j, 0.5)])
    G, _ = boundary_gram(domain_circles(ann), laurent)
    want = np.diag([
        2 * math.pi * (math.log(2.0) if n == -1 else (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2))
        for n in range(-8, 9)
    ])
    assert np.max(np.abs(G - want) / np.sqrt(np.outer(np.diag(want), np.diag(want)))) <= 1e-13


@pytest.fixture(scope="module")
def h2_40_gram():
    dom = build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=40)
    return dom, bergman.assemble_gram(dom, bergman.default_basis(dom))


def test_h2_gram_unsymmetrised_is_hermitian(h2_40_gram):
    _, gs = h2_40_gram
    assert gs.quad.hermitian_defect <= 1e-13
    assert gs.quad.doubling_change <= 1e-13


#: K_low of the h2 beta=1, x1=1e-3, K=40 sweep at k = 5, 20, 35, as written
#: by the polar-collar quadrature this engine replaced
GOLDEN_K_LOW = {5: 20577535352988.973, 20: 3.667370783331524e60, 35: 5.158785617145812e120}


def test_h2_kernel_matches_golden_values(h2_40_gram):
    dom, gs = h2_40_gram
    for k, want in GOLDEN_K_LOW.items():
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        assert bergman.subspace_kernel(gs, complex(-x)) == pytest.approx(want, rel=1e-6)


#: K_low at the same points as the boundary rule wrote it with at least 96
#: nodes on every circle; the counts derived from the basis keep it to 1e-12
FLOOR_RULE_K_LOW = {5: 20577531072140.023, 20: 3.6673701249101994e60, 35: 5.158784765059018e120}


def test_h2_kernel_matches_the_former_node_counts(h2_40_gram):
    dom, gs = h2_40_gram
    assert sum(gs.quad.nodes) < 1000
    for k, want in FLOOR_RULE_K_LOW.items():
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        assert bergman.subspace_kernel(gs, complex(-x)) == pytest.approx(want, rel=1e-12)


def test_gram_from_a_packed_basis_keeps_its_bits(h2_40_gram):
    dom, gs = h2_40_gram
    circles = domain_circles(dom)
    G, info = boundary_gram(circles, gs.fns)
    assert np.array_equal(G, gs.G) and info.nodes == gs.quad.nodes
    # multi-pole witnesses: Cauchy transforms on retracted hole rims, and
    # their difference, whose poles carry coefficients of both signs
    rings = [c + 0.5 * rho * np.exp(2j * math.pi * np.arange(8) / 8) for c, rho in TWO_HOLES]
    f1 = RationalFunction.from_nodes(rings[0], np.linspace(0.05, 0.2, 8))
    f2 = RationalFunction.from_nodes(rings[1], np.full(8, 0.125))
    fns = [f1 - f2, f1, RationalFunction.monomial(2)]
    G, _ = boundary_gram(TWO_HOLE_REGION.circles(), fns)
    G_packed, _ = boundary_gram(TWO_HOLE_REGION.circles(), Basis.of(fns))
    assert np.array_equal(G, G_packed)


def test_deep_frame_entries_finite():
    # r_10 is far below the resolution of x_10 here: x_10 + r_10 e^{it}
    # rounds to x_10, and only the circle's own frame keeps the pole apart
    dom = build_zalcman(ScaleFunction.h1(1.5), 1e-2, K=10)
    assert float(dom.xs[9]) + float(dom.rs[9]) == float(dom.xs[9])
    G, _ = boundary_gram(domain_circles(dom), bergman.default_basis(dom))
    assert np.all(np.isfinite(G))
    assert np.all(np.real(np.diag(G)) > 0.0)


TWO_HOLES = ((-0.4 + 0.1j, 0.15), (0.35 - 0.2j, 0.1))
TWO_HOLE_REGION = PolarRegion(0j, 0.0, 1.0, TWO_HOLES)


@st.composite
def hole_poles(draw, low=0.0, high=0.6):
    """Off-centre poles of orders 1-3 inside the holes, at low-high of the
    hole radius from its center, scaled by the hole radius so each function
    has an O(1) norm."""
    fns = []
    for _ in range(draw(st.integers(1, 3))):
        c, rho = TWO_HOLES[draw(st.integers(0, 1))]
        offset = draw(st.floats(low, high)) * rho * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        m = draw(st.integers(1, 3))
        fns.append(RationalFunction.pole(c + offset, m, coeff=rho ** (m - 1)))
    return fns


@settings(max_examples=25, deadline=None)
@given(hole_poles())
def test_hole_poles_match_area_oracle(fns):
    # level 3 of the area rule: at level 2 its own error on an order-3 pole
    # reaches 2.5e-6 of the diagonal, and each level cuts it 8x towards the
    # boundary rule's value; compared on the scale sqrt(G_ii G_jj)
    G, _ = boundary_gram(TWO_HOLE_REGION.circles(), fns)
    A = area_gram(TWO_HOLE_REGION, fns, level=3)
    root = np.sqrt(np.real(np.diag(A)))
    assert np.max(np.abs(G - A) / np.outer(root, root)) <= 2e-6


def former_eval(f: RationalFunction, z):
    """f(z) one pole at a time, as ``RationalFunction.eval`` computed it
    before every evaluation went through a packed ``Basis``."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    if f.poly.size:
        out += np.polynomial.polynomial.polyval(z, f.poly)
    for c, m, a in zip(f.pole_centers, f.pole_orders, f.pole_coeffs):
        t = a / (z - c)
        for _ in range(m - 1):
            t = t / (z - c)
        out = out + t
    return out


def former_eval_deriv(f: RationalFunction, z):
    """f'(z) one pole at a time, as ``RationalFunction.eval_deriv`` computed it."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    if f.poly.size > 1:
        out += np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(f.poly))
    for c, m, a in zip(f.pole_centers, f.pole_orders, f.pole_coeffs):
        t = a / (z - c)
        for _ in range(m):
            t = t / (z - c)
        out = out - m * t
    return out


@st.composite
def bases_and_points(draw):
    """A ``spec_functions`` basis (monomials up to a degree, then orders
    1..m at each center with coefficient scale**(order-1)) plus one
    multi-pole Cauchy transform on the centers and one polynomial with poles
    of mixed orders there, sometimes without the monomials, and a point or
    an array of points at least 1e-3 of the basis's size away from every
    center, so no term leaves double range."""
    size = 10.0 ** draw(st.floats(-6.0, 0.0))
    cplx = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    centers = tuple(size * c for c in draw(st.lists(cplx, max_size=40)))
    scales = tuple(10.0 ** draw(st.floats(-12.0, 0.0)) for _ in centers)
    degree = draw(st.integers(0, 10))
    fns = spec_functions(degree, centers, draw(st.integers(1, 3)), scales)
    if centers:
        fns.append(RationalFunction.from_nodes(np.array(centers), np.array(scales)))
        orders = draw(st.lists(st.integers(1, 3), min_size=len(centers), max_size=len(centers)))
        fns.append(RationalFunction(np.array([0.5, -1j]), np.array(centers), np.array(orders), np.array(scales)))
        if draw(st.booleans()):
            fns = fns[degree + 1 :]  # poles only: no polynomial rows to pack
    points = draw(st.one_of(cplx, st.lists(cplx, min_size=1, max_size=6)))
    w = 2.0 * size * np.asarray(points)
    assume(all(np.all(np.abs(w - c) >= 1e-3 * size) for c in centers))
    return fns, w


@settings(max_examples=200, deadline=None)
@given(bases_and_points())
def test_packed_basis_evaluates_like_each_function(case):
    # the former per-pole loops are the reference; the function axis is last
    fns, w = case
    v = np.stack([former_eval(f, w) for f in fns], axis=-1)
    u = np.stack([former_eval_deriv(f, w) for f in fns], axis=-1)
    basis = Basis.of(fns)
    values, derivs = basis.values_and_derivs(w)
    assert np.array_equal(basis.values(w), v)
    assert np.array_equal(values, v) and np.array_equal(derivs, u)
    for i, f in enumerate(fns):
        assert np.array_equal(f.eval(w), v[..., i]) and np.array_equal(f.eval_deriv(w), u[..., i])


def test_pole_inside_domain_raises():
    circles = domain_circles(CircleDomain.build([(0.5 + 0j, 0.1)]))
    with pytest.raises(PolesTooCloseError):
        boundary_gram(circles, [RationalFunction.pole(-0.5 + 0j, 1)])
    boundary_gram(circles, [RationalFunction.pole(0.5 + 0j, 1)])


def test_doubling_check_raises_stall(monkeypatch):
    # an order-4 pole at ratio 0.9 leaves ~1e-10 between the N- and the
    # 2N-point rule: inside DOUBLING_TOL, outside a tolerance of 1e-12
    circles = [(0j, 1.0, 1), (0.3 + 0j, 0.1, -1)]
    fns = [RationalFunction.pole(0.39 + 0j, 4, coeff=1e-3), RationalFunction.monomial(0)]
    _, info = boundary_gram(circles, fns)
    assert 1e-12 < info.doubling_change <= quadrature.DOUBLING_TOL
    monkeypatch.setattr(quadrature, "DOUBLING_TOL", 1e-12)
    with pytest.raises(QuadratureStallError):
        boundary_gram(circles, fns)


# ---------------------------------------------------------------------------
# the circle loop against the engine it replaced
# ---------------------------------------------------------------------------


def former_pole_powers(U, coeffs, orders):
    """``quadrature._pole_powers`` before it wrote into given arrays: masked
    divisions, and zeros for the lower power of a simple pole."""
    T = coeffs / U
    lower = np.zeros_like(T)
    for k in range(2, int(orders.max(initial=1)) + 1):
        cols = orders >= k
        np.copyto(lower, T, where=cols)
        np.divide(T, U, out=T, where=cols)
    return T, lower


def former_boundary_values(c, offsets, basis, owner_matrix):
    """(Phi, F) at the nodes c + offsets, as ``_boundary_values`` formed them:
    every pole term summed into its function by a 0/1 matrix product."""
    z = c + offsets
    poly, centers, orders, coeffs = basis.poly, basis.centers, basis.orders, basis.coeffs
    powers = np.cumprod(np.column_stack([np.ones_like(z)] + [z] * poly.shape[1]), axis=1)
    F = powers[:, :-1] @ poly.T
    Phi = np.conj(powers[:, 1:] @ basis.antideriv.T)
    if centers.size:
        U = (c - centers)[None, :] + offsets[:, None]
        T, lower = former_pole_powers(U, coeffs, orders)
        simple = orders == 1
        P = np.conj(lower) / np.where(simple, 1, 1 - orders)
        P[:, simple] = np.conj(coeffs[simple]) * (2.0 * np.log(np.abs(U[:, simple])))
        F += T @ owner_matrix
        Phi += P @ owner_matrix
    return Phi, F


#: the smallest normal double
TINY = np.finfo(float).tiny


def former_boundary_gram(circles, fns, nodes):
    """(G, info, underflow): ``boundary_gram`` as it was before its circle
    loop took products on equilibrated columns, with fresh arrays for every
    circle and the dense 0/1 owner matrix cast to complex in each product,
    on the node counts ``nodes`` that the engine chose.

    ``underflow`` marks the entries whose per-circle sums may have met a
    subnormal number: on some circle, the smallest nonzero real or imaginary
    parts of the two columns multiply below the normal floor, or a part of
    the sum itself is subnormal."""
    basis = fns if isinstance(fns, Basis) else Basis.of(fns)
    n = basis.poly.shape[0]
    owner_matrix = (basis.owner[:, None] == np.arange(n)).astype(float)
    centers = basis.centers
    cc = np.array([c for c, _, _ in circles], dtype=complex)
    rr = np.array([rho for _, rho, _ in circles], dtype=float)
    sign = np.array([s for _, _, s in circles], dtype=float)
    dist = np.abs(centers[:, None] - cc[None, :])
    inside = (sign * (dist < rr)).sum(axis=1) > 0
    if np.any(inside):
        raise PolesTooCloseError(f"pole {centers[inside][0]} lies inside the domain")
    ratio = np.minimum(dist, rr) / np.maximum(dist, rr)
    worst = ratio.max(axis=0, initial=0.0)
    if np.any(worst > quadrature.SERIES_MARGIN):
        raise PolesTooCloseError("a pole sits too close to a circle")

    def smallest_part(A):
        # per column, the smallest nonzero magnitude of a real or imaginary part
        parts = np.abs(A.view(float)).reshape(A.shape[0], -1, 2)
        return np.where(parts > 0.0, parts, np.inf).min(axis=(0, 2))

    coarse = np.zeros((n, n), dtype=complex)
    fine = np.zeros((n, n), dtype=complex)
    underflow = np.zeros((n, n), dtype=bool)
    for c, rho, s, N in zip(cc, rr, sign, nodes):
        zeta = np.exp(2j * math.pi * np.arange(2 * N) / (2 * N))
        Phi, F = former_boundary_values(c, rho * zeta, basis, owner_matrix)
        WF = (s * math.pi * rho / (2 * N)) * zeta[:, None] * F
        fine_c = Phi.T @ WF
        coarse_c = Phi[::2].T @ (2.0 * WF[::2])
        with np.errstate(under="ignore"):
            tiny = np.outer(smallest_part(Phi), smallest_part(WF)) < TINY
        for R in (fine_c, coarse_c):
            parts = np.abs(R.view(float)).reshape(n, n, 2)
            tiny |= ((parts > 0.0) & (parts < TINY)).any(axis=2)
        underflow |= tiny
        fine += fine_c
        coarse += coarse_c
    root = np.sqrt(np.maximum(np.abs(np.real(np.diag(fine))), 1e-300))
    scale = root[:, None] * root[None, :]
    info = quadrature.QuadratureInfo(
        nodes=nodes,
        doubling_change=float(np.max(np.abs(fine - coarse) / scale)),
        hermitian_defect=float(np.max(np.abs(fine - fine.conj().T) / scale)),
    )
    return 0.5 * (fine + fine.conj().T), info, underflow


EPS = np.finfo(float).eps


def assert_matches_former(circles, fns):
    """G and QuadratureInfo bit for bit as the former engine gave them; an
    entry where the former engine met subnormal arithmetic may instead move
    by 4 eps sqrt(G_ii G_jj), and the info's ratios by 8 eps."""
    G, info = boundary_gram(circles, fns)
    G0, info0, underflow = former_boundary_gram(circles, fns, info.nodes)
    root = np.sqrt(np.abs(np.real(np.diag(G0))))
    close = np.abs(G - G0) <= 4 * EPS * np.outer(root, root)
    assert np.all((G == G0) | (underflow & close))
    slack = 8 * EPS if underflow.any() else 0.0
    assert abs(info.doubling_change - info0.doubling_change) <= slack
    assert abs(info.hermitian_defect - info0.hermitian_defect) <= slack


@st.composite
def zalcman_domains(draw):
    """h1 and h2 Zalcman domains, K <= 40, halving K
    until the scale recursion stays above its floor."""
    if draw(st.booleans()):
        h, x1 = ScaleFunction.h1(draw(st.floats(1.2, 2.0))), 10.0 ** draw(st.floats(-3.0, -2.0))
    else:
        h, x1 = ScaleFunction.h2(draw(st.floats(0.8, 1.5))), 10.0 ** draw(st.floats(-4.0, -2.5))
    K = draw(st.integers(1, 40))
    while True:
        try:
            return build_zalcman(h, x1, K)
        except ScaleUnderflowError:
            K //= 2
        except NonDisjointError:
            assume(False)


@settings(max_examples=20, deadline=None)
@given(zalcman_domains(), st.integers(0, 8))
@example(build_zalcman(ScaleFunction.h2(1.0), 1e-3, 40), 8)
@example(build_zalcman(ScaleFunction.h1(1.5), 1e-2, 10), 8)
def test_circle_loop_matches_former_engine_on_zalcman_domains(dom, degree):
    assert_matches_former(domain_circles(dom), bergman.default_basis(dom, degree))


@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 0.9), st.integers(0, 8))
def test_circle_loop_matches_former_engine_on_the_annulus(r0, degree):
    dom = CircleDomain.build([(0j, r0)])
    assert_matches_former(domain_circles(dom), bergman.default_basis(dom, degree))


@st.composite
def multi_pole_bases(draw):
    """Bases on TWO_HOLE_REGION drawn from one-pole functions, Cauchy transforms
    on rings inside a hole, their differences (coefficients of both signs),
    polynomials with poles of mixed orders, and monomials."""
    def ring(count):
        c, rho = TWO_HOLES[draw(st.integers(0, 1))]
        t = draw(st.floats(0.0, 2 * math.pi))
        return c + draw(st.floats(0.1, 0.6)) * rho * np.exp(1j * (t + 2 * math.pi * np.arange(count) / count))

    fns = draw(hole_poles())
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(2, 12))
        fns.append(RationalFunction.from_nodes(ring(count), np.linspace(0.05, 0.2, count)))
    if draw(st.booleans()):
        fns.append(fns[-1] - fns[-2])
    count = draw(st.integers(2, 5))
    orders = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    fns.append(RationalFunction(np.array([0.5, -1j]), ring(count), np.array(orders), np.full(count, 0.01)))
    fns += [RationalFunction.monomial(j) for j in range(draw(st.integers(0, 3)))]
    # down to one function, the Gram each norm of ``norms_sq`` is checked against
    return draw(st.permutations(fns))[: draw(st.integers(1, len(fns)))]


@settings(max_examples=40, deadline=None)
@given(multi_pole_bases())
def test_circle_loop_matches_former_engine_on_multi_pole_bases(fns):
    assert_matches_former(TWO_HOLE_REGION.circles(), fns)


# ---------------------------------------------------------------------------
# the derived node counts against rules four times as fine
# ---------------------------------------------------------------------------


def assert_converged(circles, fns):
    """G at the engine's node counts within 1e-13 sqrt(G_ii G_jj) of G with
    every circle's count multiplied by 4."""
    G, info = boundary_gram(circles, fns)
    terms_for = quadrature._terms_for
    with mock.patch.object(quadrature, "_terms_for", lambda ratio, s: 4 * terms_for(ratio, s)):
        fine, fine_info = boundary_gram(circles, fns)
    assert fine_info.nodes == [4 * N for N in info.nodes]
    root = np.sqrt(np.abs(np.real(np.diag(fine))))
    assert np.max(np.abs(G - fine) / np.outer(root, root)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(zalcman_domains(), st.integers(0, 8))
@example(build_zalcman(ScaleFunction.h2(1.0), 1e-3, 40), 8)
@example(build_zalcman(ScaleFunction.h1(1.5), 1e-2, 10), 8)
@example(build_zalcman(ScaleFunction.h1(1.2), 1e-2, 12), 8)
# the nearest poles of this domain sit at ratio 0.74
@example(build_zalcman(ScaleFunction.h1(1.2), 0.0136, 6), 8)
def test_node_count_converged_on_zalcman_domains(dom, degree):
    assert_converged(domain_circles(dom), bergman.default_basis(dom, degree))


@settings(max_examples=15, deadline=None)
@given(st.floats(0.05, 0.9), st.integers(0, 8))
def test_node_count_converged_on_the_annulus(r0, degree):
    # poles of order up to ``degree`` at the center of both circles
    dom = CircleDomain.build([(0j, r0)])
    assert_converged(domain_circles(dom), bergman.default_basis(dom, degree))


@settings(max_examples=40, deadline=None)
@given(multi_pole_bases())
def test_node_count_converged_on_multi_pole_bases(fns):
    assert_converged(TWO_HOLE_REGION.circles(), fns)


@settings(max_examples=25, deadline=None)
@given(hole_poles(low=0.8, high=0.949), st.integers(0, 3))
def test_node_count_converged_near_the_series_margin(fns, degree):
    # poles of orders 1-3 at ratio 0.8-0.949 of their hole's circle, below
    # SERIES_MARGIN after rounding
    fns = fns + [RationalFunction.monomial(j) for j in range(degree + 1)]
    assert_converged(TWO_HOLE_REGION.circles(), fns)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1), st.integers(1, 12), st.floats(0.1, 0.9), st.floats(0.0, 2 * math.pi))
def test_node_count_converged_for_cauchy_transforms(hole, count, reach, t):
    # one Cauchy transform on a ring inside a hole: the one-function Gram
    # that each norm of ``norms_sq`` is checked against
    c, rho = TWO_HOLES[hole]
    ring = c + reach * rho * np.exp(1j * (t + 2 * math.pi * np.arange(count) / count))
    assert_converged(TWO_HOLE_REGION.circles(), [RationalFunction.from_nodes(ring, np.linspace(0.05, 0.2, count))])


# ---------------------------------------------------------------------------
# the norm pass of a sweep's equilibrium witnesses
# ---------------------------------------------------------------------------


def ring_in_a_hole(draw, count):
    """``count`` equispaced nodes on a ring at 0.1-0.6 of a hole's radius."""
    c, rho = TWO_HOLES[draw(st.integers(0, 1))]
    t = draw(st.floats(0.0, 2 * math.pi))
    return c + draw(st.floats(0.1, 0.6)) * rho * np.exp(1j * (t + 2 * math.pi * np.arange(count) / count))


def probability_weights(draw, count, low=0.01):
    w = np.array(draw(st.lists(st.floats(low, 1.0), min_size=count, max_size=count)))
    return w / w.sum()


@st.composite
def cauchy_transforms(draw):
    """Cauchy transforms on rings inside the holes of TWO_HOLE_REGION, with
    complex weights of one phase each, and a difference f11 - f2 of two of
    them, as an equilibrium witness is, whose nodes overlap: f2 repeats some
    of f11's nodes and adds others."""
    fns = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.integers(2, 16))
        phase = np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        fns.append(RationalFunction.from_nodes(ring_in_a_hole(draw, count), phase * probability_weights(draw, count)))
    count, extra = draw(st.integers(2, 16)), draw(st.integers(1, 8))
    nodes = ring_in_a_hole(draw, count)
    shared = nodes[: draw(st.integers(1, count))]
    f2_nodes = np.concatenate([shared, ring_in_a_hole(draw, extra)])
    f11 = RationalFunction.from_nodes(nodes, probability_weights(draw, count))
    fns.append(f11 - RationalFunction.from_nodes(f2_nodes, probability_weights(draw, f2_nodes.size, low=0.1)))
    return draw(st.permutations(fns))


def assert_norms_match_each_gram(circles, fns):
    """Every norm within 1e-13 relative of its function's own Gram, on at
    least the nodes that Gram takes on every circle."""
    got, info = norms_sq(circles, fns)
    for norm, f in zip(got, fns):
        G, own = boundary_gram(circles, [f])
        assert abs(norm - G[0, 0].real) <= 1e-13 * G[0, 0].real
        assert all(N >= n for N, n in zip(info.nodes, own.nodes))
    assert info.doubling_change <= quadrature.DOUBLING_TOL


@settings(max_examples=40, deadline=None)
@given(cauchy_transforms())
def test_norms_match_each_gram_on_cauchy_transforms(fns):
    assert_norms_match_each_gram(TWO_HOLE_REGION.circles(), fns)


def mid_band(dom, k: int) -> complex:
    return complex(-math.sqrt(float(dom.xs[k - 1] * dom.xs[k])))


#: the kernel domains of ROADMAP's witness table, with their witness bands
WITNESS_SWEEPS = [
    (build_zalcman(ScaleFunction.h1(1.5), 1e-2, 10), range(2, 9)),
    (build_zalcman(ScaleFunction.h1(1.2), 1e-2, 12), range(3, 11)),
    (build_zalcman(ScaleFunction.h2(1.0), 1e-3, 40), (3, 4, 12, 24, 35)),
]


def sweep_witnesses(dom, ks) -> list[RationalFunction]:
    return [bergman._equilibrium_witness(dom, mid_band(dom, k))[1] for k in ks]


@pytest.mark.parametrize("dom, ks", WITNESS_SWEEPS, ids=["h1(1.5)", "h1(1.2)", "h2(1)"])
def test_norms_match_each_gram_on_sweep_witnesses(dom, ks):
    assert_norms_match_each_gram(domain_circles(dom), sweep_witnesses(dom, ks))


def assert_norms_converged(circles, fns):
    """The norms within 1e-13 relative of the norms with every circle's
    node count multiplied by 4."""
    got, info = norms_sq(circles, fns)
    terms_for = quadrature._terms_for
    with mock.patch.object(quadrature, "_terms_for", lambda ratio, s: 4 * terms_for(ratio, s)):
        fine, fine_info = norms_sq(circles, fns)
    assert fine_info.nodes == [4 * N for N in info.nodes]
    assert np.all(np.abs(got - fine) <= 1e-13 * fine)


@settings(max_examples=25, deadline=None)
@given(cauchy_transforms())
def test_norms_converged_on_cauchy_transforms(fns):
    assert_norms_converged(TWO_HOLE_REGION.circles(), fns)


@pytest.mark.parametrize("dom, ks", WITNESS_SWEEPS[:2], ids=["h1(1.5)", "h1(1.2)"])
def test_norms_converged_on_sweep_witnesses(dom, ks):
    assert_norms_converged(domain_circles(dom), sweep_witnesses(dom, ks))


@pytest.mark.parametrize("where", ["past the series margin", "inside the domain", "not a number"])
def test_a_witness_failing_a_pole_check_reads_nan_alone(where):
    dom, ks = WITNESS_SWEEPS[0]
    circles, fns = domain_circles(dom), sweep_witnesses(dom, ks)
    # one pole of band 4's witness moved: to ratio 0.97 of hole 4's circle,
    # into the domain, or to NaN
    x, r = float(dom.xs[3]), float(dom.rs[3])
    moved = {"past the series margin": x + 0.97 * r, "inside the domain": -0.5, "not a number": math.nan}[where]
    f = fns[2]
    bad = RationalFunction(pole_centers=np.append(f.pole_centers[1:], moved), pole_orders=f.pole_orders,
                           pole_coeffs=np.append(f.pole_coeffs[1:], f.pole_coeffs[0]))
    with pytest.raises(PolesTooCloseError):
        boundary_gram(circles, [bad])
    got, info = norms_sq(circles, fns[:2] + [bad] + fns[3:])
    assert math.isnan(got[2])
    # the others are what they are without it, on the same nodes, to
    # rounding, and keep the bound
    others, others_info = norms_sq(circles, fns[:2] + fns[3:])
    assert np.allclose(np.delete(got, 2), others, rtol=1e-15, atol=0) and info.nodes == others_info.nodes
    assert_norms_match_each_gram(circles, fns[:2] + fns[3:])


def test_a_norm_failing_the_doubling_check_reads_nan_alone(monkeypatch):
    dom, ks = WITNESS_SWEEPS[1]
    circles, fns = domain_circles(dom), sweep_witnesses(dom, ks)
    norms, info = norms_sq(circles, fns)
    # a tolerance just below the largest change fails that norm on its own
    # scale, and no other
    monkeypatch.setattr(quadrature, "DOUBLING_TOL", 0.999 * info.doubling_change)
    got, tight = norms_sq(circles, fns)
    failed = np.isnan(got)
    assert 1 <= failed.sum() < len(fns)
    assert np.array_equal(got[~failed], norms[~failed])
    assert tight.nodes == info.nodes and tight.doubling_change < info.doubling_change


def test_norms_take_sums_of_simple_poles_only():
    circles = TWO_HOLE_REGION.circles()
    pole = RationalFunction.pole(TWO_HOLES[0][0], 1)
    for fns in ([pole, RationalFunction.pole(TWO_HOLES[0][0], 2)], [pole, RationalFunction.monomial(1) - pole], []):
        with pytest.raises(PreconditionViolatedError):
            norms_sq(circles, fns)


#: collar 9 of the h1 metric domain at the gram workload's seed 2
DEEP_COLLAR = PolarRegion(
    0j, 2.4184548242686697e-78, 3.07803341270558e-78, ((complex(2.7482441184871245e-78), 3.297892942184549e-79),)
)


def test_deep_collar_moments_match_closed_forms():
    # the collar's second moment is subnormal, and the former engine's
    # subnormal products left it 1.75e-12 off the closed form
    r_in, r_out = DEEP_COLLAR.r_in, DEEP_COLLAR.r_out
    ((c, rho),) = DEEP_COLLAR.holes
    c = c.real
    G, _ = boundary_gram(DEEP_COLLAR.circles(), [RationalFunction.monomial(0), RationalFunction.monomial(1)])
    # the closed forms in units of 2**-259, scaled back with one rounding
    R, r, d, p = (math.ldexp(v, 259) for v in (r_out, r_in, c, rho))
    area = math.ldexp(math.pi * (R**2 - r**2 - p**2), -518)
    moment2 = math.ldexp(math.pi / 2 * (R**4 - r**4) - math.pi * p**2 * (d**2 + p**2 / 2), -1036)
    assert moment2 < np.finfo(float).tiny
    assert G[0, 0].real == pytest.approx(area, rel=1e-13)
    assert G[1, 1].real == pytest.approx(moment2, rel=1e-13)


def corrupt_one_coarse_sum(monkeypatch, call, entry, rel):
    """Make the ``call``-th circle's N-point sum of Gram ``entry`` (and its
    mirror) off by ``rel`` relative."""
    sums, calls = quadrature._circle_sums, []

    def corrupted(Phi, WF):
        fine, coarse, diag, unit = sums(Phi, WF)
        if len(calls) == call:
            coarse[entry] *= 1.0 + rel
            coarse[entry[::-1]] *= 1.0 + rel
        calls.append(call)
        return fine, coarse, diag, unit

    monkeypatch.setattr(quadrature, "_circle_sums", corrupted)


def test_doubling_check_sees_subnormal_and_underflowed_norms(monkeypatch):
    # on the deep collar, G_11 of z is subnormal and G_22 of z^2 underflows
    # to 0; the check judged both on the floored scale sqrt(1e-300), where
    # these corruptions moved its ratio by about 1e-16 and not at all
    fns = [RationalFunction.monomial(j) for j in range(3)]
    G, info = boundary_gram(DEEP_COLLAR.circles(), fns)
    assert 0.0 < G[1, 1].real < np.finfo(float).tiny and G[2, 2] == 0.0
    assert info.doubling_change <= 1e-13 and info.hermitian_defect <= 1e-13
    # the outer circle's sum of the z entry, 1e-6 off
    corrupt_one_coarse_sum(monkeypatch, 0, (1, 1), 1e-6)
    with pytest.raises(QuadratureStallError):
        boundary_gram(DEEP_COLLAR.circles(), fns)
    # the hole's sum of the (1, z^2) entry, 1e-3 off: 3e-5 on the scale
    # sqrt(G_00 G_22)
    monkeypatch.undo()
    corrupt_one_coarse_sum(monkeypatch, 2, (0, 2), 1e-3)
    with pytest.raises(QuadratureStallError):
        boundary_gram(DEEP_COLLAR.circles(), fns)


def test_zero_function_passes_the_doubling_check():
    G, info = boundary_gram(DEEP_COLLAR.circles(), [RationalFunction(), RationalFunction.monomial(0)])
    assert np.all(G[0] == 0.0) and G[1, 1].real > 0.0
    assert info.doubling_change <= 1e-13 and info.hermitian_defect <= 1e-13


def scaled_matrix(rng, rows, cols, low, high):
    """A complex matrix whose parts have random signs, mantissas in [0.5, 1)
    and binary exponents in [low, high]."""
    size = 2 * rows * cols
    parts = rng.choice([-1.0, 1.0], size) * np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(low, high + 1, size))
    return parts.view(complex).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_circle_sums_are_the_plain_products_bit_for_bit(half, m, n, seed):
    rng = np.random.default_rng(seed)
    A, B = scaled_matrix(rng, 2 * half, m, -300, 300), scaled_matrix(rng, 2 * half, n, -300, 300)
    fine, coarse, _, _ = quadrature._circle_sums(A.copy(), B.copy())
    assert np.array_equal(fine, A.T @ B)
    assert np.array_equal(coarse, A[::2].T @ (2.0 * B[::2]))


def exact_products(A, B):
    """A.T @ B and A[::2].T @ (2 B[::2]) in exact rational arithmetic, each
    entry rounded once."""
    from fractions import Fraction

    def dot(a, b):
        re = sum(Fraction(x.real) * Fraction(y.real) - Fraction(x.imag) * Fraction(y.imag) for x, y in zip(a, b))
        im = sum(Fraction(x.real) * Fraction(y.imag) + Fraction(x.imag) * Fraction(y.real) for x, y in zip(a, b))
        return complex(float(re), float(im))

    fine = np.array([[dot(A[:, i], B[:, j]) for j in range(B.shape[1])] for i in range(A.shape[1])])
    coarse = np.array([[2 * dot(A[::2, i], B[::2, j]) for j in range(B.shape[1])] for i in range(A.shape[1])])
    return fine, coarse


def zero_subnormal_huge_columns(rng, rows):
    """A's column 0 is zero, column 1 has a subnormal maximum, whose scaling
    exponent must be clipped to stay a normal power of two, and column 2 a
    maximum near 2**1010; B's columns are tiny, moderate and tiny."""
    A = np.column_stack([
        np.zeros(rows, dtype=complex),
        scaled_matrix(rng, rows, 1, -1074, -1040)[:, 0],
        scaled_matrix(rng, rows, 1, 990, 1010)[:, 0],
    ])
    B = np.column_stack([
        scaled_matrix(rng, rows, 1, -1040, -1022)[:, 0],
        scaled_matrix(rng, rows, 1, -40, 0)[:, 0],
        scaled_matrix(rng, rows, 1, -1060, -1000)[:, 0],
    ])
    return A, B


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_circle_sums_on_zero_subnormal_and_huge_columns(half, seed):
    # the results are compared with exact sums, to a dot product's rounding
    # error plus a few subnormal units
    rows = 2 * half
    A, B = zero_subnormal_huge_columns(np.random.default_rng(seed), rows)
    fine, coarse, _, _ = quadrature._circle_sums(A.copy(), B.copy())
    want_fine, want_coarse = exact_products(A, B)
    bound = (2 * rows + 4) * EPS * (np.abs(A).T @ np.abs(B)) + 4 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(fine - want_fine) <= bound)
    assert np.all(np.abs(coarse - want_coarse) <= 2 * bound)
    assert np.all(fine[0] == 0) and np.all(coarse[0] == 0)


def former_circle_sums(Phi, WF):
    """``_circle_sums``' two sums as they were scaled back before: by one
    exponent per complex entry, broadcast over its real and imaginary part."""
    a, b = quadrature._equilibrate(Phi), quadrature._equilibrate(WF)
    shift = -(a[:, None] + b[None, :])[..., None]
    even = WF[::2] if WF.shape[1] > 1 else WF[::2].copy()
    sums = Phi.T @ WF, Phi[::2].T @ even
    for R, e in zip(sums, (shift, shift + 1)):
        parts = R.view(float).reshape(R.shape + (2,))
        np.ldexp(parts, e, out=parts)
    return sums


def test_circle_sums_keep_the_broadcast_exponents_bits():
    # one exponent per real and imaginary part gives the bits of one per
    # complex entry, on scaled-back entries that are zero, subnormal and normal
    seen = np.zeros(3, dtype=bool)
    rng = np.random.default_rng(19)
    for half in (1, 2, 3, 6) * 5:
        A, B = zero_subnormal_huge_columns(rng, 2 * half)
        got = quadrature._circle_sums(A.copy(), B.copy())[:2]
        for R, want in zip(got, former_circle_sums(A.copy(), B.copy())):
            assert np.array_equal(R.view(np.int64), want.view(np.int64))
            parts, tiny = np.abs(R.view(float)), np.finfo(float).tiny
            seen |= [np.any(parts == 0.0), np.any((parts > 0.0) & (parts < tiny)), np.any(parts >= tiny)]
    assert np.all(seen)


def test_empty_basis_raises():
    circles = domain_circles(CircleDomain.build())
    with pytest.raises(BerglabError):
        boundary_gram(circles, [])
    with pytest.raises(BerglabError):
        Basis.of([])


def test_nan_pole_raises():
    circles = domain_circles(CircleDomain.build([(0.5 + 0j, 0.1)]))
    with pytest.raises(PolesTooCloseError):
        boundary_gram(circles, [RationalFunction.pole(complex(math.nan, 0.0), 1)])
    with pytest.raises(PolesTooCloseError):
        boundary_gram(circles, [RationalFunction.monomial(1), RationalFunction.pole(complex(0.5, math.nan), 2)])
