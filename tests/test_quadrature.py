import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basis_oracle import spec_functions
from berglab import bergman, quadrature
from berglab.domains import CircleDomain, ScaleFunction, build_zalcman
from berglab.errors import PolesTooCloseError, QuadratureStallError
from berglab.quadrature import (
    AnnulusRegion,
    Basis,
    PolarRegion,
    RationalFunction,
    boundary_gram,
    domain_circles,
    integrate_hermitian,
    mc_integral,
    partition_area,
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
    G, _ = boundary_gram(domain_circles(CircleDomain.build(inner_radius=0.5)), basis)
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


def test_partition_area_zalcman():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=6)
    part = partition_for(dom)
    exact = math.pi * (1.0 - float(np.sum(dom.radii**2)))
    assert partition_area(part) == pytest.approx(exact, rel=1e-12)


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
    dom = CircleDomain.build([(-0.1 + 0j, 0.01), (0.1 + 0j, 0.01)], outer_radius=0.25)
    G, _ = boundary_gram(domain_circles(dom), [RationalFunction.monomial(0)])
    assert G[0, 0].real == pytest.approx(math.pi * (0.25**2 - 2 * 0.01**2), rel=1e-14)


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
    ann = CircleDomain.build(inner_radius=0.5)
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
        assert bergman.subspace_kernel(gs, complex(-x)).K_low == pytest.approx(want, rel=1e-6)


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
def hole_poles(draw):
    """Off-centre poles of orders 1-3 inside the holes, scaled by the
    hole radius so each function has an O(1) norm."""
    fns = []
    for _ in range(draw(st.integers(1, 3))):
        c, rho = TWO_HOLES[draw(st.integers(0, 1))]
        offset = draw(st.floats(0.0, 0.6)) * rho * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
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
