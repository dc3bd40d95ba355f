import math

import numpy as np
import pytest

from berglab.domains import CircleDomain, ScaleFunction, build_zalcman
from berglab.errors import PolesTooCloseError
from berglab.quadrature import (
    AnnulusRegion,
    PolarRegion,
    RationalFunction,
    generic_partition,
    integrate_hermitian,
    mc_integral,
    partition_area,
    partition_for,
    reference_partition,
)


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
    part = reference_partition(CircleDomain.build())
    basis = [RationalFunction.monomial(j) for j in range(4)]
    G, _ = integrate_hermitian(part, basis)
    expected = np.diag([math.pi / (j + 1) for j in range(4)])
    assert np.allclose(G, expected, atol=1e-12)


def test_annulus_laurent_norms():
    part = reference_partition(CircleDomain.build(inner_radius=0.5))
    basis = [RationalFunction.pole(0j, 1), RationalFunction.monomial(0)]
    G, _ = integrate_hermitian(part, basis)
    assert G[0, 0].real == pytest.approx(2 * math.pi * math.log(2.0), rel=1e-12)
    assert G[1, 1].real == pytest.approx(math.pi * (1 - 0.25), rel=1e-12)
    assert abs(G[0, 1]) < 1e-12  # rotational orthogonality


def test_pole_pair_kernels_against_polar_quadrature():
    # same annulus, offset poles: closed form vs brute numeric integration
    reg = AnnulusRegion(0j, 0.2, 1.0)
    d1, d2 = 0.05 + 0.02j, -0.03 + 0.04j
    fns = [
        RationalFunction.pole(d1, 1),
        RationalFunction.pole(d2, 2),
        RationalFunction.pole(d1, 2),
    ]
    G = reg.gram(fns)
    num = PolarRegion(0j, 0.2, 1.0, ()).gram(fns, level=2)
    assert np.allclose(G, num, rtol=2e-6, atol=1e-8)


def test_mixed_pole_poly_entries_match_numeric():
    reg = AnnulusRegion(0j, 0.3, 0.9)
    fns = [
        RationalFunction.monomial(2),
        RationalFunction.pole(0.05 + 0.01j, 1),
        RationalFunction.pole(1.5 + 0.2j, 1),  # outer pole: regular part
    ]
    G = reg.gram(fns)
    num = PolarRegion(0j, 0.3, 0.9, ()).gram(fns, level=2)
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
    assert info.regions_numeric == 3


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


def test_generic_partition_two_holes():
    part = generic_partition(0.25, [(-0.1 + 0j, 0.01), (0.1 + 0j, 0.01)])
    area = partition_area(part)
    assert area == pytest.approx(math.pi * (0.25**2 - 2 * 0.01**2), rel=1e-12)
    one = [RationalFunction.monomial(0)]
    G, _ = integrate_hermitian(part, one)
    assert G[0, 0].real == pytest.approx(area, rel=1e-6)


def test_pole_hugging_raises():
    reg = AnnulusRegion(0j, 0.1, 0.5)
    with pytest.raises(PolesTooCloseError):
        reg.gram([RationalFunction.pole(0.099 + 0j, 1)])
    with pytest.raises(PolesTooCloseError):
        reg.gram([RationalFunction.pole(0.51 + 0j, 1)])
