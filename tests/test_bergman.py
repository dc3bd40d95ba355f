import math

import numpy as np
import pytest

from basis_oracle import spec_functions
from berglab.bergman import (
    POLE_ORDER,
    assemble_gram,
    band_increments,
    cauchy_transform_norm_check,
    default_basis,
    distance_profile,
    equilibrium_witness_bound,
    subspace_kernel,
    subspace_metric,
    witness_kernel_bound,
    witness_metric_bound,
)
from berglab.domains import CircleDomain, ScaleFunction, ZalcmanDomain, build_zalcman
from berglab.errors import OutsideDomainError, ScaleNotRetainedError


@pytest.fixture(scope="module")
def disk_gram():
    return assemble_gram(CircleDomain.build(), spec_functions(degree=8))


@pytest.fixture(scope="module")
def h15_domain():
    return build_zalcman(ScaleFunction.h1(1.5), 0.01, K=10)


@pytest.fixture(scope="module")
def h15_gram(h15_domain):
    return assemble_gram(h15_domain, default_basis(h15_domain))


# ---------------------------------------------------------------------------
# reference-domain closed forms
# ---------------------------------------------------------------------------


def test_disk_kernel_center(disk_gram):
    est = subspace_kernel(disk_gram, 0j)
    assert est.K_low == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert est.certified


def test_disk_kernel_half(disk_gram):
    target = 1.0 / (math.pi * (1 - 0.25) ** 2)
    est = subspace_kernel(disk_gram, 0.5 + 0j)
    assert est.K_low == pytest.approx(target, rel=5e-3)
    assert est.K_low <= target * (1 + 1e-9)  # subspace never exceeds truth


def test_disk_metric_center(disk_gram):
    est = subspace_metric(disk_gram, 0j)
    assert est.b_est == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert est.S_low == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-10)


def test_disk_metric_half():
    gs = assemble_gram(CircleDomain.build(), spec_functions(degree=10))
    est = subspace_metric(gs, 0.5 + 0j)
    assert est.b_est == pytest.approx(math.sqrt(2.0) / 0.75, rel=0.01)


def test_annulus_kernel_vs_laurent_oracle():
    dom = CircleDomain.build(inner_radius=0.5)
    gs = assemble_gram(dom, spec_functions(degree=8, pole_centers=(0j,), pole_order=8))
    w = 0.7 + 0j
    est = subspace_kernel(gs, w)
    # oracle at matched truncation |n| <= 8: sum |w|^(2n) / ||z^n||^2
    oracle = 0.0
    for n in range(-8, 9):
        if n == -1:
            nrm = 2 * math.pi * math.log(2.0)
        else:
            nrm = 2 * math.pi * (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2)
        oracle += abs(w) ** (2 * n) / nrm
    assert est.K_low == pytest.approx(oracle, rel=0.02)
    assert est.K_low == pytest.approx(oracle, rel=1e-6)  # matched bases agree tightly


def former_default_basis(domain, degree):
    """``default_basis`` as it was stated through the former ``BasisSpec``."""
    if isinstance(domain, ZalcmanDomain):
        n = domain.K if domain.variant == "superset" else domain.K + 1
        centers = tuple(complex(x) for x in domain.xs[:n])
        scales = tuple(float(r) for r in domain.rs[:n])
        if domain.variant == "sandwich":
            centers, scales = centers + (0j,), scales + (float(domain.inner_radius),)
        return spec_functions(degree, centers, POLE_ORDER, scales)
    if domain.inner_radius is not None:
        return spec_functions(degree, (0j,), degree)
    return spec_functions(degree, (), POLE_ORDER)


@pytest.mark.parametrize(
    "domain",
    [
        build_zalcman(ScaleFunction.h1(1.5), 0.01, K=10),
        build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=12, variant="sandwich"),
        CircleDomain.build(),
        CircleDomain.build(inner_radius=0.5),
    ],
    ids=["zalcman-superset", "zalcman-sandwich", "disk", "annulus"],
)
@pytest.mark.parametrize("degree", [0, 3, 8])
def test_default_basis_matches_former_spec(domain, degree):
    got, want = default_basis(domain, degree), former_default_basis(domain, degree)
    assert len(got) == len(want)
    for f, g in zip(got, want):
        for attr in ("poly", "pole_centers", "pole_orders", "pole_coeffs"):
            a, b = getattr(f, attr), getattr(g, attr)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_outside_domain_guard(disk_gram):
    with pytest.raises(OutsideDomainError):
        subspace_kernel(disk_gram, 1.5 + 0j)


# ---------------------------------------------------------------------------
# monotonicity invariants
# ---------------------------------------------------------------------------


def test_basis_monotonicity(h15_domain):
    small = assemble_gram(h15_domain, spec_functions(degree=4, pole_centers=tuple(h15_domain.xs[:10]), pole_order=1))
    big = assemble_gram(h15_domain, spec_functions(degree=8, pole_centers=tuple(h15_domain.xs[:10]), pole_order=2))
    for x in (0.3, 0.05, 0.003):
        k_small = subspace_kernel(small, complex(-x)).K_low
        k_big = subspace_kernel(big, complex(-x)).K_low
        assert k_big >= k_small * (1 - 1e-3)


def test_domain_monotonicity_superset_vs_sandwich():
    h = ScaleFunction.h1(1.5)
    sup = build_zalcman(h, 0.01, K=6, variant="superset")
    sand = build_zalcman(h, 0.01, K=6, variant="sandwich")
    fns = spec_functions(degree=6, pole_centers=tuple(sup.xs[:6]), pole_order=2)
    gs_sup = assemble_gram(sup, fns)
    gs_sand = assemble_gram(sand, fns)
    for x in (0.3, 0.05, 0.004):
        k_sup = subspace_kernel(gs_sup, complex(-x)).K_low
        k_sand = subspace_kernel(gs_sand, complex(-x)).K_low
        assert k_sup <= k_sand * (1 + 1e-3)


# ---------------------------------------------------------------------------
# explicit witnesses
# ---------------------------------------------------------------------------


def test_witness_kernel_bound_hand_value():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    rep = witness_kernel_bound(dom, 0.05)
    assert rep["k"] == 1
    assert rep["witness_value_sq"] == pytest.approx(1.0 / 0.06**2, rel=1e-12)
    assert rep["norm_bound"] == pytest.approx(2 * math.pi * math.log(2.0 / 1e-4), rel=1e-12)
    assert rep["value"] == pytest.approx(4.465, abs=0.01)


def test_witness_below_subspace(h15_domain, h15_gram):
    for k in (2, 3, 4):
        x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
        wit = witness_kernel_bound(h15_domain, x)["value"]
        sub = subspace_kernel(h15_gram, complex(-x)).K_low
        assert wit <= sub * 1.1


def test_witness_band_stability_h1():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    ratios = []
    for k in range(1, 4):
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        v = witness_kernel_bound(dom, x)["value"]
        ratios.append(v * x * x * math.log(1.0 / x))
    assert max(ratios) / min(ratios) < 10.0


def test_two_pole_witness_hand_derivative():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    rep = witness_metric_bound(dom, complex(-0.05), "two_pole")
    assert rep["fprime"] == pytest.approx(0.09 / (0.06 * 0.15**2), rel=1e-12)
    assert rep["zero_residual"] <= 1e-10
    assert rep["ratio"] > 0


def test_two_pole_derivative_matches_the_product_formula():
    # the former formula, one product in the denominator: it underflows to
    # 0 at deep scales, but at shallow ones it is the oracle
    dom = build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=24)
    for k in range(1, 21):
        xk, xk1 = complex(dom.xs[k - 1]), complex(dom.xs[k])
        w = complex(-math.sqrt(float(dom.xs[k - 1] * dom.xs[k])))
        want = abs(xk - xk1) / (abs(w - xk1) * abs(w - xk) ** 2)
        assert witness_metric_bound(dom, w, "two_pole")["fprime"] == pytest.approx(want, rel=1e-15, abs=0)


def test_three_pole_witness_h2():
    dom = build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=12)
    for k in (3, 5, 7):
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        rep = witness_metric_bound(dom, complex(-x), "three_pole")
        assert rep["zero_residual"] <= 1e-10
        assert rep["a_k_abs"] <= 10.0
        L = math.log(1.0 / float(dom.xs[k - 1]))
        assert rep["norm_sq"] <= 50.0 * math.log(L)


def test_scale_guard():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    with pytest.raises(ScaleNotRetainedError):
        witness_kernel_bound(dom, 0.5)


def test_metric_band_consistency(h15_domain, h15_gram):
    vals = []
    for k in range(2, 7):
        x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
        est = subspace_metric(h15_gram, complex(-x))
        vals.append(est.b_est * float(h15_domain.xs[k - 1]))
    assert all(0.05 <= v <= 20.0 for v in vals)


# ---------------------------------------------------------------------------
# equilibrium witness
# ---------------------------------------------------------------------------


def test_equilibrium_witness_structure(h15_domain):
    k = 4
    x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
    rep = equilibrium_witness_bound(h15_domain, complex(-x))
    assert rep["delta"] == pytest.approx(x, rel=1e-12)  # origin is nearest
    assert abs(rep["w_second"]) >= 8 * rep["delta"] - 1e-15
    assert rep["f11_w_abs"] >= rep["facing_floor"] * 0.9
    assert rep["f2_w_abs"] <= rep["second_ceiling"] * 1.1
    # chosen sector dominates: log(1/cap(E11)) <= 3 log(1/cap(E1)) * 1.05
    assert math.log(1 / rep["cap_E11"]) <= 3.0 * math.log(1 / rep["cap_E1"]) * 1.05
    assert rep["bound"] > 0


def test_equilibrium_vs_one_pole_witness(h15_domain):
    for k in (3, 5):
        x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
        eq = equilibrium_witness_bound(h15_domain, complex(-x))["bound"]
        wit = witness_kernel_bound(h15_domain, x)["value"]
        assert eq <= 50.0 * wit and wit <= 50.0 * eq


# ---------------------------------------------------------------------------
# Cauchy-transform norm lemma
# ---------------------------------------------------------------------------


def test_norm_lemma_single_disk():
    rep = cauchy_transform_norm_check([(0j, 0.1)])
    # transform of the disk measure is 1/w outside; mass over the shell
    # 0.1 < |w| < 0.25 is 2 pi log 2.5
    assert rep["lhs"] == pytest.approx(2 * math.pi * math.log(2.5), rel=0.02)
    assert rep["rhs"] == pytest.approx(math.log(10.0), rel=0.02)
    assert rep["dilatation_error"] <= 1e-6


def test_norm_lemma_two_disks_uniform_constant():
    single = cauchy_transform_norm_check([(0j, 0.1)])
    double = cauchy_transform_norm_check([(-0.1 + 0j, 0.01), (0.1 + 0j, 0.01)])
    assert double["ratio"] <= 20.0 * single["ratio"]
    assert double["ratio"] >= single["ratio"] / 20.0


# ---------------------------------------------------------------------------
# distance profile
# ---------------------------------------------------------------------------


def test_distance_profile_smoke(h15_domain, h15_gram):
    rows = distance_profile(h15_domain, k_range=(2, 3, 4), per_band=6, gram=h15_gram)
    d = [r["d_est"] for r in rows]
    assert all(b >= a for a, b in zip(d, d[1:]))  # cumulative length grows
    incr = band_increments(rows)
    assert set(incr) <= {2, 3, 4}
    assert all(v >= 0 for v in incr.values())


def test_disk_distance_matches_arctanh_oracle():
    # Bergman length along [0, x] in the unit disk is sqrt(2) * atanh(x);
    # trapezoid of b_est over a fine grid must track it for x <= 0.85
    gs = assemble_gram(CircleDomain.build(), spec_functions(degree=24))
    xs = np.linspace(0.0, 0.85, 35)
    b = np.array([bergman_metric_b(gs, x) for x in xs])
    d = np.concatenate([[0.0], np.cumsum(0.5 * (b[1:] + b[:-1]) * np.diff(xs))])
    oracle = math.sqrt(2.0) * np.arctanh(xs)
    assert np.all(np.diff(d) > 0)
    assert np.max(np.abs(d[1:] - oracle[1:])) <= 0.02 * oracle[-1]


def bergman_metric_b(gs, x: float) -> float:
    return subspace_metric(gs, complex(x)).b_est


# ---------------------------------------------------------------------------
# outputs against the polar-collar quadrature the boundary rule replaced
# ---------------------------------------------------------------------------

#: values written by the collar quadrature on h1(1.5), x1 = 1e-2, K = 10, at
#: the mid-band points of bands k; its refinement stopped at a change of a
#: few 1e-6 of the diagonal scale, so agreement is bounded by that
GOLDEN_B_EST = {2: 1080.0758009475965, 4: 7398415.5833405545, 6: 2068438292693806.8}
GOLDEN_WITNESS_RATIO = {2: 459275.8758608851, 4: 121304209113251.33, 6: 8.179930825519798e32}
GOLDEN_EQUILIBRIUM_BOUND = {3: 1422797478.8381326, 5: 9.253571085267632e22, 7: 1.8085224530497728e54}


def test_metric_and_witnesses_match_golden_values(h15_domain, h15_gram):
    def mid(k):
        return complex(-math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k])))

    for k, want in GOLDEN_B_EST.items():
        assert subspace_metric(h15_gram, mid(k)).b_est == pytest.approx(want, rel=1e-6)
    for k, want in GOLDEN_WITNESS_RATIO.items():
        assert witness_metric_bound(h15_domain, mid(k))["ratio"] == pytest.approx(want, rel=1e-5)
    for k, want in GOLDEN_EQUILIBRIUM_BOUND.items():
        assert equilibrium_witness_bound(h15_domain, mid(k))["bound"] == pytest.approx(want, rel=1e-5)
