import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bound_oracle
from basis_oracle import spec_functions
from berglab import bergman
from berglab.bergman import (
    POLE_ORDER,
    assemble_gram,
    band_increments,
    band_index,
    default_basis,
    distance_profile,
    equilibrium_witness_bound,
    subspace_kernel,
    subspace_metric,
    witness_kernel_bound,
    witness_metric_bound,
)
from berglab.domains import CircleDomain, ScaleFunction, ZalcmanDomain, build_zalcman
from berglab.errors import (
    BerglabError,
    NoSecondPointError,
    OutsideDomainError,
    PreconditionViolatedError,
    ScaleNotRetainedError,
)
from berglab.quadrature import RationalFunction
from claim_checks import cauchy_transform_norm_check
from witness_oracle import oracle_ratios, three_pole, two_pole


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
    assert subspace_kernel(disk_gram, 0j) == pytest.approx(1.0 / math.pi, rel=1e-10)


def test_disk_kernel_half(disk_gram):
    target = 1.0 / (math.pi * (1 - 0.25) ** 2)
    K = subspace_kernel(disk_gram, 0.5 + 0j)
    assert K == pytest.approx(target, rel=5e-3)
    assert K <= target * (1 + 1e-9)  # subspace never exceeds truth


def test_disk_metric_center(disk_gram):
    est = subspace_metric(disk_gram, 0j)
    assert est.b_est == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert est.S_low == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-10)


def test_disk_metric_half():
    gs = assemble_gram(CircleDomain.build(), spec_functions(degree=10))
    est = subspace_metric(gs, 0.5 + 0j)
    assert est.b_est == pytest.approx(math.sqrt(2.0) / 0.75, rel=0.01)


def test_annulus_kernel_vs_laurent_oracle():
    dom = CircleDomain.build([(0j, 0.5)])
    gs = assemble_gram(dom, spec_functions(degree=8, pole_centers=(0j,), pole_order=8))
    w = 0.7 + 0j
    K = subspace_kernel(gs, w)
    # oracle at matched truncation |n| <= 8: sum |w|^(2n) / ||z^n||^2
    oracle = 0.0
    for n in range(-8, 9):
        if n == -1:
            nrm = 2 * math.pi * math.log(2.0)
        else:
            nrm = 2 * math.pi * (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2)
        oracle += abs(w) ** (2 * n) / nrm
    assert K == pytest.approx(oracle, rel=0.02)
    assert K == pytest.approx(oracle, rel=1e-6)  # matched bases agree tightly


def former_default_basis(domain, degree):
    """``default_basis`` as it was stated through the former ``BasisSpec``."""
    if isinstance(domain, ZalcmanDomain):
        centers = tuple(complex(x) for x in domain.xs[: domain.K])
        scales = tuple(float(r) for r in domain.rs[: domain.K])
        return spec_functions(degree, centers, POLE_ORDER, scales)
    if domain.centers.tolist() == [0j]:  # the annulus 1/2 < |z| < 1
        return spec_functions(degree, (0j,), degree)
    return spec_functions(degree, (), POLE_ORDER)


@pytest.mark.parametrize(
    "domain",
    [
        build_zalcman(ScaleFunction.h1(1.5), 0.01, K=10),
        CircleDomain.build(),
        CircleDomain.build([(0j, 0.5)]),
        CircleDomain.build([(0.3 + 0j, 0.1)]),
    ],
    ids=["zalcman-superset", "disk", "annulus", "hole-off-origin"],
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
        k_small = subspace_kernel(small, complex(-x))
        k_big = subspace_kernel(big, complex(-x))
        assert k_big >= k_small * (1 - 1e-3)


# ---------------------------------------------------------------------------
# explicit witnesses
# ---------------------------------------------------------------------------


def test_witness_kernel_bound_hand_value():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    # band 1: the pole at x_2 = 0.01, whose hole has radius r_2 = x_3 = 1e-4
    assert band_index(dom, 0.05) == 1
    want = (1.0 / 0.06**2) / (2 * math.pi * math.log(2.0 / 1e-4))
    assert witness_kernel_bound(dom, 0.05) == pytest.approx(want, rel=1e-12)
    assert witness_kernel_bound(dom, 0.05) == pytest.approx(4.465, abs=0.01)


def test_witness_below_subspace(h15_domain, h15_gram):
    for k in (2, 3, 4):
        x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
        wit = witness_kernel_bound(h15_domain, x)
        sub = subspace_kernel(h15_gram, complex(-x))
        assert wit <= sub * 1.1


@st.composite
def band_samples(draw):
    """(domain, x values): a drawn h1 or h2 domain with K <= 40 and values
    strictly inside drawn retained bands, down to 1e-150, where the one-pole
    bound's 1/x^2 still fits in double range (ROADMAP item 2)."""
    if draw(st.booleans()):
        h = ScaleFunction.h1(draw(st.floats(1.05, 3.0)))
    else:
        h = ScaleFunction.h2(draw(st.floats(0.5, 2.0)))
    try:
        dom = build_zalcman(h, draw(st.floats(1e-4, 3e-2)), draw(st.integers(1, 40)))
    except BerglabError:
        assume(False)
    xs = []
    for k in draw(st.lists(st.integers(1, dom.K), min_size=1, max_size=12)):
        lo, hi = dom.logx[k], dom.logx[k - 1]
        x = math.exp(lo + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (hi - lo))
        if max(dom.xs[k], 1e-150) < x < dom.xs[k - 1]:
            xs.append(x)
    assume(xs)
    return dom, xs


def same_bits(got, want) -> bool:
    return [float(v).hex() for v in got] == [float(v).hex() for v in want]


@settings(max_examples=150, deadline=None)
@given(band_samples())
def test_witness_kernel_bound_keeps_the_per_point_bits(case):
    dom, xs = case
    want = [bound_oracle.witness_kernel_bound(dom, x)["value"] for x in xs]
    assert same_bits(witness_kernel_bound(dom, np.array(xs)), want)
    assert type(witness_kernel_bound(dom, xs[0])) is float
    assert same_bits([witness_kernel_bound(dom, xs[0])], want[:1])


def test_witness_band_stability_h1():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    ratios = []
    for k in range(1, 4):
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        v = witness_kernel_bound(dom, x)
        ratios.append(v * x * x * math.log(1.0 / x))
    assert max(ratios) / min(ratios) < 10.0


def test_two_pole_witness_hand_derivative():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    rep = two_pole(dom, complex(-0.05))
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
        assert two_pole(dom, w)["fprime"] == pytest.approx(want, rel=1e-15, abs=0)


def test_three_pole_witness_h2():
    dom = build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=12)
    for k in (3, 5, 7):
        x = math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))
        rep = three_pole(dom, complex(-x))
        assert rep["zero_residual"] <= 1e-10
        assert abs(rep["a_k"]) <= 10.0
        L = math.log(1.0 / float(dom.xs[k - 1]))
        assert rep["norm_sq"] <= 50.0 * math.log(L)


# ---------------------------------------------------------------------------
# metric witness against the two explicit witnesses it replaced
# ---------------------------------------------------------------------------

#: each domain with the bands where S_low is stable: on h1(1.5) K = 10 it
#: collapses past k = 7 (a - |c|^2 / b cancels)
WITNESS_DOMAINS = {
    "h1(1.5)-K10": (ScaleFunction.h1(1.5), 1e-2, 10, range(1, 8)),
    "h1(1.2)-K12": (ScaleFunction.h1(1.2), 1e-2, 12, range(1, 13)),
    "h2(1)-K40": (ScaleFunction.h2(1.0), 1e-3, 40, range(1, 41)),
}


@pytest.fixture(scope="module", params=list(WITNESS_DOMAINS))
def witness_sweep(request):
    """(domain, mid-band points of every band, their witness ratios, S_low,
    the stable bands)."""
    h, x1, K, stable = WITNESS_DOMAINS[request.param]
    dom = build_zalcman(h, x1, K)
    gs = assemble_gram(dom)
    w = -np.sqrt(dom.xs[:K] * dom.xs[1 : K + 1])
    return dom, w, witness_metric_bound(gs, w), subspace_metric(gs, w).S_low, np.array(stable)


def test_metric_witness_is_at_least_both_oracles(witness_sweep):
    dom, w, ratio, _, _ = witness_sweep
    # finite at k = K too, where both oracles need hole K + 1
    assert np.all(np.isfinite(ratio)) and np.all(ratio > 0.0)
    for k in range(1, dom.K + 1):
        for want in oracle_ratios(dom, complex(w[k - 1])):
            assert ratio[k - 1] >= want * (1.0 - 1e-12), k


def test_metric_witness_is_at_most_the_subspace_extremum(witness_sweep):
    # the witness lies in the basis span and vanishes at w
    _, _, ratio, S_low, stable = witness_sweep
    assert np.all(ratio[stable - 1] <= S_low[stable - 1] * (1.0 + 1e-9))


@pytest.mark.parametrize("name", ["h1(1.2)-K12", "h2(1)-K40"])
def test_metric_witness_is_the_extremum_over_its_poles_at_complex_points(name):
    # subspace_metric on the Gram of the poles at holes k - 1, k, k + 1
    # alone: its a - |c|^2 / b form does not cancel at any band of these two
    # domains, and off the real axis a wrong conjugation shows
    h, x1, K, _ = WITNESS_DOMAINS[name]
    dom = build_zalcman(h, x1, K)
    gs = assemble_gram(dom)
    for k in range(1, K + 1):
        poles = [RationalFunction.pole(complex(dom.xs[j - 1]), 1) for j in (k - 1, k, k + 1) if 1 <= j <= K]
        span = assemble_gram(dom, poles)
        for theta in (2.2, -1.0):
            w = cmath.rect(math.sqrt(dom.xs[k - 1] * dom.xs[k]), theta)
            assert witness_metric_bound(gs, w) == pytest.approx(subspace_metric(span, w).S_low, rel=1e-9), k


def test_metric_witness_needs_the_unit_poles_in_the_basis(h15_domain):
    w = -math.sqrt(float(h15_domain.xs[2] * h15_domain.xs[3]))  # band 3: holes 2, 3, 4
    poles = [1, 2, 4]  # no 1/(z - x_3)
    fns = spec_functions(degree=4, pole_centers=tuple(h15_domain.xs[j - 1] for j in poles), pole_order=1)
    with pytest.raises(PreconditionViolatedError, match="j = 3"):
        witness_metric_bound(assemble_gram(h15_domain, fns), w)


def test_metric_witness_on_empty_and_scalar_input(h15_domain, h15_gram):
    assert witness_metric_bound(h15_gram, np.empty(0)).shape == (0,)
    w = -math.sqrt(float(h15_domain.xs[1] * h15_domain.xs[2]))
    one = witness_metric_bound(h15_gram, w)
    assert type(one) is float and witness_metric_bound(h15_gram, np.array([[w]])) == np.array([[one]])


def test_kernel_bounds_on_empty_and_scalar_input(h15_domain, h15_gram):
    w = -mid_band(h15_domain, 3)
    for bound in (
        lambda w: subspace_kernel(h15_gram, w),
        lambda w: witness_kernel_bound(h15_domain, -w),  # takes x = -w
        lambda w: equilibrium_witness_bound(h15_domain, w)[0],
    ):
        assert bound(np.empty(0)).shape == (0,)
        one = bound(w)
        assert type(one) is float and bound(np.array([[w]])) == np.array([[one]])
    # no witness: every circle on its fewest nodes, and nothing measured
    _, info = equilibrium_witness_bound(h15_domain, np.empty(0))
    assert info.doubling_change == info.hermitian_defect == 0.0 and len(info.nodes) == h15_domain.K + 1


@st.composite
def witness_points(draw):
    """(domain, w): a drawn h1 or h2 domain with K <= 12 and a point inside
    it whose modulus lies inside a drawn band, at a drawn angle."""
    if draw(st.booleans()):
        h = ScaleFunction.h1(draw(st.floats(1.2, 2.0)))
    else:
        h = ScaleFunction.h2(draw(st.floats(0.5, 2.0)))
    try:
        dom = build_zalcman(h, draw(st.floats(1e-3, 3e-2)), draw(st.integers(1, 12)))
    except BerglabError:
        assume(False)
    k = draw(st.integers(1, dom.K))
    lo, hi = dom.logx[k], dom.logx[k - 1]
    w = cmath.rect(math.exp(lo + draw(st.floats(0.01, 0.99)) * (hi - lo)), draw(st.floats(-math.pi, math.pi)))
    assume(dom.contains(w))
    return dom, w


@settings(max_examples=100, deadline=None)
@given(witness_points())
def test_metric_witness_is_at_least_both_oracles_at_drawn_points(case):
    dom, w = case
    got = witness_metric_bound(assemble_gram(dom), w)
    if dom.K == 1:
        assert math.isnan(got)  # J holds hole 1 alone
    else:
        assert got > 0.0
        for want in oracle_ratios(dom, w):
            assert got >= want * (1.0 - 1e-12)


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
    rep, _ = bergman._equilibrium_witness(h15_domain, complex(-x))
    assert rep["delta"] == pytest.approx(x, rel=1e-12)  # origin is nearest
    assert abs(rep["w_second"]) >= 8 * rep["delta"] - 1e-15
    assert rep["f11_w_abs"] >= rep["facing_floor"] * 0.9
    assert rep["f2_w_abs"] <= rep["second_ceiling"] * 1.1
    # chosen sector dominates: log(1/cap(E11)) <= 3 log(1/cap(E1)) * 1.05
    assert math.log(1 / rep["cap_E11"]) <= 3.0 * math.log(1 / rep["cap_E1"]) * 1.05
    assert rep["cap_E11"] == max(rep["sector_caps"])
    assert equilibrium_witness_bound(h15_domain, complex(-x))[0] > 0


def test_equilibrium_vs_one_pole_witness(h15_domain):
    for k in (3, 5):
        x = math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k]))
        eq = equilibrium_witness_bound(h15_domain, complex(-x))[0]
        wit = witness_kernel_bound(h15_domain, x)
        assert eq <= 50.0 * wit and wit <= 50.0 * eq


def test_equilibrium_witness_far_from_the_boundary_has_no_second_point(h15_domain):
    # delta = 0.5 puts 8 delta above h(epsilon0) = 1, so h has no inverse there
    with pytest.raises(NoSecondPointError, match="no radius"):
        bergman._equilibrium_witness(h15_domain, -0.5 + 0j)
    # the bound reads NaN there, at one point as in an array
    assert math.isnan(equilibrium_witness_bound(h15_domain, -0.5 + 0j)[0])


def test_equilibrium_witness_lets_a_programming_error_through(h15_domain, monkeypatch):
    def broken_inverse(self, t):
        raise TypeError("broken")

    monkeypatch.setattr(ScaleFunction, "inverse", broken_inverse)
    with pytest.raises(TypeError, match="broken"):
        equilibrium_witness_bound(h15_domain, -0.5 + 0j)


#: equilibrium_bound at mid-band points as each witness's own Gram gave it,
#: before the sweep's norms came from one pass over the union of the poles
GRAM_EQUILIBRIUM_BOUND = {
    (ScaleFunction.h1(1.5), 1e-2, 10): {
        2: 336753.62251825054, 3: 1422799777.7399707, 4: 478167769668928.25, 5: 9.2535725001961e+22,
        6: 2.82001440416143e+35, 7: 1.8085214384190623e+54, 8: 3.541919239516583e+82,
    },
    (ScaleFunction.h1(1.2), 1e-2, 12): {
        2: math.nan, 3: 32960.80645510489, 4: 537390.742919878, 5: 17432670.434654314, 6: 1123695734.1432827,
        7: 163185765114.56137, 8: 63356544180782.0, 9: 8.063291641484786e+16, 10: 4.3920769928738085e+20,
    },
    (ScaleFunction.h2(1.0), 1e-3, 40): {
        3: 513269711.9516385, 4: 73395274566.43616, 12: 7.626935526357568e+32, 24: 3.835190214148358e+75,
        35: 4.067597043713914e+120,
    },
}


def mid_band(dom, k: int) -> float:
    return math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))


@pytest.mark.parametrize("domain, want", GRAM_EQUILIBRIUM_BOUND.items(), ids=["h1(1.5)", "h1(1.2)", "h2(1)"])
def test_equilibrium_bound_array_call_keeps_the_gram_values(domain, want):
    dom = build_zalcman(*domain)
    got, info = equilibrium_witness_bound(dom, -np.array([mid_band(dom, k) for k in want]))
    expected = np.array(list(want.values()))
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.all(np.abs(got - expected) <= 1e-13 * expected, where=~np.isnan(expected))
    assert info.doubling_change <= 1e-9 and len(info.nodes) == dom.K + 1


def test_equilibrium_bound_one_point_and_array(h15_domain):
    w = -np.array([[mid_band(h15_domain, k) for k in (3, 4, 5)]])
    arrays, _ = equilibrium_witness_bound(h15_domain, w)
    assert arrays.shape == (1, 3)
    for i in range(3):
        one, _ = equilibrium_witness_bound(h15_domain, complex(w[0, i]))
        assert type(one) is float and abs(arrays[0, i] - one) <= 1e-13 * one


def test_a_witness_failing_its_pole_check_reads_nan_in_its_band_only(h15_domain, monkeypatch):
    want = GRAM_EQUILIBRIUM_BOUND[(ScaleFunction.h1(1.5), 1e-2, 10)]
    build = bergman._equilibrium_witness
    x, r = float(h15_domain.xs[3]), float(h15_domain.rs[3])

    def band_4_past_the_margin(dom, w):
        rep, f = build(dom, w)
        if band_index(dom, abs(w)) == 4:
            # one pole moved to ratio 0.97 of hole 4's circle
            f = RationalFunction.from_nodes(np.append(f.pole_centers[1:], x + 0.97 * r), np.roll(f.pole_coeffs, -1))
        return rep, f

    monkeypatch.setattr(bergman, "_equilibrium_witness", band_4_past_the_margin)
    got, _ = equilibrium_witness_bound(h15_domain, -np.array([mid_band(h15_domain, k) for k in want]))
    for (k, v), g in zip(want.items(), got):
        assert math.isnan(g) if k == 4 else abs(g - v) <= 1e-13 * v


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
# point sweeps: one call for an array of points
# ---------------------------------------------------------------------------

#: relative bounds of an array call against one-point calls and against the
#: former one-point formulas: K_low, and S_low and b_est (the metric's
#: a - |c|^2 / b cancels to about 1e-8 of a at band 6 of h1(1.5))
KERNEL_REL = 1e-13
METRIC_REL = 1e-6


def former_kernel(gs, w):
    """K_low as the one-point path computed it: a matrix-vector product."""
    b = np.conj(gs.basis.values(w))
    m = float(np.max(np.abs(b)))
    nb = m * float(np.linalg.norm(b / m)) if m else 1.0
    bb = gs.eigvecs.conj().T @ (gs.scale * b / nb)
    return float(np.real(np.sum(np.where(gs.kept, np.conj(bb) * bb / gs.eigvals, 0.0)))) * nb * nb


def former_metric(gs, w):
    """(S_low, K_low, b_est) as the one-point path computed them."""
    v, u = gs.basis.values_and_derivs(w)
    q, p = np.conj(v), np.conj(u)

    def unit(vec):
        m = float(np.max(np.abs(vec)))
        n = m * float(np.linalg.norm(vec / m)) if m else 1.0
        return gs.eigvecs.conj().T @ (gs.scale * vec / n), n

    def form(a, b):
        return complex(np.sum(np.where(gs.kept, np.conj(a) * b / gs.eigvals, 0.0)))

    (qq, nq), (pp, np_) = unit(q), unit(p)
    b_form, a_form, c_form = form(qq, qq).real, form(pp, pp).real, form(pp, qq)
    S2 = max(0.0, a_form - abs(c_form) ** 2 / b_form)
    return np_ * math.sqrt(S2), b_form * nq * nq, (np_ / nq) * math.sqrt(S2 / b_form)


def _sweep_pool(domain, bands=None):
    """Points inside the domain: three per band of a Zalcman domain (bands
    1..``bands``, at angles pi and 2 pi / 3), or on circles of a disk or
    annulus."""
    if isinstance(domain, ZalcmanDomain):
        logx = domain.logx
        radii = [math.exp(logx[k] + t * (logx[k - 1] - logx[k])) for k in range(1, bands + 1) for t in (0.2, 0.5, 0.8)]
        angles = (math.pi, 2 * math.pi / 3)
    else:
        lo = domain.radii.max(initial=0.0)
        radii = [lo + t * (1.0 - lo) for t in (0.1, 0.5, 0.85)]
        angles = (0.0, 1.0, 2.5)
    pool = np.array([r * complex(math.cos(a), math.sin(a)) for r in radii for a in angles])
    assert domain.contains(pool).all()
    return pool


@pytest.fixture(scope="module")
def sweep_cases(h15_domain, h15_gram):
    """Per domain: Gram system, kernel points, metric points and each
    point's one-point values."""
    disk, annulus = CircleDomain.build(), CircleDomain.build([(0j, 0.5)])
    cases = {}
    for name, dom, gs, kernel_bands, metric_bands in (
        ("h1(1.5)", h15_domain, h15_gram, 9, 6),
        ("disk", disk, assemble_gram(disk), None, None),
        ("annulus", annulus, assemble_gram(annulus), None, None),
    ):
        kpts, mpts = _sweep_pool(dom, kernel_bands), _sweep_pool(dom, metric_bands)
        kernel = [subspace_kernel(gs, w) for w in kpts.tolist()]
        metric = [subspace_metric(gs, w) for w in mpts.tolist()]
        cases[name] = (gs, kpts, mpts, kernel, metric)
    return cases


def _close(got, want, rel):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_sweep_matches_one_point_calls(sweep_cases, data):
    gs, kpts, mpts, kernel, metric = sweep_cases[data.draw(st.sampled_from(sorted(sweep_cases)))]
    # any order, repeats allowed; an even count also runs as a 2 x n array
    ki = data.draw(st.lists(st.integers(0, kpts.size - 1), max_size=12))
    mi = data.draw(st.lists(st.integers(0, mpts.size - 1), max_size=12))
    shape_k = (2, len(ki) // 2) if len(ki) % 2 == 0 and data.draw(st.booleans()) else (len(ki),)
    K = subspace_kernel(gs, kpts[ki].reshape(shape_k))
    assert isinstance(K, np.ndarray) and K.shape == shape_k
    assert _close(K.ravel(), [kernel[i] for i in ki], KERNEL_REL)
    assert _close(K.ravel(), [former_kernel(gs, kpts[i]) for i in ki], KERNEL_REL)
    est = subspace_metric(gs, mpts[mi])
    for name, j, rel in (("S_low", 0, METRIC_REL), ("K_low", 1, KERNEL_REL), ("b_est", 2, METRIC_REL)):
        got = getattr(est, name)
        assert isinstance(got, np.ndarray) and got.shape == (len(mi),)
        assert _close(got, [getattr(metric[i], name) for i in mi], rel)
        assert _close(got, [former_metric(gs, mpts[i])[j] for i in mi], rel)


def test_point_sweeps_on_empty_and_scalar_input(disk_gram):
    empty = np.empty(0, dtype=complex)
    assert subspace_kernel(disk_gram, empty).shape == (0,)
    est = subspace_metric(disk_gram, empty)
    assert est.S_low.shape == est.K_low.shape == est.b_est.shape == (0,)
    # a scalar, complex or real, gives Python floats
    for w in (0.3 + 0.1j, 0.3):
        assert type(subspace_kernel(disk_gram, w)) is float
        est = subspace_metric(disk_gram, w)
        assert all(type(v) is float for v in (est.S_low, est.K_low, est.b_est))


def test_point_sweeps_reject_an_outside_point(disk_gram):
    pts = np.array([0.1, 0.5j, 1.5, -0.2])
    with pytest.raises(OutsideDomainError, match=r"1\.5"):
        subspace_kernel(disk_gram, pts)
    with pytest.raises(OutsideDomainError):
        subspace_metric(disk_gram, pts)


def loop_band_index(domain, x):
    """The former band search: the first k with x_{k+1} < x < x_k, or None."""
    xs = domain.xs
    for k in range(1, domain.K + 1):
        if xs[k] < x < xs[k - 1]:
            return k
    return None


BAND_DOMAINS = [
    build_zalcman(ScaleFunction.h1(1.5), 0.01, K=10),
    build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=12),
    build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4),
]


@st.composite
def band_queries(draw):
    """(domain, x values): exact band ends, their neighbouring doubles,
    log-uniform values from below x_{K+1} to above x_1, and 0, 1 and NaN."""
    dom = draw(st.sampled_from(BAND_DOMAINS))
    ends = dom.xs[: dom.K + 1].tolist()
    x = st.one_of(
        st.sampled_from(ends),
        st.tuples(st.sampled_from(ends), st.sampled_from([-math.inf, math.inf])).map(lambda t: math.nextafter(*t)),
        st.floats(math.log(ends[-1]) - 3.0, 0.5).map(math.exp),
        st.sampled_from([0.0, 1.0, math.nan]),
    )
    return dom, draw(st.lists(x, min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(band_queries())
def test_band_index_matches_the_loop(query):
    dom, xs = query
    want = [loop_band_index(dom, x) for x in xs]
    for x, k in zip(xs, want):
        if k is None:
            with pytest.raises(ScaleNotRetainedError):
                band_index(dom, x)
        else:
            got = band_index(dom, x)
            assert type(got) is int and got == k
    if None in want:
        with pytest.raises(ScaleNotRetainedError):
            band_index(dom, np.array(xs))
    else:
        assert band_index(dom, np.array(xs)).tolist() == want


# ---------------------------------------------------------------------------
# distance profile
# ---------------------------------------------------------------------------


def test_distance_profile_smoke(h15_domain, h15_gram):
    cols = distance_profile(h15_domain, k_range=(2, 3, 4), per_band=6, gram=h15_gram)
    assert list(cols) == ["k", "x", "b_est", "K_low", "d_est"]
    assert len({c.shape for c in cols.values()}) == 1
    assert np.all(np.diff(cols["d_est"]) >= 0)  # cumulative length grows
    incr = band_increments(cols["k"], cols["d_est"])
    assert set(incr) <= {2, 3, 4}
    assert all(v >= 0 for v in incr.values())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.floats(-1e300, 1e300)), max_size=40))
def test_band_increments_keep_the_row_loop_bits(profile):
    k = np.array([b for b, _ in profile], dtype=int)
    d_est = np.array([d for _, d in profile])
    want = bound_oracle.band_increments([{"k": b, "d_est": d} for b, d in profile])
    got = band_increments(k, d_est)
    assert list(got) == list(want) and same_bits(got.values(), want.values())


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
#: witness_metric_bound at the same points, the boundary rule's Gram block
#: of the poles at holes k - 1, k, k + 1
GOLDEN_METRIC_WITNESS = {2: 496289.53035992204, 4: 143635472054039.66, 6: 9.750417537155964e32}
GOLDEN_EQUILIBRIUM_BOUND = {3: 1422797478.8381326, 5: 9.253571085267632e22, 7: 1.8085224530497728e54}


#: equilibrium_bound at the same points as the boundary rule wrote it with at
#: least 96 nodes on every circle; the counts derived from the basis keep it
#: to 1e-12
FLOOR_RULE_EQUILIBRIUM_BOUND = {3: 1422799777.7399707, 5: 9.253572500196096e22, 7: 1.8085214384190623e54}


def test_equilibrium_bound_matches_the_former_node_counts(h15_domain):
    for k, want in FLOOR_RULE_EQUILIBRIUM_BOUND.items():
        z = complex(-math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k])))
        assert equilibrium_witness_bound(h15_domain, z)[0] == pytest.approx(want, rel=1e-12)


def test_metric_and_witnesses_match_golden_values(h15_domain, h15_gram):
    def mid(k):
        return complex(-math.sqrt(float(h15_domain.xs[k - 1] * h15_domain.xs[k])))

    for k, want in GOLDEN_B_EST.items():
        assert subspace_metric(h15_gram, mid(k)).b_est == pytest.approx(want, rel=1e-6)
    for k, want in GOLDEN_WITNESS_RATIO.items():
        assert two_pole(h15_domain, mid(k))["ratio"] == pytest.approx(want, rel=1e-5)
    for k, want in GOLDEN_METRIC_WITNESS.items():
        assert witness_metric_bound(h15_gram, mid(k)) == pytest.approx(want, rel=1e-5)
    for k, want in GOLDEN_EQUILIBRIUM_BOUND.items():
        assert equilibrium_witness_bound(h15_domain, mid(k))[0] == pytest.approx(want, rel=1e-5)
