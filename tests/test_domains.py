import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab.domains import (
    CircleDomain,
    IntervalUnion,
    ScaleFunction,
    build_cantor,
    build_cantor_table,
    build_zalcman,
    domain_from_json,
    scale_inverse_check,
)
from berglab.errors import (
    BisectionFailureError,
    NonDisjointError,
    NotBoundaryPointError,
    RuleViolationError,
    ScaleUnderflowError,
)


def dense_boundary_samples(domain, per_circle=4096):
    """Brute-force boundary point cloud (test oracle)."""
    theta = np.linspace(0.0, 2.0 * math.pi, per_circle, endpoint=False)
    ring = np.exp(1j * theta)
    pts = [c + rho * ring for c, rho in zip(domain.circle_centers, domain.circle_radii)]
    if domain.include_origin:
        pts.insert(0, np.array([0j]))
    return np.concatenate(pts)


# ---------------------------------------------------------------------------
# scale functions
# ---------------------------------------------------------------------------


def test_h1_h2_values():
    h1 = ScaleFunction.h1(2.0)
    assert h1.value(0.1) == pytest.approx(0.01, rel=1e-14)
    h2 = ScaleFunction.h2(1.0)
    r = math.exp(-10.0)
    assert h2.value(r) == pytest.approx(r / 10.0, rel=1e-14)


def test_h_less_than_r_and_increasing():
    for h in (ScaleFunction.h1(1.2), ScaleFunction.h2(2.0)):
        rs = np.exp(np.linspace(math.log(1e-12), math.log(h.epsilon0 * 0.999), 200))
        hs = np.exp(h.log_value(np.log(rs)))
        assert np.all(hs < rs)
        assert np.all(np.diff(hs) > 0)


def test_table_family_interpolates_and_validates():
    rs = np.exp(np.linspace(-20, -1, 40))
    hs = rs**1.5
    h = ScaleFunction.from_table(rs, hs)
    assert h.value(rs[7]) == pytest.approx(hs[7], rel=1e-12)
    with pytest.raises(ValueError):
        ScaleFunction.from_table([0.1, 0.2], [0.15, 0.25])  # h >= r


def test_scale_inverse_exact_roundtrip():
    h = ScaleFunction.h2(1.0)
    t = math.exp(-10.0) / 10.0
    g, ok = scale_inverse_check(h, t)
    assert g == pytest.approx(math.exp(-10.0), rel=1e-10)
    # e^-10 <= (e^-10/10) * (10 + log 10)
    assert ok


@pytest.mark.parametrize("beta,t", [(1.0, 1e-6), (2.0, 1e-8)])
def test_scale_inverse_growth_bound(beta, t):
    h = ScaleFunction.h2(beta)
    g, ok = scale_inverse_check(h, t)
    assert abs(h.value(g) - t) <= 1e-12 * t
    assert ok


def test_inverse_bracket_failure():
    h = ScaleFunction.h2(1.0)
    with pytest.raises(BisectionFailureError):
        h.inverse(0.9)  # above h(epsilon0)


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def test_build_recursion_h1_direct():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=2)
    assert dom.xs[1] == pytest.approx(0.01, rel=1e-14)  # x2 = r1
    assert dom.rs[0] == pytest.approx(0.01, rel=1e-14)
    assert dom.xs[2] == pytest.approx(1e-4, rel=1e-13)  # x3 = r2
    assert dom.rs[1] == pytest.approx(1e-4, rel=1e-13)


def test_build_recursion_h2_direct():
    dom = build_zalcman(ScaleFunction.h2(1.0), math.exp(-10.0), K=1)
    assert dom.xs[1] == pytest.approx(math.exp(-10.0) / 10.0, rel=1e-13)


def test_build_deep_log_domain():
    dom = build_zalcman(ScaleFunction.h1(1.2), 0.01, K=20)
    log10_x21 = dom.logx[20] / math.log(10.0)
    assert log10_x21 == pytest.approx(-2.0 * 1.2**20, rel=1e-12)
    assert log10_x21 == pytest.approx(-76.7, abs=0.1)


def test_log_recursion_matches_direct_arithmetic():
    h = ScaleFunction.h2(1.5)
    dom = build_zalcman(h, 1e-3, K=8)
    x = 1e-3
    for k in range(1, 10):
        assert math.exp(dom.logx[k - 1]) == pytest.approx(x, rel=1e-12)
        x = h.value(x)


def test_build_rejects_bad_configs():
    with pytest.raises(NonDisjointError):
        build_zalcman(ScaleFunction.h1(1.05), 0.6, K=2)
    with pytest.raises(ScaleUnderflowError):
        build_zalcman(ScaleFunction.h1(1.2), 0.01, K=60)
    with pytest.raises(ValueError):
        build_zalcman(ScaleFunction.h1(2.0), 0.1, K=0)


# ---------------------------------------------------------------------------
# distance spectra
# ---------------------------------------------------------------------------


def test_spectrum_single_hole_from_origin():
    dom = CircleDomain.build(disks=[(0.5 + 0j, 0.1)], include_origin=True)
    spec = dom.distance_spectrum(0j)
    assert spec.contains(0.0)
    assert spec.intersects(0.4, 0.6)
    assert spec.contains(1.0)
    assert not spec.intersects(0.05, 0.39)
    assert not spec.intersects(0.61, 0.99)


def test_spectrum_from_disk_rim():
    dom = CircleDomain.build(disks=[(0.1 + 0j, 0.01)], include_origin=True)
    a = 0.11 + 0j
    spec = dom.distance_spectrum(a)
    assert spec.intersects(0.0, 0.02)  # own circle
    assert spec.contains(0.89) and spec.contains(1.11)  # unit circle band


def test_spectrum_zalcman_contains_every_scale():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    spec = dom.distance_spectrum(0j)
    for k in range(dom.K):
        lo, hi = dom.xs[k] - dom.rs[k], dom.xs[k] + dom.rs[k]
        assert spec.contains(lo) and spec.contains(hi)
    # oracle: min/max |z| over dense samples of each removed circle
    theta = np.linspace(0, 2 * math.pi, 20000, endpoint=False)
    for k in range(dom.K):
        ring = dom.xs[k] + dom.rs[k] * np.exp(1j * theta)
        assert np.abs(ring).min() == pytest.approx(dom.xs[k] - dom.rs[k], abs=1e-9)
        assert np.abs(ring).max() == pytest.approx(dom.xs[k] + dom.rs[k], abs=1e-9)


def test_spectrum_requires_boundary_point():
    dom = CircleDomain.build(include_origin=True)
    with pytest.raises(NotBoundaryPointError):
        dom.distance_spectrum(0.5 + 0j)


def test_spectrum_min_zero_on_boundary():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=5)
    for a in (0j, complex(dom.xs[2] + dom.rs[2]), 1.0 + 0j):
        assert dom.distance_spectrum(a).min() == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# membership and delta
# ---------------------------------------------------------------------------


def test_delta_unit_disk_center():
    dom = CircleDomain.build()
    inside, delta = dom.delta_and_membership(0.5 + 0j)
    assert inside and delta == pytest.approx(0.5, rel=1e-15)


def test_delta_zalcman_origin_term():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    inside, delta = dom.delta_and_membership(-0.05 + 0j)
    assert inside
    assert delta == pytest.approx(0.05, rel=1e-14)  # origin is closest


def test_delta_matches_dense_sampling():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.05, K=3)
    cloud = dense_boundary_samples(dom, per_circle=200000)
    rng = np.random.default_rng(7)
    zs = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    for z in zs:
        _, delta = dom.delta_and_membership(z)
        brute = float(np.min(np.abs(cloud - z)))
        assert delta == pytest.approx(brute, abs=1e-6)


def test_variant_sandwich_inside_superset():
    h = ScaleFunction.h1(1.5)
    sup = build_zalcman(h, 0.01, K=6, variant="superset")
    sand = build_zalcman(h, 0.01, K=6, variant="sandwich")
    deep = build_zalcman(h, 0.01, K=10, variant="superset")  # proxy for the full domain
    rng = np.random.default_rng(11)
    zs = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)
    for z in zs:
        in_sand = sand.contains(z)
        in_deep = deep.contains(z)
        in_sup = sup.contains(z)
        assert (not in_sand) or in_deep  # sandwich subset of truncation-10 proxy
        assert (not in_deep) or in_sup  # proxy subset of superset


# ---------------------------------------------------------------------------
# boundary queries against the distance spectrum
# ---------------------------------------------------------------------------

WINDOW_DOMAINS = [
    build_zalcman(ScaleFunction.h1(1.5), 1e-2, K=7),
    build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=10),
    build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=10, variant="sandwich"),
]


@st.composite
def windows(draw):
    """(domain, boundary point a, lo, hi): a is the origin or a point on one of
    the circles; lo is log-uniform or sits next to an end of a's spectrum,
    so that isolated points and interval ends get hit."""
    dom = draw(st.sampled_from(WINDOW_DOMAINS))
    first = -1 if dom.include_origin else 0
    i = draw(st.integers(first, dom.circle_radii.size - 1))
    a = 0j
    if i >= 0:
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        a = complex(dom.circle_centers[i] + dom.circle_radii[i] * np.exp(1j * theta))
    spec = dom.distance_spectrum(a)
    ends = [e for e in spec.intervals.ravel().tolist() + spec.points.tolist() if e > 0.0]
    lo = draw(
        st.one_of(
            st.floats(math.log(1e-13), math.log(2.5)).map(math.exp),
            st.tuples(st.sampled_from(ends), st.floats(-0.05, 0.05)).map(
                lambda t: t[0] * math.exp(t[1])
            ),
        )
    )
    return dom, a, lo, lo * math.exp(draw(st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None)
@given(windows())
def test_witness_at_distance_matches_spectrum(window):
    dom, a, lo, hi = window
    expect = dom.distance_spectrum(a).inf_at_least(lo)
    if expect is None or expect > hi:
        with pytest.raises(ValueError):
            dom.witness_at_distance(a, lo, hi)
        return
    z, d, i = dom.witness_at_distance(a, lo, hi)
    assert d == expect
    assert dom.is_boundary(z)
    if i is None:
        assert z == 0j
    assert abs(z - a) == pytest.approx(d, rel=1e-9, abs=1e-15)


CONTAINS_DOMAINS = [
    CircleDomain.build(),
    CircleDomain.build(inner_radius=0.5),
    *WINDOW_DOMAINS,
]


@st.composite
def point_batches(draw):
    """(domain, points): generic points mixed with points on the boundary."""
    dom = draw(st.sampled_from(CONTAINS_DOMAINS))
    coord = st.floats(-1.1, 1.1)
    pts = draw(st.lists(st.builds(complex, coord, coord), max_size=20))
    for i, theta in draw(st.lists(st.tuples(st.integers(0, dom.circle_radii.size - 1),
                                            st.floats(0.0, 2.0 * math.pi)), max_size=10)):
        pts.append(complex(dom.circle_centers[i] + dom.circle_radii[i] * np.exp(1j * theta)))
    pts.append(0j)
    return dom, np.asarray(draw(st.permutations(pts)), dtype=complex)


@settings(max_examples=200, deadline=None)
@given(point_batches())
def test_contains_array_matches_scalar(dom_zs):
    dom, zs = dom_zs
    got = dom.contains(zs)
    assert got.dtype == bool and got.shape == zs.shape
    for z, g in zip(zs.tolist(), got.tolist()):
        scalar = dom.contains(z)
        assert isinstance(scalar, bool) and scalar == g


# ---------------------------------------------------------------------------
# Cantor sets
# ---------------------------------------------------------------------------


def test_cantor_level_one_exact():
    c = build_cantor(0.1, 2.0, J=1)
    lefts, l1 = c.intervals()
    assert l1 == pytest.approx(0.01, rel=1e-15)
    assert lefts.tolist() == pytest.approx([0.0, 0.09], abs=1e-15)


def test_cantor_level_two_matches_hand_values():
    c = build_cantor(0.1, 2.0, J=2)
    lefts, l2 = c.intervals()
    assert l2 == pytest.approx(1e-4, rel=1e-13)
    expected = [0.0, 0.0099, 0.09, 0.0999]
    assert lefts.tolist() == pytest.approx(expected, abs=1e-12)


def test_cantor_total_length_shrinks():
    c = build_cantor(0.1, 2.0, J=4)
    assert c.total_length() == pytest.approx(16 * 1e-16, rel=1e-10)
    lengths = [c.total_length(j) for j in range(5)]
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def test_cantor_nesting_invariant():
    c = build_cantor(0.15, 1.7, J=5)
    for j in range(1, 6):
        lefts_j, lj = c.intervals(j)
        lefts_p, lp = c.intervals(j - 1)
        for lo in lefts_j:
            assert np.any((lefts_p <= lo + 1e-15) & (lo + lj <= lefts_p + lp + 1e-15))


def test_cantor_rule_violation():
    with pytest.raises(RuleViolationError):
        build_cantor_table([0.1, 0.05])  # exactly half is not allowed
    with pytest.raises(ValueError):
        build_cantor(0.6, 2.0, J=2)


def test_cantor_distance_modes():
    c = build_cantor(0.1, 2.0, J=2)
    a = 0.0
    ends = c.distance_spectrum(a, mode="endpoints")
    ivs = c.distance_spectrum(a, mode="intervals")
    # endpoint distances all achievable within the interval spectrum
    for p in ends.points:
        assert ivs.contains(p, tol=1e-15)
    assert ends.contains(0.0099, tol=1e-15)  # left end of second interval


# ---------------------------------------------------------------------------
# interval unions and serialization
# ---------------------------------------------------------------------------


def test_interval_union_merge_and_queries():
    u = IntervalUnion.build([(0.5, 1.0), (0.9, 1.4), (3.0, 3.0)], points=[2.0, 1.2])
    assert u.intervals.shape == (2, 2)
    assert u.contains(1.2) and u.contains(2.0)
    assert u.sup_at_most(2.5) == pytest.approx(2.0)
    assert u.inf_at_least(1.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        IntervalUnion.build([(-0.1, 0.2)])


def sup_at_most_loop(u, hi):
    """Brute-force reference: scan every interval and point."""
    best = 0.0
    for lo, top in u.intervals:
        if lo <= hi and top > 0:
            best = max(best, min(top, hi))
    if u.points.size:
        pts = u.points[u.points <= hi]
        if pts.size:
            best = max(best, float(pts[-1]))
    return best


# endpoints on a quarter grid make touching and overlapping intervals common
grid_value = st.integers(0, 16).map(lambda k: k / 4.0)
any_value = st.one_of(grid_value, st.floats(0.0, 5.0))
interval = st.tuples(any_value, any_value).map(sorted).map(tuple)
unions = st.builds(
    IntervalUnion.build,
    st.lists(interval, max_size=6),
    st.lists(any_value, max_size=4),
)


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def union_queries(u, extra):
    """Every interval end and point, a step below the first element, and
    extra values."""
    qs = list(u.intervals.ravel()) + list(u.points) + list(extra)
    if u.intervals.size or u.points.size:
        qs.append(u.min() - 0.125)
    return [float(q) for q in qs]


@settings(max_examples=200, deadline=None)
@given(unions, st.lists(st.floats(-1.0, 6.0), max_size=4))
def test_sup_at_most_scalar_matches_loop(u, extra):
    for q in union_queries(u, extra):
        got = u.sup_at_most(q)
        assert isinstance(got, float)
        assert same_float(got, sup_at_most_loop(u, q))


@settings(max_examples=200, deadline=None)
@given(unions, st.lists(st.floats(-1.0, 6.0), max_size=4))
def test_sup_at_most_array_matches_loop(u, extra):
    qs = union_queries(u, extra)
    got = u.sup_at_most(np.asarray(qs))
    assert isinstance(got, np.ndarray) and got.shape == (len(qs),)
    for g, q in zip(got.tolist(), qs):
        assert same_float(g, sup_at_most_loop(u, q))


def test_sup_at_most_edge_cases():
    empty = IntervalUnion.build([])
    assert empty.sup_at_most(1.0) == 0.0
    assert empty.sup_at_most(np.array([0.0, 1.0])).tolist() == [0.0, 0.0]
    touching = IntervalUnion.build([(0.5, 1.0), (1.0, 2.0)])
    assert touching.intervals.tolist() == [[0.5, 2.0]]
    assert touching.sup_at_most(0.25) == 0.0  # below the first interval
    assert touching.sup_at_most(0.5) == 0.5  # exactly at its bottom
    assert touching.sup_at_most(3.0) == 2.0
    origin = IntervalUnion.build([], points=[0.0, 0.75])
    assert origin.sup_at_most(0.5) == 0.0
    assert origin.sup_at_most(0.75) == 0.75
    assert same_float(IntervalUnion.build([(0.0, 1.0)]).sup_at_most(-0.0), 0.0)


def test_domain_json_roundtrip():
    dom = domain_from_json({"type": "zalcman", "family": "h1", "alpha": 1.2, "x1": 1e-2, "K": 5})
    assert dom.K == 5 and dom.variant == "superset"
    again = domain_from_json(dom.to_json_dict())
    assert np.allclose(again.logx, dom.logx)
    cant = domain_from_json({"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 3})
    assert cant.J == 3
    disk = domain_from_json({"type": "disk"})
    assert disk.contains(0.5 + 0j)
    ann = domain_from_json({"type": "annulus", "r0": 0.5})
    assert not ann.contains(0.2 + 0j) and ann.contains(0.7 + 0j)
