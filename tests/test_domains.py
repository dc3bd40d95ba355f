import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berglab.domains import (
    CircleDomain,
    IntervalUnion,
    ScaleFunction,
    _assemble_cantor,
    build_cantor,
    build_zalcman,
    domain_from_json,
)
from berglab.bergman import retracted_cluster_nodes
from berglab.errors import (
    BisectionFailureError,
    NonDisjointError,
    NotBoundaryPointError,
    RuleViolationError,
    ScaleUnderflowError,
)
from berglab.perfectness import hole_arc_nodes


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


def test_scale_family_by_name():
    assert ScaleFunction.of("h1", 1.5) == ScaleFunction.h1(1.5)
    assert ScaleFunction.of("h2", 2.0) == ScaleFunction.h2(2.0)
    for family, param in (("h1", 1.0), ("h2", 0.0), ("table", 1.5), ("h3", 1.5)):
        with pytest.raises(ValueError):
            ScaleFunction.of(family, param)
    # epsilon0 follows from the family, with the bits it had as a stored field
    assert ScaleFunction.h1(1.5).epsilon0 == 1.0
    assert ScaleFunction.h2(2.0).epsilon0 == math.exp(-1.0)
    with pytest.raises(ValueError, match="unknown scale family 'table'"):
        domain_from_json({"type": "zalcman", "family": "table", "r": [0.1, 0.2], "h": [0.01, 0.04], "x1": 0.01, "K": 2})


def test_scale_inverse_exact_roundtrip():
    h = ScaleFunction.h2(1.0)
    t = math.exp(-10.0) / 10.0
    g = h.inverse(t)
    assert g == pytest.approx(math.exp(-10.0), rel=1e-10)
    # e^-10 <= (e^-10/10) * (10 + log 10)
    assert g <= t * math.log(1.0 / t)


@pytest.mark.parametrize("beta,t", [(1.0, 1e-6), (2.0, 1e-8)])
def test_scale_inverse_growth_bound(beta, t):
    h = ScaleFunction.h2(beta)
    g = h.inverse(t)
    assert abs(h.value(g) - t) <= 1e-12 * t
    assert g <= t * math.log(1.0 / t) ** beta


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


def former_disjointness(logx, x1, K):
    """The builder's former disjointness check, which read r_k from its own
    array ``logr = logx[1:].copy()`` (test oracle)."""
    logr = logx[1:].copy()
    for k in range(K + 1):
        ratio_next = math.exp(logx[k + 1] - logx[k])
        r_next_over = math.exp(logr[k + 1] - logx[k]) if k + 2 <= K + 1 else 0.0
        r_over = math.exp(logr[k] - logx[k])
        if ratio_next + r_next_over >= 1.0 - r_over:
            return False
    return x1 + math.exp(logr[0]) < 1.0


@st.composite
def zalcman_specs(draw):
    """(h, x1, K, variant) over both families; many specs are not disjoint."""
    family = draw(st.sampled_from(["h1", "h2"]))
    h = ScaleFunction.of(family, draw(st.floats(1.05, 3.0) if family == "h1" else st.floats(0.1, 3.0)))
    x1 = math.exp(draw(st.floats(math.log(1e-8), math.log(0.9 * h.epsilon0))))
    return h, x1, draw(st.integers(1, 40)), draw(st.sampled_from(["superset", "sandwich"]))


@settings(max_examples=300, deadline=None)
@given(zalcman_specs())
def test_scales_match_former_log_radius_array(spec):
    h, x1, K, variant = spec
    logx = [math.log(x1)]
    for _ in range(K + 1):
        logx.append(h.log_value(logx[-1]))
    try:
        dom = build_zalcman(h, x1, K, variant)
    except ScaleUnderflowError:
        return
    except NonDisjointError as exc:
        assert "decreasing" in str(exc) or not former_disjointness(np.asarray(logx), x1, K)
        return
    assert np.array_equal(dom.logx, logx) and former_disjointness(dom.logx, x1, K)
    # r_k = x_{k+1}, bit for bit as the former exp of a separate log r_k array
    former_rs = np.exp(dom.logx[1:].copy())
    assert np.array_equal(dom.rs.view(np.int64), former_rs.view(np.int64))
    assert np.array_equal(dom.radii.view(np.int64), former_rs[:K].view(np.int64))


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
        assert dom.distance_spectrum(a).contains(0.0)


# ---------------------------------------------------------------------------
# membership and delta
# ---------------------------------------------------------------------------


def test_delta_unit_disk_center():
    dom = CircleDomain.build()
    assert dom.contains(0.5 + 0j)
    assert dom.unsigned_boundary_distance(0.5 + 0j) == pytest.approx(0.5, rel=1e-15)


def test_delta_zalcman_origin_term():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    assert dom.contains(-0.05 + 0j)
    # origin is closest
    assert dom.unsigned_boundary_distance(-0.05 + 0j) == pytest.approx(0.05, rel=1e-14)


def test_delta_matches_dense_sampling():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.05, K=3)
    cloud = dense_boundary_samples(dom, per_circle=200000)
    rng = np.random.default_rng(7)
    zs = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    for z in zs:
        delta = dom.unsigned_boundary_distance(z)
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
def boundary_points(draw, dom):
    """The origin (when it is a boundary point) or a point on one of the
    circles: a hole rim, the sandwich barrier or the outer circle."""
    first = -1 if dom.include_origin else 0
    i = draw(st.integers(first, dom.circle_radii.size - 1))
    if i < 0:
        return 0j
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    return complex(dom.circle_centers[i] + dom.circle_radii[i] * np.exp(1j * theta))


@st.composite
def windows(draw):
    """(domain, boundary point a, lo, hi): lo is log-uniform or sits next to
    an end of a's spectrum, so that isolated points and interval ends get
    hit."""
    dom = draw(st.sampled_from(WINDOW_DOMAINS))
    a = draw(boundary_points(dom))
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


# ---------------------------------------------------------------------------
# complement arcs: the two callers of CircleDomain.arc_angles against the
# arc code each of them carried before it, kept here as the oracle
# ---------------------------------------------------------------------------


def reference_hole_arc_nodes(domain, a, r, nodes_per_circle=16, outer_nodes=512):
    pts = []

    def circle_arcs(c0, rho, n_full):
        d = abs(a - c0)
        if d + rho <= r:  # whole circle inside
            theta = 2.0 * math.pi * np.arange(n_full) / n_full
            pts.append(c0 + rho * np.exp(1j * theta))
            return
        if abs(d - rho) > r or d - rho > r:  # no point of the circle in reach
            return
        if d == 0.0:  # concentric, rho > r: nothing reachable
            return
        cos_psi = (d * d + rho * rho - r * r) / (2.0 * d * rho)
        cos_psi = min(1.0, max(-1.0, cos_psi))
        psi = math.acos(cos_psi)
        base = math.atan2((a - c0).imag, (a - c0).real)
        m = max(8, int(n_full * psi / math.pi))
        theta = base + np.linspace(-psi, psi, m)
        pts.append(c0 + rho * np.exp(1j * theta))

    circles = zip(domain.circle_centers.tolist(), domain.circle_radii.tolist())
    for i, (c0, rho) in enumerate(circles):
        circle_arcs(c0, rho, nodes_per_circle if i < domain.centers.size else outer_nodes)
    if domain.include_origin and abs(a) <= r:
        pts.append(np.array([0j]))
    if not pts:
        return np.empty(0, dtype=complex)
    return np.concatenate(pts)


def reference_retracted_cluster_nodes(domain, center, radius, nodes_per_circle=16, eta=0.5):
    poles, bnds = [], []
    for c0, rho in zip(domain.centers, domain.radii):
        d = abs(center - c0)
        if d - rho > radius:
            continue
        rr = (1.0 - eta) * rho
        if d + rho <= radius:
            theta = 2.0 * math.pi * np.arange(nodes_per_circle) / nodes_per_circle
        else:
            cos_psi = (d * d + rho * rho - radius * radius) / (2.0 * d * rho)
            cos_psi = min(1.0, max(-1.0, cos_psi))
            psi = math.acos(cos_psi)
            base = math.atan2((center - c0).imag, (center - c0).real)
            m = max(6, int(nodes_per_circle * psi / math.pi))
            theta = base + np.linspace(-psi, psi, m)
        poles.append(c0 + rr * np.exp(1j * theta))
        bnds.append(c0 + rho * np.exp(1j * theta))
    if not poles:
        return np.empty(0, dtype=complex), np.empty(0, dtype=complex)
    poles = np.concatenate(poles)
    bnds = np.concatenate(bnds)
    _, keep = np.unique(poles, return_index=True)
    keep = np.sort(keep)
    return poles[keep], bnds[keep]


@st.composite
def arc_queries(draw):
    """(domain, boundary point a, radius r): r is log-uniform, an end of a's
    distance spectrum (where a circle comes whole into reach) or next to
    one."""
    dom = draw(st.sampled_from(WINDOW_DOMAINS))
    a = draw(boundary_points(dom))
    spec = dom.distance_spectrum(a)
    ends = [e for e in spec.intervals.ravel().tolist() + spec.points.tolist() if e > 0.0]
    r = draw(
        st.one_of(
            st.floats(math.log(1e-13), math.log(2.5)).map(math.exp),
            st.sampled_from(ends),
            st.tuples(st.sampled_from(ends), st.floats(-0.05, 0.05)).map(
                lambda t: t[0] * math.exp(t[1])
            ),
        )
    )
    return dom, a, r


@settings(max_examples=300, deadline=None)
@given(arc_queries(), st.sampled_from([4, 16]), st.sampled_from([32, 512]))
def test_hole_arc_nodes_match_former_arc_code(query, nodes_per_circle, outer_nodes):
    dom, a, r = query
    got = hole_arc_nodes(dom, a, r, nodes_per_circle, outer_nodes)
    assert np.array_equal(got, reference_hole_arc_nodes(dom, a, r, nodes_per_circle, outer_nodes))


@settings(max_examples=300, deadline=None)
@given(arc_queries())
def test_retracted_cluster_nodes_match_former_arc_code(query):
    dom, a, r = query
    poles, bnds = retracted_cluster_nodes(dom, a, r)
    ref_poles, ref_bnds = reference_retracted_cluster_nodes(dom, a, r)
    assert np.array_equal(poles, ref_poles) and np.array_equal(bnds, ref_bnds)


def test_arc_angles_cases():
    dom = CircleDomain.build(disks=[(0.5 + 0j, 0.1)])
    assert np.array_equal(dom.arc_angles(0, 0.5 + 0j, 0.1, 8, 3), 2.0 * math.pi * np.arange(8) / 8)
    assert dom.arc_angles(0, 0.5 + 0j, 0.05, 8, 3) is None  # center of a wider circle
    assert dom.arc_angles(0, 0.52 + 0j, 0.05, 8, 3) is None  # inside, rim out of reach
    assert dom.arc_angles(0, 0.9 + 0j, 0.2, 8, 3) is None  # out of reach
    theta = dom.arc_angles(0, 0.6 + 0j, 0.1, 8, 3)  # a on the rim: the facing third
    assert theta.size == 3 and theta[1] == 0.0
    assert theta[2] == -theta[0] == pytest.approx(math.acos(0.5), rel=1e-15)


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


#: samples per circle of the dense boundary oracle below
SPECTRUM_SAMPLES = 4096


@st.composite
def spectrum_queries(draw):
    """(domain, boundary point a, radii): radii log-uniform or next to an end
    of a's spectrum, on Zalcman domains (superset and sandwich), the disk and
    the annulus."""
    dom = draw(st.sampled_from(CONTAINS_DOMAINS))
    a = draw(boundary_points(dom))
    spec = dom.distance_spectrum(a)
    ends = [e for e in spec.intervals.ravel().tolist() + spec.points.tolist() if e > 0.0]
    radius = st.one_of(
        st.floats(math.log(1e-13), math.log(2.5)).map(math.exp),
        st.tuples(st.sampled_from(ends), st.floats(-0.01, 0.01)).map(lambda t: t[0] * math.exp(t[1])),
    )
    return dom, a, draw(st.lists(radius, min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(spectrum_queries())
# the unit circle's samples at a = 0 round to within 2**-52 below 1
@example((WINDOW_DOMAINS[0], 0j, [0.9999999999999998]))
def test_distance_spectrum_matches_dense_sampling(query):
    dom, a, radii = query
    spec = dom.distance_spectrum(a)
    # per circle: the sampled distances, and the resolution R = pi rho / N
    # (every point of the circle lies within arc length R of a sample, and
    # |z - a| is 1-Lipschitz in z)
    ring = np.exp(2j * math.pi * np.arange(SPECTRUM_SAMPLES) / SPECTRUM_SAMPLES)
    circles = list(zip(dom.circle_centers.tolist(), dom.circle_radii.tolist()))
    dists = [np.abs(c + rho * ring - a) for c, rho in circles]
    res = [math.pi * rho / SPECTRUM_SAMPLES for _, rho in circles]
    if dom.include_origin:
        dists.append(np.array([abs(a)]))
        res.append(0.0)
    d = np.concatenate(dists)
    # rounding of the sample positions and of the spectrum ends
    tol = 16 * np.finfo(float).eps * (abs(a) + d + 1e-300)
    ivs, pts = spec.intervals, spec.points
    inside = np.any((ivs[:, :1] - tol <= d) & (d <= ivs[:, 1:] + tol), axis=0)
    inside |= np.any(np.abs(pts[:, None] - d) <= tol, axis=0)
    assert inside.all(), d[~inside][:5]
    sups = spec.sup_at_most(np.asarray(radii))
    for r, sup in zip(radii, sups.tolist()):
        # no sampled distance <= r passes sup, and sup is within one
        # resolution of a sampled distance <= r + resolution
        # a sample counts as within r only when it lies below r by more
        # than its own rounding bound, the one in ``tol``: a sample of a
        # circle beyond r may round down onto r
        best = max(
            (float(x[r - x > 16 * np.finfo(float).eps * (abs(a) + x)].max(initial=0.0)) for x in dists),
            default=0.0,
        )
        near = max(float(x[x <= r + R].max(initial=-math.inf)) + R for x, R in zip(dists, res))
        slack = 16 * np.finfo(float).eps * (abs(a) + r)
        assert best <= sup + slack
        assert sup <= max(near, 0.0) + slack


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


def test_cantor_nesting_invariant():
    c = build_cantor(0.15, 1.7, J=5)
    for j in range(1, 6):
        lefts_j, lj = c.intervals(j)
        lefts_p, lp = c.intervals(j - 1)
        for lo in lefts_j:
            assert np.any((lefts_p <= lo + 1e-15) & (lo + lj <= lefts_p + lp + 1e-15))


def test_cantor_rule_violation():
    with pytest.raises(RuleViolationError):
        _assemble_cantor(0.1, 0.0, 1, np.array([0.1, 0.05]))  # exactly half is not allowed
    with pytest.raises(ValueError):
        build_cantor(0.6, 2.0, J=2)


def reference_cantor_endpoint_words(J):
    words = []
    for mask in range(2**J):
        bits = tuple((mask >> (J - 1 - j)) & 1 for j in range(J))
        words.append(bits + (0,))
        words.append(bits + (1,))
    return words


def reference_cantor_pair_distances(words, lengths):
    J = len(lengths) - 1
    steps = np.array([lengths[j - 1] - lengths[j] for j in range(1, J + 1)] + [lengths[J]])
    W = np.asarray(words, dtype=float)
    diff = W[:, None, :] - W[None, :, :]
    order = np.argsort(np.abs(steps))
    d = np.zeros(diff.shape[:2])
    for idx in order:
        d += diff[:, :, idx] * steps[idx]
    return np.abs(d)


def reference_left_end_distances(C):
    """The interval left ends' distances as ``cantor_transfinite_estimate``
    computed them inline."""
    J, lengths = C.J, C.lengths
    steps = np.array([lengths[j - 1] - lengths[j] for j in range(1, J + 1)])
    words = np.array([[(a >> (J - 1 - j)) & 1 for j in range(J)] for a in range(2**J)], dtype=float)
    diff = words[:, None, :] - words[None, :, :]
    dmat = np.zeros((2**J, 2**J))
    for idx in np.argsort(np.abs(steps)):
        dmat += diff[:, :, idx] * steps[idx]
    return np.abs(dmat)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 0.2), st.floats(1.5, 2.5), st.integers(1, 5))
def test_endpoint_distances_match_former_copies(l0, alpha, J):
    C = build_cantor(l0, alpha, J)
    words, dist = C.endpoint_distances()
    assert words == reference_cantor_endpoint_words(J)
    assert np.array_equal(dist, reference_cantor_pair_distances(words, C.lengths))
    assert np.array_equal(dist[::2, ::2], reference_left_end_distances(C))


@st.composite
def dyadic_lengths(draw):
    """l_0..l_J (J <= 3) as exact fractions: dyadic, each below half the last."""
    lengths = [Fraction(draw(st.integers(1, 63)), 128)]
    for _ in range(draw(st.integers(1, 3))):
        lengths.append(lengths[-1] * Fraction(draw(st.integers(1, 15)), 32))
    return lengths


@settings(max_examples=100, deadline=None)
@given(dyadic_lengths())
def test_endpoint_distances_brute_force(lengths):
    J = len(lengths) - 1
    C = _assemble_cantor(float(lengths[0]), 0.0, J, np.array([float(x) for x in lengths]))
    words, dist = C.endpoint_distances()
    steps = [lengths[j - 1] - lengths[j] for j in range(1, J + 1)] + [lengths[J]]
    pos = [sum((b * s for b, s in zip(w, steps)), Fraction(0)) for w in words]
    # the words name every endpoint, left to right
    assert all(p < q for p, q in zip(pos, pos[1:]))
    lefts, lj = C.intervals()
    assert np.unique(np.concatenate([lefts, lefts + lj])).tolist() == [float(p) for p in pos]
    for i, p in enumerate(pos):
        for j, q in enumerate(pos):
            exact = abs(p - q)
            assert abs(Fraction(dist[i, j]) - exact) <= (J + 1) * Fraction(2) ** -53 * exact


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
    ends = list(u.intervals.ravel()) + list(u.points)
    qs = ends + list(extra)
    if ends:
        qs.append(min(ends) - 0.125)
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


def inf_at_least_loop(u, lo):
    """Brute-force reference: lo when an interval covers it, else the
    smallest interval start or point above it."""
    cands = [p for p in u.points.tolist() if p >= lo]
    for a, b in u.intervals.tolist():
        if a <= lo <= b:
            cands.append(lo)
        elif a >= lo:
            cands.append(a)
    return min(cands) if cands else None


@settings(max_examples=200, deadline=None)
@given(unions, st.lists(st.floats(-1.0, 6.0), max_size=4))
def test_inf_at_least_matches_loop(u, extra):
    for q in union_queries(u, extra):
        assert u.inf_at_least(q) == inf_at_least_loop(u, q)


@settings(max_examples=200, deadline=None)
@given(unions, st.lists(st.floats(-1.0, 6.0), max_size=4))
def test_intersects_matches_loop(u, extra):
    qs = union_queries(u, extra)
    for lo in qs:
        for hi in qs:
            if lo <= hi:
                expect = any(max(a, lo) <= min(b, hi) for a, b in u.intervals.tolist()) or any(
                    lo <= p <= hi for p in u.points.tolist()
                )
                assert u.intersects(lo, hi) == expect


@settings(max_examples=200, deadline=None)
@given(unions, st.lists(st.floats(-1.0, 6.0), max_size=4), st.sampled_from([0.0, 1e-9, 0.125]))
def test_contains_matches_loop(u, extra, tol):
    for q in union_queries(u, extra):
        expect = any(a - tol <= q <= b + tol for a, b in u.intervals.tolist()) or any(
            abs(p - q) <= tol for p in u.points.tolist()
        )
        assert u.contains(q, tol) == expect


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
