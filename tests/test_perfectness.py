import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berglab import perfectness
from berglab.domains import (
    BOUNDARY_TOL,
    CircleDomain,
    ScaleFunction,
    _assemble_cantor,
    build_cantor,
    build_zalcman,
)
from berglab.errors import (
    AnnulusEmptyError,
    BerglabError,
    NonDisjointError,
    NotBoundaryPointError,
    PreconditionViolatedError,
    ScaleUnderflowError,
)
from berglab.perfectness import (
    best_constant_profile,
    cantor_U_check,
    chain_capacity_comparison,
    classify_weak_perfectness,
    condition_C_probe,
    condition_C_profile,
    default_boundary_samples,
    log_spaced_radii,
    pommerenke_construct,
    resolved_r_min,
    uc_report,
)
from claim_checks import cantor_capacity_bound


@pytest.fixture(scope="module")
def h1_domain():
    return build_zalcman(ScaleFunction.h1(1.5), 0.01, K=10)


@pytest.fixture(scope="module")
def h2_domain():
    return build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=40)


# ---------------------------------------------------------------------------
# annulus condition
# ---------------------------------------------------------------------------


def annulus_met(domain, a, r, c, h) -> bool:
    """The exact annulus test at (a, r): the largest boundary distance at
    most r from a reaches the inner radius c*h(r)."""
    return domain.distance_spectrum(a).sup_at_most(r) >= c * h.value(r)


def test_annulus_satisfied_at_origin():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=4)
    h = ScaleFunction.h1(2.0)
    r = dom.xs[0] - dom.rs[0]  # 0.09
    assert annulus_met(dom, 0j, r, 1.0, h)
    witness, witness_distance, _ = dom.witness_at_distance(0j, h.value(r), r)
    # h(0.09) = 0.0081 <= witness distance <= 0.09; disk 2 rim qualifies
    assert 0.0081 <= witness_distance <= r
    assert dom.nearest_boundary_point(witness)[1] <= 1e-9


def test_annulus_unit_disk_always_satisfied():
    dom = CircleDomain.build()
    h = ScaleFunction.h1(2.0)
    assert annulus_met(dom, 1.0 + 0j, 0.1, 1.0, h)
    # c_star = sup_at_most(r) / h(r)
    assert dom.distance_spectrum(1.0 + 0j).sup_at_most(0.1) / h.value(0.1) >= 1.0


def test_annulus_fails_in_scale_gap():
    # around a = 0, radii x_k/2 with a weakened exponent miss the boundary
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=6)
    h_weak = ScaleFunction.h1(1.5)
    k = 5
    r = dom.xs[k - 1] / 2.0
    c = 1.0 / k
    assert not annulus_met(dom, 0j, r, c, h_weak)
    assert c * h_weak.value(r) > dom.xs[k] + dom.rs[k]  # annulus floats above disk k+1


def test_annulus_exactness_vs_dense_sampling(h1_domain):
    dom = h1_domain
    h = ScaleFunction.h1(1.5)
    theta = np.linspace(0, 2 * math.pi, 40000, endpoint=False)
    cloud = [np.array([0j])]
    for c0, rho in zip(dom.centers, dom.radii):
        cloud.append(c0 + rho * np.exp(1j * theta))
    cloud.append(np.exp(1j * theta))
    cloud = np.concatenate(cloud)
    rng = np.random.default_rng(3)
    # random boundary base points: origin, hole rims, outer circle
    bases = [0j]
    for _ in range(7):
        k = rng.integers(0, dom.K)
        ang = rng.uniform(0, 2 * math.pi)
        bases.append(complex(dom.centers[k] + dom.radii[k] * np.exp(1j * ang)))
    agree = 0
    total = 0
    for a in bases:
        dists = np.abs(cloud - a)
        for r in np.exp(rng.uniform(math.log(1e-6), math.log(0.4), 13)):
            c = float(rng.uniform(0.1, 1.0))
            lo = c * h.value(float(r))
                  # dense-sampling verdict; resolution 2pi*rho/4e4 per circle
            brute = bool(np.any((dists >= lo * (1 - 1e-9)) & (dists <= r * (1 + 1e-9))))
            total += 1
            agree += int(annulus_met(dom, a, float(r), c, h) == brute)
    assert agree == total


# ---------------------------------------------------------------------------
# best-constant profile and classification
# ---------------------------------------------------------------------------


def test_profile_positive_for_matching_family():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=6)
    cs, table = best_constant_profile(dom, ScaleFunction.h1(2.0))
    assert cs > 0.0
    assert len(table["c_star"]) > 100


def test_profile_unit_disk_uniformly_perfect():
    dom = CircleDomain.build()
    # h2's radii stop at epsilon0 / 2 = 1/(2e); up to 0.5 the inf was 0.693
    for h in (ScaleFunction.h1(2.0), ScaleFunction.h2(1.0)):
        cs, _ = best_constant_profile(dom, h)
        assert cs >= 1.0


def test_profile_decays_for_weakened_exponent():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=6)
    h_weak = ScaleFunction.h1(1.9)
    spec0 = dom.distance_spectrum(0j)
    vals = []
    for k in range(2, 6):
        r = dom.xs[k - 1] / 2.0
        vals.append(spec0.sup_at_most(r) / h_weak.value(r))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.05 * vals[0]


def test_classify_h1(h1_domain):
    rep, _ = classify_weak_perfectness(h1_domain, ScaleFunction.h1(1.5), [0.1])
    assert rep["satisfied"] and rep["c_star_global"] > 0
    f = rep["failures"][0]
    assert f["failed"]
    assert f["witnesses"]  # explicit witness radii
    for w in f["witnesses"]:
        assert w["annulus_lo"] > w["gap_top"]


def test_classify_h2(h2_domain):
    rep, _ = classify_weak_perfectness(h2_domain, ScaleFunction.h2(1.0), [0.5])
    assert rep["satisfied"] and rep["c_star_global"] > 0
    assert rep["failures"][0]["failed"]


def test_classify_annulus_complement_domain():
    dom = CircleDomain.build([(0j, 0.5)])
    for h in (ScaleFunction.h1(1.5), ScaleFunction.h2(1.0)):
        cs, table = best_constant_profile(dom, h)
        # every sample lies on a whole circle that reaches every r: c_star = r/h(r)
        want = [r / h.value(r) for r in table["r"].tolist()]
        assert table["c_star"].tolist() == want and cs == min(want)
        # the radii stop at epsilon0 / 2: 0.5 for h1, 1/(2e) for h2, whose
        # h(r) passes r above 1/e
        assert cs >= 1.0


def test_classify_witnesses_are_empty_gaps_below_each_disk(h1_domain, h2_domain):
    # the closed form: r = x_k/2 lies in the gap between disk k+1
    # (top x_{k+1} + r_{k+1}) and disk k (bottom x_k - r_k) seen from 0
    for dom, h, eps in ((h1_domain, ScaleFunction.h1(1.5), 0.1), (h2_domain, ScaleFunction.h2(1.0), 0.5)):
        rep, _ = classify_weak_perfectness(dom, h, [eps])
        witnesses = rep["failures"][0]["witnesses"]
        assert [w["c"] for w in witnesses] == [1.0, 0.5, 0.25]
        deeper = build_zalcman(h, dom.x1, dom.K + 1).distance_spectrum(0j)
        h_weak = ScaleFunction.of(h.family, h.param - eps)
        xs, rs = dom.xs, dom.rs
        for w in witnesses:
            k = w["k"]
            assert 1 <= k <= dom.K - 1 and w["r"] == xs[k - 1] / 2.0
            assert w["gap_top"] == xs[k] + rs[k]
            assert w["r"] < xs[k - 1] - rs[k - 1]
            assert w["annulus_lo"] == w["c"] * h_weak.value(w["r"]) and w["annulus_lo"] > w["gap_top"]
            # the annulus also misses the disks the truncation cut
            assert not deeper.intersects(w["annulus_lo"], w["r"])
            # and it is the first such scale for this c
            for j in range(1, k):
                r = xs[j - 1] / 2.0
                assert dom.distance_spectrum(0j).sup_at_most(r) >= w["c"] * h_weak.value(r)


def test_classify_tail_is_c_star_at_the_last_witness_radii(h1_domain):
    h_weak = ScaleFunction.h1(1.4)
    rep, _ = classify_weak_perfectness(h1_domain, ScaleFunction.h1(1.5), [0.1])
    spec0 = h1_domain.distance_spectrum(0j)
    radii = [h1_domain.xs[k - 1] / 2.0 for k in range(h1_domain.K - 4, h1_domain.K)]
    assert rep["failures"][0]["c_star_tail"] == [spec0.sup_at_most(r) / h_weak.value(r) for r in radii]


def test_classify_one_hole_has_no_witness_scale():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=1)
    f = classify_weak_perfectness(dom, ScaleFunction.h1(1.5), [0.1])[0]["failures"][0]
    assert f["witnesses"] == [] and f["c_star_tail"] == [] and not f["failed"]


# ---------------------------------------------------------------------------
# the c* profile at its breakpoints
# ---------------------------------------------------------------------------


def profile_rows(dom, h):
    """(samples, table, per-sample row slices) of ``best_constant_profile``."""
    cs, table = best_constant_profile(dom, h)
    a = default_boundary_samples(dom)
    a_rows = table["a_re"] + 1j * table["a_im"]
    # rows come samples outer, and each sample's last row sits at r0
    ends = np.flatnonzero(table["r"] == table["r"][-1]) + 1
    assert ends.size == a.size and np.array_equal(a_rows[ends - 1], a)
    return cs, table, a, [slice(lo, hi) for lo, hi in zip(np.r_[0, ends[:-1]], ends)]


@st.composite
def profile_domains(draw):
    """A random h1 or h2 scale function, on its own Zalcman domain or on a
    CircleDomain with up to four holes."""
    if draw(st.booleans()):
        h = ScaleFunction.h1(draw(st.floats(1.2, 3.0)))
    else:
        h = ScaleFunction.h2(draw(st.floats(0.3, 2.0)))
    if draw(st.booleans()):
        disks = []
        for _ in range(draw(st.integers(1, 4))):
            c = complex(draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7)))
            rho = draw(st.floats(1e-3, 0.2))
            assume(abs(c) + rho < 0.99 and all(abs(c - c2) > rho + r2 for c2, r2 in disks))
            disks.append((c, rho))
        return CircleDomain.build(disks, include_origin=draw(st.booleans())), h
    try:
        return build_zalcman(h, draw(st.floats(1e-4, 0.05)), draw(st.integers(2, 12))), h
    except (NonDisjointError, ScaleUnderflowError):
        assume(False)


@settings(max_examples=40, deadline=None)
@given(case=profile_domains(), seed=st.integers(0, 2**32 - 1))
def test_dense_radii_never_go_below_the_profile(case, seed):
    dom, h = case
    _, table, a, rows = profile_rows(dom, h)
    r_min, rng = resolved_r_min(dom), np.random.default_rng(seed)
    for ai, sl in zip(a.tolist(), rows):
        r0 = table["r"][sl][-1]
        r = np.exp(rng.uniform(math.log(r_min), math.log(r0), 4000))
        dense = dom.distance_spectrum(ai).sup_at_most(r) / np.exp(h.log_value(np.log(r)))
        assert dense.min() >= table["c_star"][sl].min() * (1.0 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(case=profile_domains())
def test_rows_sit_one_ulp_below_each_start(case):
    dom, h = case
    cs, table, a, rows = profile_rows(dom, h)
    assert cs == table["c_star"].min()
    r_min = resolved_r_min(dom)
    for ai, sl in zip(a.tolist(), rows):
        spec = dom.distance_spectrum(ai)
        r, c_star = table["r"][sl], table["c_star"][sl]
        # every row is c* at its own r
        assert c_star.tolist() == [spec.sup_at_most(x) / h.value(x) for x in r.tolist()]
        starts = np.sort(np.concatenate([spec.intervals[:, 0], spec.points]))
        t = np.nextafter(r[:-1], math.inf)
        assert np.array_equal(t, starts[(starts > r_min) & (starts <= r[-1])])
        # each row is within 1e-12 above the left limit p / h(t) of c* at t
        left = spec.sup_at_most(r[:-1]) / np.array([h.value(x) for x in t.tolist()])
        assert np.all(c_star[:-1] >= left) and np.all(c_star[:-1] <= left * (1.0 + 1e-12))


def brute_force_profile(dom, h):
    """The c* table from one pure-Python spectrum per sample: each circle's
    interval from Python complex arithmetic, a tuple sort and a list merge,
    the isolated origin dropped where a merged interval holds it, then a
    row one ulp below each start in (r_min, r0] and one at r0."""
    r_min, r0 = perfectness._profile_range(dom, h)
    table = {"a_re": [], "a_im": [], "r": [], "c_star": []}
    for a in default_boundary_samples(dom).tolist():
        intervals = []
        for c, rho in zip(dom.circle_centers.tolist(), dom.circle_radii.tolist()):
            d = abs(a - c)
            lo = abs(d - rho)
            intervals.append((0.0 if lo <= BOUNDARY_TOL * (abs(a) + abs(c) + rho) else lo, d + rho))
        merged = []
        for lo, hi in sorted(intervals):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        points = [abs(a)] if dom.include_origin else []
        points = [p for p in points if not any(lo <= p <= hi for lo, hi in merged)]
        starts = sorted(t for t in [lo for lo, _ in merged] + points if r_min < t <= r0)
        for r in [math.nextafter(t, 0.0) for t in starts] + [r0]:
            sup = max([min(hi, r) for lo, hi in merged if lo <= r] + [p for p in points if p <= r] + [0.0])
            for key, value in zip(table, (a.real, a.imag, r, sup / h.value(r))):
                table[key].append(value)
    return table


# touching intervals from the sample 0: [0, 0.5] and [0.5, 0.75] must merge
@example(case=(CircleDomain.build([(-0.25 + 0j, 0.25), (0.625 + 0j, 0.125)]), ScaleFunction.h1(1.5)))
# the samples on the hole's circle at |a| <= 0.4 hold the origin in [0, 0.4]
@example(case=(CircleDomain.build([(0.3 + 0j, 0.2)], include_origin=True), ScaleFunction.h1(1.5)))
# from the small hole's circle the origin lies alone in a gap, inside (r_min, r0]
@example(case=(CircleDomain.build([(0.3 + 0j, 0.2), (-0.15 + 0j, 0.02)], include_origin=True), ScaleFunction.h1(1.5)))
# no origin, holes off the real axis
@example(case=(CircleDomain.build([(0.25 + 0.25j, 0.1), (-0.4 + 0j, 0.05)]), ScaleFunction.h2(1.0)))
@settings(max_examples=60, deadline=None)
@given(case=profile_domains())
def test_profile_matches_a_brute_force_spectrum_per_sample(case):
    dom, h = case
    _, table = best_constant_profile(dom, h)
    want = brute_force_profile(dom, h)
    for key in ("a_re", "a_im", "r", "c_star"):
        assert table[key].tobytes() == np.array(want[key], dtype=float).tobytes(), key


@pytest.mark.parametrize("h, x1, K", [(ScaleFunction.h1(1.5), 1e-2, 7), (ScaleFunction.h2(1.0), 1e-3, 40)])
def test_origin_rows_match_the_closed_form(h, x1, K):
    # below disk k's start x_k - r_k the origin sees disk k+1's top
    # x_{k+1} + r_{k+1}; since x_{k+1} = h(x_k) the ratio tends to 1 from above
    dom = build_zalcman(h, x1, K)
    _, table, _, rows = profile_rows(dom, h)
    r, c_star = table["r"][rows[0]][:-1], table["c_star"][rows[0]][:-1]
    xs = dom.xs
    ks = range(K - 1, 1, -1)  # disks 2..K-1 start inside (x_K, x1/2], deepest first
    want = [(xs[k] + xs[k + 1]) / h.value(xs[k - 1] - xs[k]) for k in ks]
    assert np.array_equal(np.nextafter(r, 1.0), [xs[k - 1] - xs[k] for k in ks])
    assert np.allclose(c_star, want, rtol=1e-12, atol=0.0)
    assert np.all(c_star > 1.0) and c_star[0] - 1.0 < 0.1 * (c_star[-1] - 1.0)


@pytest.mark.parametrize("K, c_star_global", [(40, 1.00660), (120, 1.00161)])
def test_h2_profile_minimum_pinned(K, c_star_global):
    h = ScaleFunction.h2(1.0)
    cs, _ = best_constant_profile(build_zalcman(h, 1e-3, K), h)
    assert cs == pytest.approx(c_star_global, abs=5e-6)


# ---------------------------------------------------------------------------
# capacity density probes
# ---------------------------------------------------------------------------


def test_condition_C_contains_whole_disk(h1_domain):
    dom = h1_domain
    k = 2
    r = 1.05 * (dom.xs[k - 1] + dom.rs[k - 1])
    cap, ratio = condition_C_probe(dom, ScaleFunction.h1(1.5), 0j, r)
    assert cap >= dom.rs[k - 1]  # capacity of a contained disk
    assert ratio > 0


def test_condition_C_unit_disk_arc():
    dom = CircleDomain.build()
    cap, _ = condition_C_probe(dom, ScaleFunction.h1(2.0), 1.0 + 0j, 0.1)
    assert 0.025 <= cap <= 0.08  # quarter-chord scale for a short arc


def test_condition_C_isolated_origin_has_no_capacity():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=3)
    r = 0.5 * float(dom.xs[2] - dom.rs[2])  # below the deepest hole: only the origin
    assert condition_C_probe(dom, ScaleFunction.h1(1.5), 0j, r) == (0.0, 0.0)


@st.composite
def capacity_probes(draw):
    """(domain, h, boundary point a, radius r): a domain of
    ``profile_domains``, the origin or a point on one of its circles, and a
    log-uniform r below h's epsilon0."""
    dom, h = draw(profile_domains())
    i = draw(st.integers(-1 if dom.include_origin else 0, dom.circle_radii.size - 1))
    a = 0j
    if i >= 0:
        a = complex(dom.circle_centers[i] + dom.circle_radii[i] * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    return dom, h, a, math.exp(draw(st.floats(math.log(1e-12), math.log(0.999 * h.epsilon0))))


@settings(max_examples=150, deadline=None)
@given(capacity_probes())
def test_condition_C_lies_between_whole_holes_and_r(probe):
    # a hole wholly inside disk(a, r) has capacity rho, and the complement
    # piece lies in disk(a, r), whose capacity is r
    dom, h, a, r = probe
    cap, ratio = condition_C_probe(dom, h, a, r)
    _, _, far = dom._reach(a)
    holes = dom.circle_radii[:-1][far[:-1] <= r]
    assert holes.max(initial=0.0) <= cap <= r
    assert ratio == cap / h.value(r)


@pytest.mark.parametrize("h, x1, K", [(ScaleFunction.h1(1.2), 1e-2, 24), (ScaleFunction.h2(1.0), 1e-3, 40)])
def test_condition_C_twelve_disks_read_the_all_disk_bound(monkeypatch, h, x1, K):
    dom = build_zalcman(h, x1, K)
    radii = 1.25 * (dom.xs[: K - 1] + dom.rs[: K - 1])
    twelve = condition_C_profile(dom, h, 0j, radii)["table"]["cap"]
    monkeypatch.setattr(perfectness, "PROBE_DISKS", dom.circle_radii.size)
    every = condition_C_profile(dom, h, 0j, radii)["table"]["cap"]
    assert np.all(twelve <= every) and np.allclose(twelve, every, rtol=1e-6, atol=0.0)


def test_condition_C_slope_h1(h1_domain):
    dom = h1_domain
    radii = [1.25 * float(dom.xs[k - 1] + dom.rs[k - 1]) for k in range(2, 8)]
    prof = condition_C_profile(dom, ScaleFunction.h1(1.5), 0j, radii)
    assert prof["slope"] <= 1.0 / (2.0 - 1.5) + 0.2
    assert prof["ratio_inf"] > 0


# ---------------------------------------------------------------------------
# branching chain certificates
# ---------------------------------------------------------------------------


def test_chain_depth_one():
    dom = build_zalcman(ScaleFunction.h1(1.5), 0.01, K=6)
    cert = pommerenke_construct(dom, 0j, c=1.0, k=1, s1=1e-3, h=ScaleFunction.h1(1.5))
    assert cert.points.size == 2
    assert abs(cert.points[0] - cert.points[1]) >= cert.s[0]
    assert cert.pairwise_ok


def test_chain_depth_five(h1_domain):
    cert = pommerenke_construct(h1_domain, 0j, c=1.0, k=5, s1=1e-3, h=ScaleFunction.h1(1.5))
    assert cert.points.size == 32
    assert cert.distinct
    assert cert.pairwise_ok and cert.within_seed_ball
    comp = chain_capacity_comparison(h1_domain, cert, ScaleFunction.h1(1.5))
    assert comp["floor_below_measured"]


def test_chain_floor_monotone_in_depth(h1_domain):
    floors = []
    for k in (2, 3, 4, 5):
        cert = pommerenke_construct(h1_domain, 0j, c=1.0, k=k, s1=1e-3, h=ScaleFunction.h1(1.5))
        floors.append(cert.capacity_floor)
    assert all(a >= b for a, b in zip(floors, floors[1:]))


def test_chain_annulus_empty_error():
    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    # s1 in the gap below x_4 structure: the first window [5 s_2, s_1] has
    # lower edge above every resolved component reachable from 0
    h_weak = ScaleFunction.h1(1.2)
    with pytest.raises(AnnulusEmptyError) as exc:
        pommerenke_construct(dom, 0j, c=5.0, k=2, s1=float(dom.xs[2]) / 2.0, h=h_weak)
    assert exc.value.level == 0


def test_chain_requires_boundary_start(h1_domain):
    with pytest.raises(NotBoundaryPointError):
        pommerenke_construct(h1_domain, 0.5 + 0.5j, c=1.0, k=2, s1=1e-3, h=ScaleFunction.h1(1.5))


def test_chain_from_a_point_on_a_deep_rim():
    # a = x_3 + r_3 lies on disk 3's rim.  The last windows, [1e-48, 1e-32]
    # at level 5, lie far below the rounding of a chain point's |z - c| -
    # rho; only the exact [0, 2 rho] of the point's own circle (on_circle)
    # keeps the chain on the rim, and without it level 5 is empty
    h = ScaleFunction.h1(1.5)
    dom = build_zalcman(h, 1e-2, K=10)
    cert = pommerenke_construct(dom, complex(dom.xs[2] + dom.rs[2]), c=1.0, k=6, s1=1e-3, h=h)
    assert cert.points.size == 64
    assert cert.distinct and cert.pairwise_ok and cert.within_seed_ball


def test_chain_scale_underflow_is_an_error():
    # s_6 underflows to 0.0, which passed the halving check, and the chain
    # certified a zero capacity floor, with a warning from log(0)
    h = ScaleFunction.h1(1.5)
    dom = build_zalcman(h, 1e-2, K=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleUnderflowError, match="s_6 underflows"):
            pommerenke_construct(dom, 6.731703824145064e-35 + 0j, c=1.0, k=6, s1=2.243901274715021e-35, h=h)


@dataclass(frozen=True)
class FormerChainPoint:
    circle: Optional[int]  # None for the origin
    angle_base: float
    steps: tuple
    z: complex


def former_chain_distance(p, q, domain):
    if p.circle is not None and p.circle == q.circle:
        rho = float(domain.circle_radii[p.circle])
        if p.angle_base == q.angle_base:
            diffs = [a - b for a, b in zip(p.steps, q.steps)]
            dang = 0.0
            for t in reversed(diffs):
                dang += t
        else:
            dang = (p.angle_base - q.angle_base) + (math.fsum(p.steps) - math.fsum(q.steps))
        return 2.0 * rho * abs(math.sin(0.5 * dang))
    return abs(p.z - q.z)


def former_chain_image(domain, p, lo, hi):
    z, d, i = domain.witness_at_distance(p.z, lo, hi, on_circle=p.circle)
    level = len(p.steps)
    if i is None:
        return FormerChainPoint(None, 0.0, (0.0,) * (level + 1), z)
    c0, rho = complex(domain.circle_centers[i]), float(domain.circle_radii[i])
    if i == p.circle:
        steps = p.steps + (2.0 * math.asin(min(1.0, d / (2.0 * rho))),)
        ang = p.angle_base + math.fsum(steps)
        return FormerChainPoint(i, p.angle_base, steps, c0 + rho * complex(math.cos(ang), math.sin(ang)))
    return FormerChainPoint(i, math.atan2((z - c0).imag, (z - c0).real), (0.0,) * (level + 1), z)


def former_chain(domain, a, c, k, s1, h):
    """(points, pairwise_ok, distinct, within_seed_ball, s) of the former
    construction: per-point objects and a per-pair loop."""
    if not domain.is_boundary(a):
        raise NotBoundaryPointError(a)
    _, _, i = domain.nearest_boundary_point(a)
    if i is None:
        points = [FormerChainPoint(None, 0.0, (), 0j)]
    else:
        c0 = complex(domain.circle_centers[i])
        points = [FormerChainPoint(i, math.atan2((a - c0).imag, (a - c0).real), (), a)]
    s = np.empty(k + 1)
    s[0] = s1
    for l in range(1, k + 1):
        s[l] = (c / 5.0) * h.value(s[l - 1])
        if not s[l] > 0.0:
            raise ScaleUnderflowError(l)
        if not s[l] <= 0.5 * s[l - 1]:
            raise PreconditionViolatedError(l)
    for l in range(k):
        lo, hi = 5.0 * s[l + 1], s[l]
        new_points = []
        for p in points:
            try:
                img = former_chain_image(domain, p, lo, hi)
            except ValueError as exc:
                raise AnnulusEmptyError(l, p.z, lo, hi) from exc
            new_points += [FormerChainPoint(p.circle, p.angle_base, p.steps + (0.0,), p.z), img]
        points = new_points
    pairwise_ok = distinct = True
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dij = former_chain_distance(points[i], points[j], domain)
            if dij <= 0.0:
                distinct = False
            if dij < s[k - (i ^ j).bit_length() + 1]:
                pairwise_ok = False
    pts = np.asarray([p.z for p in points], dtype=complex)
    return pts, pairwise_ok and distinct, distinct, bool(np.all(np.abs(pts - a) <= 2.0 * s[0])), s[1:]


@st.composite
def chain_cases(draw):
    """(domain, h, a, c, k, s1): an h1 or h2 Zalcman domain, a start at the
    origin, on a hole's rim (its outermost point x_i + r_i included) or on
    the unit circle, and a seed scale at most x1."""
    if draw(st.booleans()):
        h = ScaleFunction.h1(draw(st.floats(1.2, 3.0)))
    else:
        h = ScaleFunction.h2(draw(st.floats(0.3, 2.0)))
    try:
        dom = build_zalcman(h, draw(st.floats(1e-4, 0.05)), draw(st.integers(2, 12)))
    except (NonDisjointError, ScaleUnderflowError):
        assume(False)
    i = draw(st.integers(-1, dom.circle_radii.size - 1))  # -1: the origin
    a = 0j
    if i >= 0:
        theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)))
        a = complex(dom.circle_centers[i] + dom.circle_radii[i] * np.exp(1j * theta))
    s1 = dom.x1 * 10.0 ** draw(st.floats(-4.0, 0.0))
    return dom, h, a, draw(st.sampled_from([0.5, 1.0])), draw(st.integers(1, 7)), s1


H1_K10 = build_zalcman(ScaleFunction.h1(1.5), 1e-2, K=10)
H2_K40 = build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=40)


@settings(max_examples=60, deadline=None)
@example(case=(H1_K10, H1_K10.h, complex(H1_K10.xs[2] + H1_K10.rs[2]), 1.0, 6, 1e-3))
@example(case=(H2_K40, H2_K40.h, 0j, 0.5, 7, 1e-4))
@given(case=chain_cases())
def test_chain_matches_the_former_per_pair_loop(case):
    dom, h, a, c, k, s1 = case
    try:
        want = former_chain(dom, a, c, k, s1, h)
    except BerglabError as exc:
        with pytest.raises(type(exc)) as got:
            pommerenke_construct(dom, a, c, k, s1, h)
        if isinstance(exc, AnnulusEmptyError):
            assert (got.value.level, got.value.center) == (exc.level, exc.center)
        return
    cert = pommerenke_construct(dom, a, c, k, s1, h)
    assert cert.points.tobytes() == want[0].tobytes()
    assert (cert.pairwise_ok, cert.distinct, cert.within_seed_ball) == want[1:4]
    assert cert.s.tobytes() == want[4].tobytes()


# ---------------------------------------------------------------------------
# aggregated reports
# ---------------------------------------------------------------------------


def test_uc_report_h1(h1_domain):
    h = ScaleFunction.h1(1.5)
    rep, _ = uc_report(h1_domain, h, classify_weak_perfectness(h1_domain, h, [0.1])[0])
    assert rep["U_satisfied"] and rep["U_weakened_failed"]
    assert "C_slope_ok" not in rep
    assert rep["C_exponent_bound"] == 2.0


def test_uc_report_h2(h2_domain):
    h = ScaleFunction.h2(1.0)
    rep, _ = uc_report(h2_domain, h, classify_weak_perfectness(h2_domain, h, [0.5])[0])
    assert rep["U_satisfied"] and rep["U_weakened_failed"]
    assert rep["C_ratio_inf"] > 0.0 and "C_ratio_positive" not in rep


def test_cantor_U_check_passes():
    c = build_cantor(0.1, 2.0, J=6)
    rep = cantor_U_check(c)
    assert rep["passed"]
    assert rep["checks"] > 1000


def reference_cantor_U_check(C):
    """The former check: one scalar searchsorted per (endpoint, radius)."""
    alpha = C.alpha
    c = 0.5 * 2.0 ** (-1.0 - alpha)
    r_grid = log_spaced_radii(2.0 * float(C.lengths[C.J - 1]) * 1.0001, 1.9 * C.l0)
    words, dist = C.endpoint_distances()
    checks = 0
    failures = []
    for i in range(len(words)):
        d = np.sort(dist[i])
        d = d[d > 0.0]
        for r in r_grid:
            lo, hi = c * r**alpha, r
            j = np.searchsorted(d, lo, side="left")
            checks += 1
            if not (j < d.size and d[j] <= hi):
                failures.append({"word": words[i], "r": float(r)})
    return {"alpha": alpha, "c": c, "checks": checks, "passed": not failures, "failures": failures[:10]}


@pytest.mark.parametrize(
    "C",
    [
        build_cantor(0.1, 2.0, J=4),
        build_cantor(0.1, 2.0, J=6),
        build_cantor(0.2, 1.5, J=5),
        build_cantor(0.1, 1.5, J=8),
        _assemble_cantor(0.1, 0.0, 4, np.array([0.1, 0.04, 0.01, 0.002, 4e-4])),  # h = 1, c = 1/4: every check fails
        _assemble_cantor(0.4, 0.0, 3, np.array([0.4, 0.1, 0.02, 0.004])),  # fails only at r below 1/4
    ],
    ids=["power-J4", "power-J6", "power-alpha1.5", "power-J8", "table-all-fail", "table-some-fail"],
)
def test_cantor_U_check_matches_former_loop(C):
    assert cantor_U_check(C) == reference_cantor_U_check(C)


def test_cantor_capacity_floor_vanishes():
    # deeper truncations certify ever-smaller capacity for the alpha=2 set
    vals = [cantor_capacity_bound(build_cantor(0.1, 2.0, J=j)) for j in (2, 4, 6, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-7
