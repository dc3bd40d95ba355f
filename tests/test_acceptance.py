"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible under pytest -s or in the
failure report).  Heavy shared objects (Gram systems for the sweep domains)
are module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from basis_oracle import spec_functions
from berglab import asymptotics, bergman, cli, perfectness
from berglab.capacity import (
    capacity_via_transfinite,
    circle_nodes,
    equilibrium_measure,
    nth_diameter,
    segment_nodes,
)
from berglab.domains import CircleDomain, ScaleFunction, build_cantor, build_zalcman
from claim_checks import (
    cantor_capacity_bound,
    cantor_transfinite_estimate,
    cauchy_transform_norm_check,
    scaling_law_check,
    subadditivity_check,
)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def h1_12_domain():
    return build_zalcman(ScaleFunction.h1(1.2), 1e-2, K=12)


@pytest.fixture(scope="module")
def h1_12_gram(h1_12_domain):
    return bergman.assemble_gram(h1_12_domain, bergman.default_basis(h1_12_domain))


@pytest.fixture(scope="module")
def h2_40_domain():
    return build_zalcman(ScaleFunction.h2(1.0), 1e-3, K=40)


@pytest.fixture(scope="module")
def h2_40_gram(h2_40_domain):
    return bergman.assemble_gram(h2_40_domain, bergman.default_basis(h2_40_domain))


@pytest.fixture(scope="module")
def h15_10_domain():
    return build_zalcman(ScaleFunction.h1(1.5), 1e-2, K=10)


def mid_band(dom, k):
    return math.sqrt(float(dom.xs[k - 1] * dom.xs[k]))


def profile_rows(columns: dict) -> list[dict]:
    """A distance profile's columns as one dict per sample."""
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


# ---------------------------------------------------------------------------


def test_criterion_01_closed_form_suite():
    t0 = time.monotonic()
    gs = bergman.assemble_gram(CircleDomain.build(), spec_functions(degree=8))
    k0 = bergman.subspace_kernel(gs, 0j)
    b0 = bergman.subspace_metric(gs, 0j).b_est
    k_half = bergman.subspace_kernel(gs, 0.5 + 0j)
    ann = CircleDomain.build([(0j, 0.5)])
    gs_ann = bergman.assemble_gram(ann, spec_functions(degree=8, pole_centers=(0j,), pole_order=8))
    k_ann = bergman.subspace_kernel(gs_ann, 0.7 + 0j)
    oracle = 0.0
    for n in range(-8, 9):
        nrm = 2 * math.pi * (math.log(2.0) if n == -1 else (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2))
        oracle += 0.7 ** (2 * n) / nrm
    wall = time.monotonic() - t0
    ok = (
        abs(k0 - 1 / math.pi) <= 1e-6 * (1 / math.pi)
        and abs(b0 - math.sqrt(2)) <= 1e-6 * math.sqrt(2)
        and abs(k_half - 1 / (math.pi * 0.75**2)) <= 5e-3 / (math.pi * 0.75**2)
        and abs(k_ann - oracle) <= 0.02 * oracle
        and wall < 60.0
    )
    assert report(
        "1 closed-form suite",
        ok,
        f"K(0)={k0:.8f}, b(0)={b0:.8f}, K(0.5) rel={abs(k_half - 1/(math.pi*0.75**2))*math.pi*0.75**2:.2e}, "
        f"annulus rel={abs(k_ann-oracle)/oracle:.2e}, {wall:.1f}s",
    )


def test_criterion_02_capacity_oracles():
    t0 = time.monotonic()
    ok = True
    details = []
    for r in (0.25, 1.0):
        est = capacity_via_transfinite(circle_nodes(0, r, 512), 64)
        ok &= abs(est.value - r) <= 0.08 * r
        details.append(f"cap(D_{r})={est.value:.4f}")
    for n in range(2, 17):
        d, _ = nth_diameter(circle_nodes(0, 1.0, 16 * n), n)
        ok &= abs(d - n ** (1.0 / (n - 1))) <= 1e-3 * n ** (1.0 / (n - 1))
    seg = capacity_via_transfinite(segment_nodes(-1, 1, 1024), 64)
    ok &= abs(seg.value - 0.5) <= 0.05 * 0.5
    details.append(f"cap(segment)={seg.value:.4f}")
    wall = time.monotonic() - t0
    ok &= wall < 120.0
    assert report("2 capacity oracles", ok, ", ".join(details) + f", {wall:.1f}s")


def test_criterion_03_equilibrium_solver():
    sol = equilibrium_measure(circle_nodes(0, 0.5, 128))
    w = sol.measure.weights
    uniform_ok = bool(np.all(np.abs(w - 1 / 128) <= 0.02 / 128))
    cap_ok = abs(sol.capacity - 0.5) <= 0.02 * 0.5
    kkt_ok = sol.kkt_residual <= 1e-3 * abs(sol.raw_energy) + 1e-6
    assert report(
        "3 equilibrium solver",
        uniform_ok and cap_ok and kkt_ok,
        f"cap={sol.capacity:.5f}, kkt={sol.kkt_residual:.2e}",
    )


def test_criterion_04_scaling_laws():
    rep = scaling_law_check(circle_nodes(0, 1.0, 512), t=0.3)
    dil_ok = rep["dilatation_ok"]
    sub = subadditivity_check(
        [circle_nodes(-0.5, 0.1, 128), circle_nodes(0.5, 0.1, 128)], d=4.0
    )
    sub_ok = sub["holds"] and sub["lhs"] < sub["rhs"]
    # the dilated measure of a dilated set is the pushforward, node for node
    nodes = circle_nodes(0, 0.5, 64)
    w = equilibrium_measure(nodes).measure.weights
    w_t = equilibrium_measure(0.3 * nodes).measure.weights
    weight_dev = float(np.max(np.abs(w - w_t)))
    node_ok = weight_dev <= 1e-9
    assert report(
        "4 scaling laws",
        dil_ok and sub_ok and node_ok,
        f"cap(tE)/(t cap(E))={rep['cap_tE'] / (0.3 * rep['cap_E']):.5f}, "
        f"weight dev={weight_dev:.1e}",
    )


def test_criterion_05_weak_perfectness(h15_10_domain, h2_40_domain):
    rep1, _ = perfectness.classify_weak_perfectness(h15_10_domain, ScaleFunction.h1(1.5), [0.1])
    h1_ok = (
        rep1["satisfied"]
        and rep1["c_star_global"] > 0
        and rep1["failures"][0]["failed"]
        and len(rep1["failures"][0]["witnesses"]) > 0
    )
    rep2, _ = perfectness.classify_weak_perfectness(h2_40_domain, ScaleFunction.h2(1.0), [0.5])
    h2_ok = (
        rep2["satisfied"]
        and rep2["c_star_global"] > 0
        and rep2["failures"][0]["failed"]
        and len(rep2["failures"][0]["witnesses"]) > 0
    )
    assert report(
        "5 weak perfectness",
        h1_ok and h2_ok,
        f"h1 c*={rep1['c_star_global']:.3f} weak-failed={rep1['failures'][0]['failed']}, "
        f"h2 c*={rep2['c_star_global']:.3f} weak-failed={rep2['failures'][0]['failed']}",
    )


def test_criterion_06_chain_certificate(h15_10_domain):
    h = ScaleFunction.h1(1.5)
    cert = perfectness.pommerenke_construct(h15_10_domain, 0j, c=1.0, k=5, s1=1e-3, h=h)
    comp = perfectness.chain_capacity_comparison(h15_10_domain, cert, h)
    ok = (
        cert.points.size == 32
        and cert.distinct
        and cert.pairwise_ok
        and comp["floor_below_measured"]
    )
    assert report(
        "6 chain certificate",
        ok,
        f"floor={cert.capacity_floor:.3e} <= 1.05*measured={comp['measured_cap']:.3e}",
    )


def test_criterion_07_kernel_asymptotics_h1(h1_12_domain, h1_12_gram):
    t0 = time.monotonic()
    dom = h1_12_domain
    wit, sub = [], []
    for k in range(3, 11):
        x = mid_band(dom, k)
        wit.append((x, bergman.witness_kernel_bound(dom, x)))
        sub.append((x, bergman.subspace_kernel(h1_12_gram, complex(-x))))
    f1 = asymptotics.fit_model(wit, "K1")
    band_ok = f1.band[1] / f1.band[0] <= 10.0
    pref_wit, margin_wit, _ = asymptotics.select_model(wit, ["K1", "K2"])
    pref_sub, margin_sub, _ = asymptotics.select_model(sub, ["K1", "K2"])
    stated_ok = band_ok and pref_wit == "K1" and margin_wit <= 0.8
    # supplementary: the same law at the deeper representable window, where
    # the proximity correction (x_k ** ((alpha-1)/2)) has died out
    deep = build_zalcman(ScaleFunction.h1(1.2), 1e-2, K=24)
    deep_samples = [
        (mid_band(deep, k), bergman.witness_kernel_bound(deep, mid_band(deep, k)))
        for k in range(15, 23)
    ]
    pref_deep, margin_deep, _ = asymptotics.select_model(deep_samples, ["K1", "K2"])
    deep_ok = pref_deep == "K1" and margin_deep <= 0.8
    wall = time.monotonic() - t0
    report(
        "7a kernel asymptotics H1 (stated window k=3..10)",
        stated_ok,
        f"K1 band={f1.band[1] / f1.band[0]:.2f}, witness prefers {pref_wit} (margin {margin_wit:.2f}), "
        f"subspace prefers {pref_sub} (margin {margin_sub:.2f}); outside the K1 asymptotic regime "
        f"(proximity factor x_k^0.1 = {float(dom.xs[2]) ** 0.1:.2f} at k=3)",
    )
    report(
        "7a' kernel asymptotics H1 (asymptotic window k=15..22, K=24)",
        deep_ok,
        f"prefers {pref_deep}, margin {margin_deep:.3f}, wall {wall:.0f}s",
    )
    assert band_ok and deep_ok and wall < 600.0
    assert stated_ok, (
        "K1 preference is unattainable at the stated window: the kernel there is dominated "
        "by the hole-proximity factor (1 + sqrt(x_{k+1}/x_k))^2, which decays only around "
        "k ~ 9 for alpha = 1.2; the same sweep at k = 15..22 prefers K1 decisively."
    )


def test_criterion_07_kernel_asymptotics_h2(h2_40_domain, h2_40_gram):
    t0 = time.monotonic()
    dom = h2_40_domain
    wit, sub = [], []
    for k in range(5, 36):
        x = mid_band(dom, k)
        wit.append((x, bergman.witness_kernel_bound(dom, x)))
        sub.append((x, bergman.subspace_kernel(h2_40_gram, complex(-x))))
    f2 = asymptotics.fit_model(wit, "K2")
    band_ok = f2.band[1] / f2.band[0] <= 10.0
    # model selection runs on the subspace kernel: the one-pole witness norm
    # grows like log(1/r_k) by construction and cannot see the loglog law
    pref, margin, _ = asymptotics.select_model(sub, ["K1", "K2"])
    wall = time.monotonic() - t0
    ok = band_ok and pref == "K2" and margin <= 0.8 and wall < 600.0
    assert report(
        "7b kernel asymptotics H2 (k=5..35)",
        ok,
        f"K2 witness band={f2.band[1] / f2.band[0]:.2f}, subspace prefers {pref} "
        f"(margin {margin:.2f}), wall {wall:.0f}s",
    )


def test_criterion_08_constructive_bound(h15_10_domain):
    dom = h15_10_domain
    wit_sweep = [
        (mid_band(dom, k), bergman.witness_kernel_bound(dom, mid_band(dom, k)))
        for k in range(2, 9)
    ]
    fit = asymptotics.fit_model(wit_sweep, "K1")
    ok = True
    details = []
    for k in range(3, 8):
        x = mid_band(dom, k)
        eq = bergman.equilibrium_witness_bound(dom, complex(-x))[0]
        wit = bergman.witness_kernel_bound(dom, x)
        model = fit.C * asymptotics.MODELS["K1"](x)
        ok &= eq <= 50.0 * wit and wit <= 50.0 * eq
        ok &= eq >= 1e-2 * model
        details.append(f"k={k}: eq/wit={eq / wit:.2f}")
    assert report("8 constructive bound", ok, ", ".join(details))


def test_criterion_09_distance_profiles(h1_12_domain, h1_12_gram, h2_40_domain, h2_40_gram):
    # H1: integrate from band 1 (so the cumulative length carries its
    # burn-in from -x_1), assess increments and preference on bands 3..10
    profile1 = bergman.distance_profile(h1_12_domain, range(1, 11), per_band=8, gram=h1_12_gram)
    incr1 = bergman.band_increments(profile1["k"], profile1["d_est"])
    rows1 = profile_rows(profile1)
    deltas = [incr1[k] for k in range(3, 11)]
    mean = sum(deltas) / len(deltas)
    incr_ok = all(0.05 <= d <= 20.0 for d in deltas) and all(
        mean / 3.0 <= d <= 3.0 * mean for d in deltas
    )
    samples1 = [(r["x"], r["d_est"]) for r in rows1 if r["k"] >= 3 and r["d_est"] > 0]
    pref1, _, _ = asymptotics.select_model(samples1, ["D1", "D2"])
    h1_stated_ok = incr_ok and pref1 == "D1"

    rows2 = profile_rows(bergman.distance_profile(h2_40_domain, range(1, 36), per_band=6, gram=h2_40_gram))
    per_band_d = {}
    for r in rows2:
        per_band_d[r["k"]] = r["d_est"]
    ks = sorted(k for k in per_band_d if k >= 5)
    slope, _, r2 = asymptotics.linear_fit_r2(ks, [per_band_d[k] for k in ks])
    samples2 = [(r["x"], r["d_est"]) for r in rows2 if r["k"] >= 5 and r["d_est"] > 0]
    pref2, _, _ = asymptotics.select_model(samples2, ["D1", "D2"])
    h2_ok = r2 >= 0.9 and pref2 == "D2"

    # supplementary: for the power family, loglog(1/x_k) is exactly affine in
    # the band index, so the law's observable content at desk scale is
    # "cumulative length linear in k with O(1) slope"; checked at the deep
    # window with a 4-band buffer above the truncation floor
    deep = build_zalcman(ScaleFunction.h1(1.2), 1e-2, K=24)
    gs_deep = bergman.assemble_gram(deep, bergman.default_basis(deep))
    rows_deep = profile_rows(bergman.distance_profile(deep, range(1, 21), per_band=8, gram=gs_deep))
    mid = {}
    for r in rows_deep:
        k = r["k"]
        if 13 <= k <= 20:
            x_mid = mid_band(deep, k)
            dev = abs(math.log(r["x"] / x_mid))
            if k not in mid or dev < mid[k][0]:
                mid[k] = (dev, r["d_est"])
    ks_deep = sorted(mid)
    slope_d, _, r2_deep = asymptotics.linear_fit_r2(ks_deep, [mid[k][1] for k in ks_deep])
    deep_ok = r2_deep >= 0.99 and 1.0 / 3.0 <= slope_d <= 2.0

    report(
        "9 distance profiles (stated windows)",
        h1_stated_ok and h2_ok,
        f"H1 increments [{min(deltas):.2f},{max(deltas):.2f}] pref={pref1} "
        f"(increments still rising at k<=10, cumulative length convex in k); "
        f"H2 r2={r2:.3f} slope={slope:.2f} pref={pref2}",
    )
    report(
        "9' distance H1, d linear in band index (k=13..20, K=24)",
        deep_ok,
        f"r2={r2_deep:.4f}, slope={slope_d:.2f} within the per-band range [1/3, 2]",
    )
    assert incr_ok and h2_ok and deep_ok
    assert h1_stated_ok, (
        "the loglog-vs-log/loglog selector cannot prefer the loglog law on this "
        "family's cumulative data: for power scales both model shapes are near-affine "
        "in the band index over any double-reachable 8-band window, and the residuals "
        "stay statistically tied (margins 0.77-0.96); the law's observable content, "
        "length linear in the band index with O(1) per-band increments, holds with "
        "r2 >= 0.99 at the deep window."
    )


def test_criterion_10_cantor():
    c4 = build_cantor(0.1, 2.0, J=4)
    bound = cantor_capacity_bound(c4)
    hand = 0.5 * 0.2 * math.sqrt(0.02) * (2e-4) ** 0.25 * (2e-8) ** 0.125
    bound_ok = abs(bound - hand) <= 0.02 * hand
    caps = [
        cantor_transfinite_estimate(build_cantor(0.1, 2.0, J=j), 64).value
        for j in range(1, 5)
    ]
    decreasing = all(a > b for a, b in zip(caps, caps[1:]))
    deep = cantor_transfinite_estimate(c4, 512)
    small_ok = deep.value < 1e-3
    caps.append(deep.value)
    ucheck = perfectness.cantor_U_check(build_cantor(0.1, 2.0, J=6))
    assert report(
        "10 cantor",
        bound_ok and decreasing and small_ok and ucheck["passed"],
        f"bound={bound:.4e} (hand {hand:.4e}), caps={['%.2e' % v for v in caps]}, "
        f"U-checks={ucheck['checks']}",
    )


def test_criterion_11_lemma_checks():
    rep = cauchy_transform_norm_check([(0j, 0.1)])
    dil_ok = rep["dilatation_error"] <= 1e-6
    inv_ok = True
    # the inverse-growth bound of the h2 family: g(t) <= t * log(1/t)**beta
    for beta in (1.0, 2.0):
        h = ScaleFunction.h2(beta)
        for t in (1e-6, 1e-8):
            inv_ok &= h.inverse(t) <= t * math.log(1.0 / t) ** beta
    assert report(
        "11 lemma checks",
        dil_ok and inv_ok,
        f"dilatation err={rep['dilatation_error']:.1e}",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 8},
        "k_range": [2, 7],
        "fit_column": "K_low",
        "seed": 2024,
    }
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cli.run(cfg, str(out1), "fast")
    cli.run(cfg, str(out2), "fast")
    b1 = (out1 / "kernel_sweep.csv").read_bytes()
    b2 = (out2 / "kernel_sweep.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    hashes_listed = all(len(o["sha256"]) == 64 for o in m1["outputs"])
    assert report("12 determinism", b1 == b2 and hashes_listed, f"{len(b1)} bytes")
