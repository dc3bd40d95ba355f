import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berglab import capacity
from berglab.capacity import (
    CapacityEstimate,
    capacity_via_transfinite,
    circle_nodes,
    disk_union_capacity,
    equilibrium_measure,
    log_distance_matrix,
    nth_diameter,
    segment_nodes,
)
from berglab.cli import _config_set_nodes
from berglab.domains import _assemble_cantor, build_cantor
from berglab.errors import EquilibriumSolveError, GridTooSmallError, PreconditionViolatedError
from claim_checks import (
    cantor_capacity_bound,
    cantor_transfinite_estimate,
    scaling_law_check,
    subadditivity_check,
)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def raw_energy(nodes: np.ndarray) -> float:
    """sum_{i != j} w_i w_j log|z_i - z_j| at uniform weights w."""
    w = np.full(nodes.size, 1.0 / nodes.size)
    return w @ log_distance_matrix(nodes) @ w


def test_energy_two_symmetric_atoms():
    assert raw_energy(np.array([-0.5 + 0j, 0.5 + 0j])) == pytest.approx(0.0, abs=1e-15)


def test_energy_discrete_sum_oracle_unit_circle():
    # diagonal exclusion makes the raw value log(n)/n exactly
    for n in (256, 1024):
        assert raw_energy(circle_nodes(0, 1.0, n)) == pytest.approx(math.log(n) / n, abs=1e-10)
    assert abs(raw_energy(circle_nodes(0, 1.0, 1024))) <= 1e-2


def test_energy_radius_half_circle():
    n = 1024
    energy = raw_energy(circle_nodes(0, 0.5, n))
    expected = (1 - 1 / n) * math.log(0.5) + math.log(n) / n
    assert energy == pytest.approx(expected, abs=1e-10)
    assert energy == pytest.approx(math.log(0.5), abs=1e-2)


def test_regularized_energy_near_exact_on_circles():
    # chord/arc defect is O(1/n^2); at n = 128 that is ~1e-4 absolute
    for r in (0.25, 0.5, 1.0):
        w = np.full(128, 1.0 / 128)
        A, _ = capacity._energy_matrix(circle_nodes(0, r, 128))
        assert w @ A @ w == pytest.approx(math.log(r), abs=1e-4)


# ---------------------------------------------------------------------------
# n-th diameter
# ---------------------------------------------------------------------------


def test_nth_diameter_antipodal_pair():
    grid = circle_nodes(0, 1.0, 256)
    d, cfg = nth_diameter(grid, 2)
    assert d == pytest.approx(2.0, rel=1e-12)
    assert abs(cfg[0] + cfg[1]) < 1e-12


def test_nth_diameter_equilateral_triangle():
    # brute-force oracle over angular triples on a shared grid
    m = 120
    theta = 2 * math.pi * np.arange(m) / m
    grid = np.exp(1j * theta)
    best = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            d_ij = abs(grid[i] - grid[j])
            d_ik = np.abs(grid[i] - grid[j + 1 :])
            d_jk = np.abs(grid[j] - grid[j + 1 :])
            prod = (d_ij * d_ik * d_jk) ** (2.0 / 6.0)
            if prod.size:
                best = max(best, float(prod.max()))
    assert best == pytest.approx(math.sqrt(3.0), rel=1e-12)  # grid contains equilateral
    d, _ = nth_diameter(grid, 3)
    assert d == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("n", range(2, 17))
def test_nth_diameter_circle_closed_form(n):
    grid = circle_nodes(0, 1.0, 16 * n)  # grid contains the optimal roots of unity
    d, _ = nth_diameter(grid, n)
    assert d == pytest.approx(n ** (1.0 / (n - 1)), rel=1e-3)


def test_nth_diameter_dilatation_exact():
    grid = circle_nodes(0, 1.0, 192)
    d1, _ = nth_diameter(grid, 6)
    dr, _ = nth_diameter(0.37 * grid, 6)
    assert dr == pytest.approx(0.37 * d1, rel=1e-9)


def test_nth_diameter_grid_guard():
    with pytest.raises(GridTooSmallError):
        nth_diameter(circle_nodes(0, 1.0, 16), 8)


def reference_nth_diameter(candidates, n, max_passes=40):
    """The exchange search without column caching: every step recomputes its
    logs, and every move re-sums each non-finite running sum from scratch."""
    candidates = np.asarray(candidates, dtype=complex).ravel()
    idx = np.empty(n, dtype=int)
    idx[0] = int(np.argmax(np.abs(candidates)))
    with np.errstate(divide="ignore"):
        score = np.log(np.abs(candidates - candidates[idx[0]]))
    for m in range(1, n):
        idx[m] = int(np.argmax(score))
        if m < n - 1:
            with np.errstate(divide="ignore"):
                score = score + np.log(np.abs(candidates - candidates[idx[m]]))
    config = candidates[idx].copy()

    def full_sums(cfg):
        with np.errstate(divide="ignore"):
            return np.sum(np.log(np.abs(candidates[:, None] - cfg[None, :])), axis=1)

    S = full_sums(config)
    for _ in range(max_passes):
        moved = False
        for i in range(n):
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = S - np.log(np.abs(candidates - config[i]))
            resid[~np.isfinite(resid)] = -np.inf
            j = int(np.argmax(resid))
            cand = candidates[j]
            if cand != config[i]:
                with np.errstate(divide="ignore"):
                    cur = np.sum(np.log(np.abs(np.delete(config, i) - config[i])))
                if resid[j] > cur + 1e-14 * abs(cur):
                    old = config[i]
                    config[i] = cand
                    with np.errstate(divide="ignore", invalid="ignore"):
                        S = S - np.log(np.abs(candidates - old)) + np.log(
                            np.abs(candidates - cand)
                        )
                    bad = ~np.isfinite(S) | (candidates == old)
                    if np.any(bad):
                        with np.errstate(divide="ignore"):
                            S[bad] = np.sum(
                                np.log(np.abs(candidates[bad, None] - config[None, :])), axis=1
                            )
                    moved = True
        if not moved:
            break
    # a repeated node (fewer than n distinct points) gives log 0 and the value 0.0
    with np.errstate(divide="ignore"):
        A = log_distance_matrix(config)
    return math.exp(float(np.sum(A)) / (n * (n - 1))), config


@st.composite
def diameter_grids(draw):
    """(grid, n): an arc, a segment, two circles or a Cantor-style point set
    with at least 4n points, 2 <= n <= 32."""
    n = draw(st.integers(2, 32))
    size = 4 * n + draw(st.integers(0, 160))
    kind = draw(st.sampled_from(["arc", "segment", "two_circles", "cantor"]))
    c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    r = 10.0 ** draw(st.floats(-2.0, 0.0))
    if kind == "arc":
        t0 = draw(st.floats(0.0, 2.0 * math.pi))
        span = draw(st.floats(0.1, 2.0 * math.pi))
        grid = c + r * np.exp(1j * (t0 + np.linspace(0.0, span, size)))
    elif kind == "segment":
        grid = segment_nodes(c, c + r * np.exp(1j * draw(st.floats(0.0, math.pi))), size)
    elif kind == "two_circles":
        r2 = r * draw(st.floats(0.2, 1.0))
        gap = (r + r2) * (1.0 + draw(st.floats(0.05, 3.0)))
        grid = np.concatenate([circle_nodes(c, r, size // 2), circle_nodes(c + gap, r2, size - size // 2)])
    else:
        cset = build_cantor(draw(st.floats(0.05, 0.2)), draw(st.floats(1.5, 3.0)), draw(st.integers(1, 3)))
        lefts, lj = cset.intervals()
        per = max(2, -(-size // lefts.size))
        grid = np.concatenate([np.linspace(lo, lo + lj, per) for lo in lefts]).astype(complex)
    return grid, n


@settings(max_examples=80, deadline=None)
@given(diameter_grids())
def test_nth_diameter_matches_reference_search(case):
    grid, n = case
    d, cfg = nth_diameter(grid, n)
    d_ref, cfg_ref = reference_nth_diameter(grid, n)
    assert d == d_ref
    assert np.array_equal(cfg, cfg_ref)


def test_nth_diameter_is_zero_on_fewer_than_n_distinct_points():
    # 8 points on each interval of a deep Cantor set: most of them round to
    # the same double, and 64 candidates hold 15 distinct values
    lefts, lj = build_cantor(0.125, 3.0, 3).intervals()
    grid = np.concatenate([np.linspace(lo, lo + lj, 8) for lo in lefts]).astype(complex)
    assert grid.size == 64 and np.unique(grid).size == 15
    d, cfg = nth_diameter(grid, 16)
    d_ref, cfg_ref = reference_nth_diameter(grid, 16)
    assert d == d_ref == 0.0
    assert np.array_equal(cfg, cfg_ref)


def test_nth_diameter_matches_reference_with_repeated_nodes():
    # coincident circles repeat every grid point
    grid = np.concatenate([circle_nodes(0, 0.1, 128), circle_nodes(0, 0.1, 128)])
    for n in (8, 32, 64):
        d, cfg = nth_diameter(grid, n)
        d_ref, cfg_ref = reference_nth_diameter(grid, n)
        assert d == d_ref and np.array_equal(cfg, cfg_ref)


@pytest.mark.parametrize("passes", [1, 2, 8, 9])
def test_nth_diameter_stops_where_the_pass_cap_cuts(monkeypatch, passes):
    # on a 1024-node segment at n = 128 the search moves in each of its
    # first 9 passes and makes none in the 10th
    grid = segment_nodes(-1.0, 1.0, 1024)
    d_ref, cfg_ref = reference_nth_diameter(grid, 128, max_passes=passes)
    assert np.array_equal(cfg_ref, reference_nth_diameter(grid, 128)[1]) == (passes == 9)
    monkeypatch.setattr(capacity, "MAX_PASSES", passes)
    d, cfg = nth_diameter(grid, 128)
    assert d == d_ref and np.array_equal(cfg, cfg_ref)


def test_nth_diameter_retests_the_slot_that_moved_last():
    # the search may stop only once every slot, the last to move included,
    # has been tested since the last move: stopping one step earlier ends
    # at another configuration here
    r = 35 ** (-1.0 / 34)
    grid = segment_nodes(-2.0 * r, 2.0 * r, 280)
    d, cfg = nth_diameter(grid, 35)
    d_ref, cfg_ref = reference_nth_diameter(grid, 35)
    assert d == d_ref and np.array_equal(cfg, cfg_ref)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "circle", "r": 0.5, "grid": 512},
        {"type": "two_disks", "r": 0.1, "d": 0.5, "grid": 1024},
        {"type": "cantor", "l0": 0.1, "alpha": 1.5, "J": 4, "grid": 2048},
    ],
    ids=["circle", "two_disks", "cantor"],
)
def test_nth_diameter_matches_reference_on_capacity_sets(spec):
    # the node sets and the n = 128 of a strict-profile capacity run, where
    # each move leaves many thresholds stale before their steps read them
    grid = _config_set_nodes({"set": spec})
    d, cfg = nth_diameter(grid, 128)
    d_ref, cfg_ref = reference_nth_diameter(grid, 128)
    assert d == d_ref
    assert np.array_equal(cfg, cfg_ref)


def _cantor_grid():
    """The 64-point grid with 15 distinct values of the test above."""
    lefts, lj = build_cantor(0.125, 3.0, 3).intervals()
    return np.concatenate([np.linspace(lo, lo + lj, 8) for lo in lefts]).astype(complex)


@settings(max_examples=40, deadline=None)
@given(diameter_grids())
@example((_cantor_grid(), 16))
@example((np.concatenate([circle_nodes(0, 0.1, 128), circle_nodes(0, 0.1, 128)]), 64))
def test_nth_diameter_warns_nothing(case):
    # the threshold of a slot sharing its point with another is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nth_diameter(*case)


# ---------------------------------------------------------------------------
# transfinite capacity
# ---------------------------------------------------------------------------


def test_transfinite_disk_quarter():
    grid = circle_nodes(0, 0.25, 512)
    est = capacity_via_transfinite(grid, 64)
    assert 0.25 - 1e-9 <= est.value <= 0.27
    assert est.diagnostics == (nth_diameter(grid, 64)[0],)
    deltas = np.array([nth_diameter(grid, n)[0] for n in (8, 16, 32, 64)])
    assert np.all(np.diff(deltas) <= 1e-9)  # raw diameters monotone non-increasing
    assert est.value <= deltas.min() + 1e-12  # estimate below every raw diameter


def test_transfinite_segment():
    grid = segment_nodes(-1.0, 1.0, 1024)
    est = capacity_via_transfinite(grid, 64)
    assert est.value == pytest.approx(0.5, rel=0.05)


def test_transfinite_monotone_under_inclusion():
    small = circle_nodes(0, 0.3, 256)
    big = np.concatenate([small, circle_nodes(0, 0.9, 256)])
    est_small = capacity_via_transfinite(small, 32)
    est_big = capacity_via_transfinite(big, 32)
    assert est_small.value <= est_big.value * 1.02


def test_two_disjoint_disks_dominate_single():
    r = 0.1
    grid = np.concatenate([circle_nodes(-0.5, r, 128), circle_nodes(0.5, r, 128)])
    est = capacity_via_transfinite(grid, 64)
    assert est.value >= r * 0.98


# ---------------------------------------------------------------------------
# equilibrium measures
# ---------------------------------------------------------------------------


def test_equilibrium_circle_128():
    sol = equilibrium_measure(circle_nodes(0, 0.5, 128))
    w = sol.measure.weights
    assert np.all(np.abs(w - 1.0 / 128) <= 0.02 / 128)
    assert sol.capacity == pytest.approx(0.5, rel=0.02)
    assert sol.kkt_residual <= 1e-3 * abs(sol.raw_energy) + 1e-6


def test_equilibrium_two_nodes():
    sol = equilibrium_measure(np.array([0j, 1.0 + 0j]))
    assert sol.measure.weights.tolist() == pytest.approx([0.5, 0.5], abs=1e-12)


def test_equilibrium_segment_arcsine_shape():
    sol = equilibrium_measure(segment_nodes(-1.0, 1.0, 128))
    w = sol.measure.weights
    assert w[0] > w[64]  # mass concentrates toward the endpoints
    assert w[-1] > w[64]
    assert sol.capacity == pytest.approx(0.5, rel=0.05)


def test_equilibrium_vs_transfinite_consistency():
    # same underlying sets; the transfinite route gets the denser grid its
    # n = 128 configurations require, the energy route solves on 128 nodes
    sets = {
        "circle": (circle_nodes(0, 0.5, 512), circle_nodes(0, 0.5, 128)),
        "segment": (segment_nodes(-1.0, 1.0, 512), segment_nodes(-1.0, 1.0, 128)),
        "two_disks": (
            np.concatenate([circle_nodes(-0.5, 0.1, 256), circle_nodes(0.5, 0.1, 256)]),
            np.concatenate([circle_nodes(-0.5, 0.1, 64), circle_nodes(0.5, 0.1, 64)]),
        ),
    }
    for name, (grid, nodes) in sets.items():
        cap_t = capacity_via_transfinite(grid, 128).value
        cap_e = equilibrium_measure(nodes).capacity
        assert cap_e == pytest.approx(cap_t, rel=0.05), name


def test_equilibrium_rejects_singleton():
    with pytest.raises(PreconditionViolatedError):
        equilibrium_measure(np.array([1.0 + 0j]))


def test_equilibrium_circle_weights_uniform():
    sol = equilibrium_measure(circle_nodes(0.3 + 0.1j, 0.5, 128))
    assert np.all(np.abs(sol.measure.weights * 128 - 1.0) <= 1e-13)
    assert sol.iterations == 1
    assert sol.kkt_residual <= 1e-14


def test_equilibrium_segment_residuals():
    # the regularized objective is stationary; the raw excluded-diagonal
    # potential is not constant on the support at its optimum
    sol = equilibrium_measure(segment_nodes(-1.0, 1.0, 256))
    assert sol.kkt_residual <= 1e-14
    assert sol.raw_potential_spread > 0.1


def test_equilibrium_active_set_drops_interior_point():
    # the unconstrained stationary point puts negative mass on 0.9, inside
    # the circle; the re-solve drops it to exactly 0 and it passes KKT
    nodes = np.concatenate([circle_nodes(0, 1.0, 64), [0.9 + 0j]])
    sol = equilibrium_measure(nodes)
    w = sol.measure.weights
    assert sol.iterations == 2
    assert w[-1] == 0.0
    assert np.all(np.abs(w[:64] * 64 - 1.0) <= 1e-13)
    A = log_distance_matrix(nodes) + np.diag(capacity._energy_matrix(nodes)[1])
    assert (A @ w)[-1] <= sol.energy
    assert sol.kkt_residual <= 1e-14


def test_concavity_check_rejects_convex_form():
    # the identity is convex on sum-zero vectors: -Z^T I Z is negative definite
    with pytest.raises(EquilibriumSolveError):
        capacity._check_concave(np.eye(4))


def test_wrongly_dropped_node_fails_kkt(monkeypatch):
    # drop a circle node by force: it carries mass at the optimum, so its
    # potential exceeds the energy of the re-solved measure
    solve = capacity._bordered_solve

    def drop_first(A):
        w = solve(A)
        if w.size == 64:
            w[0] = -1.0
        return w

    monkeypatch.setattr(capacity, "_bordered_solve", drop_first)
    with pytest.raises(EquilibriumSolveError, match="stationarity"):
        equilibrium_measure(circle_nodes(0, 1.0, 64))


@st.composite
def equilibrium_sets(draw):
    kind = draw(st.sampled_from(["arc", "segment", "two_circles"]))
    c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    r = 10.0 ** draw(st.floats(-1.5, 0.0))
    n = draw(st.integers(8, 96))
    if kind == "arc":
        t0 = draw(st.floats(0.0, 2.0 * math.pi))
        span = draw(st.floats(0.2, 1.9 * math.pi))
        return c + r * np.exp(1j * (t0 + np.linspace(0.0, span, n)))
    if kind == "segment":
        return segment_nodes(c, c + r * np.exp(1j * draw(st.floats(0.0, math.pi))), n)
    r2 = r * draw(st.floats(0.2, 1.0))
    gap = (r + r2) * (1.0 + draw(st.floats(0.05, 3.0)))
    return np.concatenate([circle_nodes(c, r, n), circle_nodes(c + gap, r2, draw(st.integers(8, 96)))])


@settings(max_examples=60, deadline=None)
@given(equilibrium_sets(), st.integers(0, 2**32 - 1))
def test_equilibrium_maximizes_regularized_energy(nodes, seed):
    sol = equilibrium_measure(nodes)
    w = sol.measure.weights
    scale = max(1.0, abs(sol.energy))
    assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
    assert sol.kkt_residual <= 1e-12 * scale
    A, _ = capacity._energy_matrix(nodes)
    assert w @ A @ w == pytest.approx(sol.energy, abs=1e-12 * scale)
    rng = np.random.default_rng(seed)
    trials = [np.full(nodes.size, 1.0 / nodes.size), *rng.dirichlet(np.ones(nodes.size), 8)]
    trials += [0.5 * (w + p) for p in trials]  # near the optimum too
    for p in trials:
        p = p / p.sum()
        assert p @ A @ p <= sol.energy + 1e-12 * scale


def former_energy_matrix(nodes):
    """The energy matrix and scales as two calls formed them: each built
    its own matrix of pairwise distances."""
    d = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(d, np.inf)
    scales = np.log(d.min(axis=1) / (2.0 * math.pi))
    d = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(d, 1.0)
    A = np.log(d)
    np.fill_diagonal(A, scales)
    return A, scales


@settings(max_examples=30, deadline=None)
@given(equilibrium_sets())
def test_energy_matrix_keeps_the_two_call_bits(nodes):
    A, scales = capacity._energy_matrix(nodes)
    want_A, want_scales = former_energy_matrix(nodes)
    assert np.array_equal(A.view(np.int64), want_A.view(np.int64))
    assert np.array_equal(scales.view(np.int64), want_scales.view(np.int64))
    np.fill_diagonal(want_A, 0.0)
    assert np.array_equal(log_distance_matrix(nodes).view(np.int64), want_A.view(np.int64))


# ---------------------------------------------------------------------------
# disjoint disks
# ---------------------------------------------------------------------------


@st.composite
def disjoint_disks(draw, min_disks=1, max_disks=6, min_radius=1e-6):
    """(centres, radii) of disjoint disks: each radius is log-uniform, cut
    to a drawn fraction of its clearance from the disks drawn before it."""
    centers, radii = [], []
    for _ in range(draw(st.integers(min_disks, max_disks))):
        c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        room = min((abs(c - c2) - r2 for c2, r2 in zip(centers, radii)), default=1.0)
        rho = min(10.0 ** draw(st.floats(math.log10(min_radius), -0.5)), draw(st.floats(0.05, 0.95)) * room)
        assume(rho >= min_radius)
        centers.append(c)
        radii.append(rho)
    return np.array(centers), np.array(radii)


def disk_energy_matrix(centers, radii) -> np.ndarray:
    """log|c_i - c_j| off the diagonal, log rho_i on it, entry by entry."""
    return np.array([[math.log(rho) if i == j else math.log(abs(c - c2))
                      for j, c2 in enumerate(centers.tolist())]
                     for i, (c, rho) in enumerate(zip(centers.tolist(), radii.tolist()))])


def rounding_margin(centers, radii) -> float:
    """The exponent margin that ``disk_union_capacity`` states."""
    return 4.0 * capacity.EPS * (radii.size + 2) * max(1.0, float(np.abs(disk_energy_matrix(centers, radii)).max()))


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(1e-300, 10.0))
def test_disk_union_of_one_disk_is_its_radius(x, y, rho):
    cap, m = disk_union_capacity([complex(x, y)], [rho])
    assert cap == rho and m.tolist() == [1.0]


@settings(max_examples=60, deadline=None)
@given(disjoint_disks(min_disks=2, max_disks=2, min_radius=1e-3))
def test_disk_union_of_two_disks_is_below_equilibrium(disks):
    # uniform measures on the two circles are one choice among those the
    # discrete equilibrium on their dense rims can approximate
    centers, radii = disks
    assume(abs(centers[0] - centers[1]) > 1.05 * radii.sum())
    nodes = np.concatenate([circle_nodes(c, rho, 256) for c, rho in zip(centers.tolist(), radii.tolist())])
    cap, _ = disk_union_capacity(centers, radii)
    assert radii.max() <= cap <= equilibrium_measure(nodes).capacity


@settings(max_examples=100, deadline=None)
@given(disjoint_disks(min_disks=2))
def test_disk_union_dropping_a_disk_never_raises_the_bound(disks):
    # the larger set's optimum is at least the subset's, and the two bounds
    # differ by at most the larger set's rounding margin
    centers, radii = disks
    cap, _ = disk_union_capacity(centers, radii)
    slack = math.exp(rounding_margin(centers, radii))
    for i in range(radii.size):
        keep = np.arange(radii.size) != i
        assert disk_union_capacity(centers[keep], radii[keep])[0] <= cap * slack


@settings(max_examples=100, deadline=None)
@given(disjoint_disks(min_disks=2, max_disks=12))
def test_disk_union_margin_covers_an_fsum_energy(disks):
    # the energy of the returned weights, from exact products summed by
    # fsum, lies above the log of the bound, by at most twice the margin
    centers, radii = disks
    cap, m = disk_union_capacity(centers, radii)
    A = disk_energy_matrix(centers, radii)
    total = math.fsum(m.tolist())
    energy = math.fsum((m[i] * m[j] * A[i, j] for i in range(m.size) for j in range(m.size))) / total**2
    assert np.all(m >= 0.0)
    assert math.log(cap) <= energy or cap == radii.max()
    assert energy - math.log(cap) <= 2.0 * rounding_margin(centers, radii) or cap == radii.max()


def test_disk_union_rejects_meeting_disks():
    with pytest.raises(PreconditionViolatedError, match="disjoint"):
        disk_union_capacity([0.0, 0.5], [0.3, 0.2])
    with pytest.raises(PreconditionViolatedError):
        disk_union_capacity([0.0], [0.0])


# ---------------------------------------------------------------------------
# Cantor bound
# ---------------------------------------------------------------------------


def test_cantor_bound_hand_value():
    # 0.5 * 0.2 * 0.02**0.5 * (2e-4)**0.25 * (2e-8)**0.125, evaluated afresh
    hand = 0.5 * 0.2 * math.sqrt(0.02) * (2e-4) ** 0.25 * (2e-8) ** 0.125
    c = build_cantor(0.1, 2.0, J=4)
    assert cantor_capacity_bound(c) == pytest.approx(hand, rel=1e-12)
    assert hand == pytest.approx(1.8340e-4, rel=2e-3)


def test_cantor_bound_polar_limit():
    c = build_cantor(0.1, 2.0, J=8)
    vals = [cantor_capacity_bound(c, J=j) for j in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4 * vals[0]


def test_cantor_transfinite_estimator():
    # J = 1 is two intervals of length 1e-2 at gap ~0.08; sanity against a
    # raw-grid search at matched n (positions there still resolve in doubles)
    c1 = build_cantor(0.1, 2.0, J=1)
    est = cantor_transfinite_estimate(c1, 64)
    lefts, lj = c1.intervals()
    grid = np.concatenate([np.linspace(lo, lo + lj, 256) for lo in lefts]).astype(complex)
    raw = capacity_via_transfinite(grid, 64)
    assert est.value == pytest.approx(raw.value, rel=0.03)
    # deeper sets only lose capacity
    vals = [cantor_transfinite_estimate(build_cantor(0.1, 2.0, J=j), 64).value for j in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cantor_bound_quarter_ratio_limit():
    lengths = [0.1 * 0.25**j for j in range(12)]
    c = _assemble_cantor(0.1, 0.0, 11, np.array(lengths))
    vals = [cantor_capacity_bound(c, J=j) for j in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # closed form: (1/8) * 2 ** (2 ** (1 - J)) decreasing to 1/8
    assert vals[-1] == pytest.approx(0.125 * 2 ** (2.0 ** (1 - 11)), rel=1e-12)
    assert vals[-1] > 0.125


# ---------------------------------------------------------------------------
# capacity laws
# ---------------------------------------------------------------------------


def test_dilatation_law():
    rep = scaling_law_check(circle_nodes(0, 1.0, 512), t=0.3)
    assert rep["dilatation_ok"]
    assert rep["cap_tE"] == pytest.approx(0.3 * rep["cap_E"], rel=1e-9)


def test_holder_law_square_map():
    rep = scaling_law_check(
        circle_nodes(0, 1.0, 512), holder=(2.0, 1.0, lambda z: z**2)
    )
    assert rep["holder_ok"]


def test_measure_dilatation_node_for_node():
    # the dilated measure of a dilated set is the pushforward
    nodes = circle_nodes(0, 0.5, 64)
    w = equilibrium_measure(nodes).measure.weights
    w_t = equilibrium_measure(0.3 * nodes).measure.weights
    assert np.max(np.abs(w - w_t)) <= 1e-9


def test_subadditivity_two_disks():
    parts = [circle_nodes(-0.5, 0.1, 96), circle_nodes(0.5, 0.1, 96)]
    rep = subadditivity_check(parts, d=4.0)
    assert rep["holds"]
    assert rep["lhs"] < rep["rhs"]


def test_subadditivity_single_part_equality():
    part = circle_nodes(0, 0.2, 128)
    rep = subadditivity_check([part], d=4.0)
    assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-12)


def test_subadditivity_precondition():
    with pytest.raises(PreconditionViolatedError):
        subadditivity_check([circle_nodes(0, 0.2, 128)], d=0.05)


def test_capacity_estimate_json():
    est = CapacityEstimate(0.5, 64, (0.6, 0.55, 0.5))
    d = est.to_json_dict()
    assert d["value"] == 0.5 and d["method"] == "transfinite" and len(d["diagnostics"]) == 3


def test_subadditivity_zalcman_hole_rims():
    from berglab.domains import ScaleFunction, build_zalcman

    dom = build_zalcman(ScaleFunction.h1(2.0), 0.1, K=3)
    parts = [circle_nodes(complex(c), float(r), 64) for c, r in zip(dom.centers, dom.radii)]
    rep = subadditivity_check(parts, d=4 * dom.x1)
    assert rep["holds"]


def test_holder_identity_map_tight():
    rep = scaling_law_check(circle_nodes(0, 0.5, 512), holder=(1.0, 1.0, lambda z: z))
    assert rep["holder_ok"]
    assert rep["cap_TE"] == pytest.approx(rep["cap_E"], rel=1e-12)
