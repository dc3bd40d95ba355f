"""Checks of berglab's artifacts against computations made apart from it.

Nothing here imports berglab.  The scale recursions, distance spectra,
witness bounds, closed forms and chain formulas are rebuilt from their
definitions; where a value has no closed form, the check tests a property
the method must have.  Each check appends a message to ``errors`` when it
fails, so one round reports every fault it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

#: rows of each c_star_profile.csv recomputed from scratch
C_STAR_SAMPLE = 200
#: relative tolerance of a recomputed value that the program evaluates
#: with the same formula but possibly another order of operations
RECOMPUTE_RTOL = 1e-9
#: relative slack on inequalities that hold exactly in real arithmetic
ROUNDING = 1e-12
#: the transfinite estimate of a circle's capacity against its radius
CIRCLE_RTOL = 1e-3
#: the transfinite estimate of a segment's capacity against length/4
SEGMENT_RTOL = 1e-2
#: the quadrature tolerance of each berglab tolerance profile: a kernel
#: lower bound may fall short of the exact witness bound by this share, and
#: the quadrature of 1 and |z|^2 may miss its closed form by it
QUAD_TOL = {"fast": 3e-3, "default": 1e-3, "strict": 3e-4}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a numeric berglab CSV."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(-1, len(header))


def column(path: Path, name: str) -> np.ndarray:
    header, rows = read_csv(path)
    return rows[:, header.index(name)]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def is_true(value) -> bool:
    # berglab writes booleans as 1/0 in its JSON artifacts today
    return value is True or (type(value) is int and value == 1)


def manifest_hashes(op, out: Path, errors: list) -> dict:
    """The manifest's sha256 per artifact, after checking each against the
    file's bytes."""
    man = read_json(out / "manifest.json")
    if man.get("status") != "ok":
        errors.append(f"{op.name}: manifest status {man.get('status')!r}")
    hashes = {}
    for entry in man["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            errors.append(f"{op.name}: {entry['path']} does not match its manifest sha256")
        hashes[f"{op.name}/{entry['path']}"] = entry["sha256"]
    return hashes


# ---------------------------------------------------------------------------
# Zalcman domains, rebuilt from the recursion r_k = x_{k+1} = h(x_k) in logs
# ---------------------------------------------------------------------------


def _family(dom: dict) -> tuple[str, float]:
    fam = dom["family"]
    return fam, float(dom["alpha"] if fam == "h1" else dom["beta"])


def log_h(fam: str, p: float, log_r):
    """log h(r) for h1(r) = r^alpha and h2(r) = r log(1/r)^-beta."""
    if fam == "h1":
        return p * log_r
    return log_r - p * np.log(-log_r)


def h_of(dom: dict, r):
    fam, p = _family(dom)
    return np.exp(log_h(fam, p, np.log(r)))


def zalcman_scales(dom: dict) -> tuple[np.ndarray, np.ndarray]:
    """(x_1..x_{K+2}, r_1..r_{K+1})."""
    fam, p = _family(dom)
    logx = [math.log(dom["x1"])]
    for _ in range(dom["K"] + 1):
        logx.append(float(log_h(fam, p, np.float64(logx[-1]))))
    xs = np.exp(np.array(logx))
    return xs, xs[1:]


def largest_distance_at_most(a: complex, r: float, xs: np.ndarray, rs: np.ndarray, K: int) -> float:
    """Largest boundary distance <= r from a on the superset truncation.

    Its boundary is the isolated origin, the K hole circles and the unit
    circle; a circle (c, rho) reaches exactly the distances
    [| |a - c| - rho |, |a - c| + rho] from a.  The sample a is a boundary
    point, so on its own circle the gap | |a - c| - rho | is rounding noise
    of a's coordinates and the interval starts at 0."""
    best = 0.0
    circles = [(complex(xs[k]), float(rs[k])) for k in range(K)] + [(0j, 1.0)]
    for c, rho in circles:
        d = abs(a - c)
        gap = abs(d - rho)
        if gap <= 1e-12 * (abs(a) + abs(c) + rho):
            gap = 0.0
        if gap <= r and d + rho > 0.0:
            best = max(best, min(d + rho, r))
    if 0.0 < abs(a) <= r:
        best = max(best, abs(a))
    return best


def c_star_sample(n_rows: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n_rows), min(C_STAR_SAMPLE, n_rows)))


def check_perfect(op, out: Path, errors: list, seed: int) -> None:
    dom = op.cfg["domain"]
    report = read_json(out / "perfect_report.json")
    if dom["type"] == "cantor":
        check_cantor_perfect(op, dom, report, errors)
        return
    cls = report["classification"]
    if not is_true(cls["satisfied"]) or not cls["c_star_global"] > 0.0:
        errors.append(f"{op.name}: annulus condition for the own family not satisfied")
    if dom["family"] == "h1" and not is_true(cls["failures"][0]["failed"]):
        errors.append(f"{op.name}: weakened exponent not flagged failed")

    header, rows = read_csv(out / "c_star_profile.csv")
    a = rows[:, 0] + 1j * rows[:, 1]
    r, cs = rows[:, 2], rows[:, 3]
    hr = h_of(dom, r)
    bad = np.nonzero(cs * hr > r * (1.0 + ROUNDING))[0]
    if bad.size:
        errors.append(f"{op.name}: c_star * h(r) > r on {bad.size} rows, first row {bad[0] + 1}")
    if abs(cs.min() - cls["c_star_global"]) > ROUNDING * abs(cls["c_star_global"]):
        errors.append(f"{op.name}: c_star_global differs from the profile minimum")
    xs, rs = zalcman_scales(dom)
    for i in c_star_sample(len(rows), seed):
        want = largest_distance_at_most(complex(a[i]), float(r[i]), xs, rs, dom["K"]) / float(hr[i])
        if abs(cs[i] - want) > RECOMPUTE_RTOL * abs(want):
            errors.append(f"{op.name}: c_star row {i + 1} is {cs[i]!r}, recomputed {want!r}")

    _, cond = read_csv(out / "condition_C.csv")
    r, cap, ratio = cond[:, 2], cond[:, 3], cond[:, 4]
    if np.any(cap < 0.0) or np.any(cap > r * (1.0 + ROUNDING)):
        errors.append(f"{op.name}: a condition-C capacity lies outside [0, r]")
    if np.any(np.abs(ratio - cap / h_of(dom, r)) > RECOMPUTE_RTOL * np.abs(ratio)):
        errors.append(f"{op.name}: a condition-C ratio is not cap / h(r)")


def check_cantor_perfect(op, dom: dict, report: dict, errors: list) -> None:
    """Every endpoint-centred annulus test passes, and one test ran per
    endpoint word and probed radius."""
    J, alpha, l0 = dom["J"], dom["alpha"], dom["l0"]
    l_deep = math.exp(alpha ** (J - 1) * math.log(l0))  # l_{J-1}
    lo, hi = 2.0 * l_deep * 1.0001, 1.9 * l0
    n_radii = max(2, int(math.ceil(math.log10(hi / lo) * 8)) + 1)
    if not is_true(report["passed"]):
        errors.append(f"{op.name}: Cantor annulus check failed")
    if report["checks"] != 2 ** (J + 1) * n_radii:
        errors.append(f"{op.name}: {report['checks']} Cantor checks, expected {2 ** (J + 1) * n_radii}")


# ---------------------------------------------------------------------------
# kernel, metric and distance sweeps
# ---------------------------------------------------------------------------


def _mid_band(xs: np.ndarray, k: np.ndarray) -> np.ndarray:
    ki = k.astype(int)
    return np.sqrt(xs[ki - 1] * xs[ki])


def check_kernel(op, out: Path, errors: list, seed: int) -> None:
    """K_low >= (1 - tol) * witness bound: the one-pole witness 1/(z - x_{k+1})
    lies in the basis span, and its norm 2 pi log(2 / r_{k+1}) is exact over
    a superset of the domain."""
    dom = op.cfg["domain"]
    xs, rs = zalcman_scales(dom)
    header, rows = read_csv(out / "kernel_sweep.csv")
    k, x, K_low, wit, eq = (rows[:, i] for i in range(5))
    k_lo, k_hi = op.cfg["k_range"]
    if list(k.astype(int)) != list(range(k_lo, k_hi + 1)):
        errors.append(f"{op.name}: sweep rows are not k = {k_lo}..{k_hi}")
        return
    if np.any(np.abs(x - _mid_band(xs, k)) > RECOMPUTE_RTOL * x):
        errors.append(f"{op.name}: a sample x is not sqrt(x_k x_(k+1))")
    ki = k.astype(int)
    want = 1.0 / ((x + xs[ki]) ** 2 * 2.0 * math.pi * np.log(2.0 / rs[ki]))
    if np.any(np.abs(wit - want) > RECOMPUTE_RTOL * want):
        errors.append(f"{op.name}: a witness_bound differs from 1/(|x + x_(k+1)|^2 2 pi log(2/r_(k+1)))")
    low = np.nonzero(K_low < (1.0 - QUAD_TOL[op.profile]) * want)[0]
    if low.size:
        errors.append(f"{op.name}: K_low below its one-pole witness at k = {int(k[low[0]])}")
    if op.cfg.get("equilibrium") and not np.all(eq > 0.0):
        errors.append(f"{op.name}: an equilibrium_bound is missing or not positive")


def check_metric(op, out: Path, errors: list, seed: int) -> None:
    xs, _ = zalcman_scales(op.cfg["domain"])
    header, rows = read_csv(out / "metric_sweep.csv")
    k, x = rows[:, 0], rows[:, 1]
    if np.any(np.abs(x - _mid_band(xs, k)) > RECOMPUTE_RTOL * x):
        errors.append(f"{op.name}: a sample x is not sqrt(x_k x_(k+1))")
    if not np.all(rows[:, header.index("K_low")] > 0.0) or not np.all(rows[:, header.index("b_est")] > 0.0):
        errors.append(f"{op.name}: a K_low or b_est is not positive")


def check_distance(op, out: Path, errors: list, seed: int) -> None:
    path = out / "distance_profile.csv"
    d_est, b_est = column(path, "d_est"), column(path, "b_est")
    if d_est[0] != 0.0 or np.any(np.diff(d_est) < 0.0):
        errors.append(f"{op.name}: d_est does not grow from 0 along the profile")
    if not np.all(b_est > 0.0):
        errors.append(f"{op.name}: a b_est is not positive")


def disk_moments(center: complex, radius: float) -> tuple[float, float]:
    """Integrals of 1 and |z|^2 over the disk |z - center| < radius."""
    area = math.pi * radius**2
    return area, area * (abs(center) ** 2 + radius**2 / 2.0)


def check_collars(ops, out: Path, errors: list) -> None:
    """Quadrature of 1 and |z|^2 over each superset domain against
    pi (1 - sum r_k^2) and pi/2 - sum pi r_k^2 (x_k^2 + r_k^2 / 2), and
    over each numeric collar (an annulus minus the disks it excludes)
    against the same disk formulas."""
    got = read_json(out / "collar_check.json")
    for op in ops:
        if op.cfg.get("domain", {}).get("type") != "zalcman":
            continue
        tol = QUAD_TOL[op.profile]
        K = op.cfg["domain"]["K"]
        xs, rs = zalcman_scales(op.cfg["domain"])
        holes = [disk_moments(complex(x), float(r)) for x, r in zip(xs[:K], rs[:K])]
        want = (math.pi - sum(h[0] for h in holes), math.pi / 2.0 - sum(h[1] for h in holes))
        regions = [(op.name, got[op.name], want)]
        for i, collar in enumerate(got[op.name]["collars"]):
            center = complex(*collar["center"])
            outer = disk_moments(center, collar["r_out"])
            inner = disk_moments(center, collar["r_in"])
            cut = [disk_moments(complex(re, im), rho) for re, im, rho in collar["holes"]]
            want = tuple(outer[j] - inner[j] - sum(c[j] for c in cut) for j in (0, 1))
            regions.append((f"{op.name} collar {i}", collar, want))
        for label, value, want in regions:
            for key, w in zip(("area", "moment2"), want):
                if abs(value[key] - w) > tol * w:
                    errors.append(f"{label}: quadrature {key} {value[key]!r}, closed form {w!r}")


# ---------------------------------------------------------------------------
# capacities and the chain certificate
# ---------------------------------------------------------------------------


def check_capacity(op, out: Path, errors: list, seed: int) -> None:
    spec = op.cfg["set"]
    value = read_json(out / "capacity_report.json")["value"]
    kind = spec["type"]
    if kind == "circle":
        ok = abs(value - spec["r"]) <= CIRCLE_RTOL * spec["r"]
        want = f"r = {spec['r']}"
    elif kind == "segment":
        quarter = abs(spec["b"] - spec["a"]) / 4.0
        ok = abs(value - quarter) <= SEGMENT_RTOL * quarter
        want = f"length/4 = {quarter}"
    elif kind == "two_disks":
        ok = spec["r"] <= value <= spec["d"] + spec["r"]
        want = f"a value in [r, d + r] = [{spec['r']}, {spec['d'] + spec['r']}]"
    else:
        ok = value <= spec["l0"] / 4.0
        want = f"at most l0/4 = {spec['l0'] / 4.0}"
    if not ok:
        errors.append(f"{op.name}: capacity {value!r}, expected {want}")
    weights = column(out / "measure.csv", "weight")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > RECOMPUTE_RTOL:
        errors.append(f"{op.name}: measure weights are not a probability vector")


def check_pommerenke(op, out: Path, errors: list, seed: int) -> None:
    """s_{l+1} = (c/5) h(s_l) from s_0 = s1; product bound
    sum_l 2^(k-l-1) log s_{l+1}; floor exp(sum_l log s_{l+1} / 2^(l+1))."""
    cfg, dom = op.cfg, op.cfg["domain"]
    cert = read_json(out / "pommerenke_certificate.json")
    k = cfg["k"]
    s = [cfg["s1"]]
    for _ in range(k):
        s.append(cfg["c"] / 5.0 * float(h_of(dom, s[-1])))
    log_s = [math.log(v) for v in s[1:]]
    product = sum(2.0 ** (k - l - 1) * log_s[l] for l in range(k))
    floor = math.exp(sum(log_s[l] / 2.0 ** (l + 1) for l in range(k)))
    if len(cert["scales"]) != k or any(
        abs(got - want) > RECOMPUTE_RTOL * want for got, want in zip(cert["scales"], s[1:])
    ):
        errors.append(f"{op.name}: chain scales differ from s_(l+1) = (c/5) h(s_l)")
    if abs(cert["product_bound"] - product) > RECOMPUTE_RTOL * abs(product):
        errors.append(f"{op.name}: product_bound {cert['product_bound']!r}, recomputed {product!r}")
    if abs(cert["capacity_floor"] - floor) > RECOMPUTE_RTOL * floor:
        errors.append(f"{op.name}: capacity_floor {cert['capacity_floor']!r}, recomputed {floor!r}")
    if cert["points"] != 2**k or not is_true(cert["pairwise_ok"]):
        errors.append(f"{op.name}: chain is not {2 ** k} pairwise-separated points")


CHECKS = {
    "perfect": check_perfect,
    "kernel": check_kernel,
    "metric": check_metric,
    "distance": check_distance,
    "capacity": check_capacity,
    "pommerenke": check_pommerenke,
}


def check_round(workload: str, ops, out: Path, statuses: list, seed: int) -> tuple[list, dict]:
    """(errors, artifact hashes) of one round; pipelines that failed are
    counted by the runner and not checked."""
    errors: list = []
    hashes: dict = {}
    ok = {s["op"] for s in statuses if s["ok"]}
    for op in ops:
        if op.name in ok:
            try:
                hashes.update(manifest_hashes(op, out / op.name, errors))
                CHECKS[op.cfg["pipeline"]](op, out / op.name, errors, seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors.append(f"{op.name}: unreadable artifact: {type(exc).__name__}: {exc}")
    if workload == "gram":
        try:
            check_collars([op for op in ops if op.name in ok], out, errors)
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"collar check: unreadable artifact: {type(exc).__name__}: {exc}")
    return errors, hashes


def check_same_hashes(first: dict, later: dict) -> list:
    """Repeated runs of one config must write byte-identical artifacts."""
    return [
        f"{key}: sha256 changed between rounds"
        for key in sorted(first.keys() | later.keys())
        if first.get(key) != later.get(key)
    ]
