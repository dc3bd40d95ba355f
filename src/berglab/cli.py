"""Batch front-end: JSON config in, CSV/JSON artifacts plus a manifest out.

One invocation runs one pipeline.  All randomness flows through the config
seed, CSV floats use shortest round-trip formatting, and the manifest lists
every output with a content hash, so identical config + seed reproduces
byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import asymptotics, bergman, perfectness
from .domains import CantorSet, CircleDomain, ZalcmanDomain, domain_from_json
from .errors import BerglabError, ConfigInvalidError
from .quadrature import mc_integral

PIPELINES = ("selfcheck", "capacity", "perfect", "pommerenke", "kernel", "metric", "distance", "fit")

TOLERANCE_PROFILES = {
    "fast": {"n_cap": 32, "per_band": 4},
    "default": {"n_cap": 64, "per_band": 8},
    "strict": {"n_cap": 128, "per_band": 12},
}


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(x) -> str:
    """Shortest decimal that round-trips the double."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    return repr(v)


def format_column(col) -> list[str]:
    """``format_float`` of every cell; strings pass through.

    A float array skips the per-cell dispatch: ``repr`` of a Python float is
    exactly what ``format_float`` writes for it, ``nan`` included.  Each
    distinct double is formatted once, keyed on its bits so that ``-0.0``
    and ``0.0`` (equal as floats) keep their own text."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        bits = np.ascontiguousarray(col, dtype=float).ravel().view(np.int64)
        uniq, inverse = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, uniq.view(float).tolist())), dtype=object)
        return text[inverse].tolist()
    return [v if isinstance(v, str) else format_float(v) for v in col]


def write_csv(path: Path, header: list[str], columns) -> None:
    """One CSV line per row; ``columns`` holds one equal-length sequence per
    header field (``zip(*rows)`` turns a list of rows into columns)."""
    lines = [",".join(header), *map(",".join, zip(*map(format_column, columns), strict=True))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigInvalidError("config must be a JSON object")
    pipeline = cfg.get("pipeline")
    if pipeline not in PIPELINES:
        raise ConfigInvalidError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    needs_domain = pipeline in ("perfect", "pommerenke", "kernel", "metric", "distance")
    if needs_domain and "domain" not in cfg:
        raise ConfigInvalidError(f"pipeline {pipeline!r} requires a domain spec")
    if "domain" in cfg:
        try:
            domain = domain_from_json(cfg["domain"])
        except (KeyError, ValueError, BerglabError) as exc:
            raise ConfigInvalidError(f"invalid domain spec: {exc}") from exc
    uses_mc = bool(cfg.get("mc_check", False)) or pipeline == "selfcheck"
    if uses_mc and "seed" not in cfg:
        raise ConfigInvalidError("seed required when the Monte-Carlo oracle is enabled")
    if pipeline in ("kernel", "metric", "distance"):
        if not isinstance(domain, ZalcmanDomain):
            raise ConfigInvalidError(f"pipeline {pipeline!r} needs a zalcman domain")
        if "k_range" in cfg:
            _validate_k_range(cfg["k_range"], domain.K)
    if "eps_list" in cfg and not cfg["eps_list"]:
        raise ConfigInvalidError("eps_list must not be empty")
    if pipeline == "pommerenke" or (pipeline == "perfect" and not isinstance(domain, CantorSet)):
        _validate_scale_family(cfg)
    if pipeline == "capacity" and "schedule" in cfg:
        raise ConfigInvalidError(
            "'schedule' is no longer read: the capacity estimate runs one search at the "
            "tolerance profile's n_cap (fast 32, default 64, strict 128); choose it with "
            "--tolerance-profile"
        )
    if pipeline == "fit" and "samples" not in cfg and "samples_csv" not in cfg:
        raise ConfigInvalidError("fit pipeline needs samples or samples_csv")
    return cfg


def _validate_k_range(k_range, K: int) -> None:
    """[k_lo, k_hi] must be integers with 1 <= k_lo <= k_hi <= K."""
    if not (
        isinstance(k_range, (list, tuple))
        and len(k_range) == 2
        and all(isinstance(k, int) and not isinstance(k, bool) for k in k_range)
    ):
        raise ConfigInvalidError(f"k_range must be two integers [k_lo, k_hi], got {k_range!r}")
    k_lo, k_hi = k_range
    if not 1 <= k_lo <= k_hi <= K:
        raise ConfigInvalidError(f"k_range {k_range!r} needs 1 <= k_lo <= k_hi <= K = {K}")


def _scale_family(cfg: dict) -> tuple[str, float]:
    """(family, parameter) of the scale function h of a ``perfect`` or
    ``pommerenke`` run: the domain's, which ``perfect`` lets the config's own
    ``family`` and ``param`` override."""
    dom = cfg["domain"]
    family, param = dom.get("family", "h1"), dom.get("alpha", dom.get("beta", 0.0))
    if cfg["pipeline"] == "perfect":
        family, param = cfg.get("family") or family, cfg.get("param", param)
    return family, float(param)


def _validate_scale_family(cfg: dict) -> None:
    """Build the scale functions the run would: h, and for ``perfect`` also
    the weakened h at ``param - eps`` for each eps."""
    pipeline = cfg["pipeline"]
    try:
        family, param = _scale_family(cfg)
        weakened = [param - eps for eps in cfg.get("eps_list", [0.1])] if pipeline == "perfect" else []
        for p in [param, *weakened]:
            perfectness._family_scale(family, p)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(
            f"{pipeline!r} needs a scale function h: {exc}. h is the domain's family at its alpha "
            "(h1, > 1) or beta (h2, > 0); for perfect the config's family and param override "
            "them, and param - eps must be valid for every eps in eps_list"
        ) from exc


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def run_selfcheck(cfg: dict, out: Path, profile: dict) -> dict:
    from .capacity import capacity_via_transfinite, circle_nodes, equilibrium_measure, nth_diameter

    seed = int(cfg["seed"])
    rows = []

    def check(name: str, value: float, target: float, rel: float):
        ok = abs(value - target) <= rel * abs(target)
        rows.append([name, value, target, rel, "pass" if ok else "fail"])
        return ok

    disk = CircleDomain.build()
    gs = bergman.assemble_gram(disk, bergman.BasisSpec(degree=8))
    all_ok = True
    all_ok &= check("disk_kernel_center", bergman.subspace_kernel(gs, 0j).K_low, 1.0 / math.pi, 1e-6)
    all_ok &= check(
        "disk_metric_center", bergman.subspace_metric(gs, 0j).b_est, math.sqrt(2.0), 1e-6
    )
    all_ok &= check(
        "disk_kernel_half",
        bergman.subspace_kernel(gs, 0.5 + 0j).K_low,
        1.0 / (math.pi * 0.75**2),
        5e-3,
    )
    ann = CircleDomain.build(inner_radius=0.5)
    gs_ann = bergman.assemble_gram(ann, bergman.BasisSpec(degree=8, pole_centers=(0j,), pole_order=8))
    oracle = 0.0
    for n in range(-8, 9):
        nrm = 2 * math.pi * (math.log(2.0) if n == -1 else (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2))
        oracle += 0.7 ** (2 * n) / nrm
    all_ok &= check("annulus_kernel_0.7", bergman.subspace_kernel(gs_ann, 0.7 + 0j).K_low, oracle, 0.02)

    est = capacity_via_transfinite(circle_nodes(0, 0.25, 512), 64)
    all_ok &= check("cap_disk_quarter", est.value, 0.25, 0.08)
    sol = equilibrium_measure(circle_nodes(0, 0.5, 128))
    all_ok &= check("equilibrium_circle_half", sol.capacity, 0.5, 0.02)
    d16, _ = nth_diameter(circle_nodes(0, 1.0, 256), 16)
    all_ok &= check("delta16_circle", d16, 16.0 ** (1.0 / 15.0), 1e-3)

    # seeded Monte-Carlo oracle spot check on the disk area
    mc = mc_integral(disk.contains, lambda z: np.ones_like(z, dtype=float), 1.0, 200_000, seed)
    all_ok &= check("mc_disk_area", mc, math.pi, 0.02)

    write_csv(out / "selfcheck.csv", ["check", "value", "target", "rel_tol", "status"], zip(*rows))
    return {"all_pass": bool(all_ok), "checks": len(rows), "outputs": ["selfcheck.csv"]}


def _config_set_nodes(cfg: dict, profile: dict) -> np.ndarray:
    from .capacity import circle_nodes, segment_nodes

    spec = cfg.get("set", {"type": "circle", "r": 0.5})
    t = spec.get("type")
    n = int(spec.get("grid", 512))
    if t == "circle":
        return circle_nodes(complex(spec.get("center", 0)), float(spec["r"]), n)
    if t == "segment":
        return segment_nodes(complex(spec.get("a", -1.0)), complex(spec.get("b", 1.0)), n)
    if t == "two_disks":
        r = float(spec.get("r", 0.1))
        d = float(spec.get("d", 0.5))
        return np.concatenate([circle_nodes(-d, r, n // 2), circle_nodes(d, r, n // 2)])
    if t == "cantor":
        cset = domain_from_json({"type": "cantor", **spec})
        lefts, lj = cset.intervals()
        per = max(4, n // (2 * lefts.size))
        pieces = [np.linspace(lo, lo + lj, per) for lo in lefts]
        return np.unique(np.concatenate(pieces)).astype(complex)
    raise ConfigInvalidError(f"unknown set type {t!r}")


def run_capacity(cfg: dict, out: Path, profile: dict) -> dict:
    from .capacity import capacity_via_transfinite, equilibrium_measure

    nodes = _config_set_nodes(cfg, profile)
    est = capacity_via_transfinite(nodes, profile["n_cap"])
    report = est.to_json_dict()
    rows = []
    try:
        # an evenly strided subsample keeps the solve at <= 256 nodes while
        # still covering the whole set
        sol = equilibrium_measure(nodes[:: math.ceil(nodes.size / 256)])
        report["equilibrium_capacity"] = sol.capacity
        report["kkt_residual"] = sol.kkt_residual
        report["raw_potential_spread"] = sol.raw_potential_spread
        rows = sol.measure.to_rows()
    except BerglabError as exc:
        report["equilibrium_error"] = str(exc)
    write_json(out / "capacity_report.json", report)
    outputs = ["capacity_report.json"]
    if rows:
        write_csv(out / "measure.csv", ["re", "im", "weight"], zip(*rows))
        outputs.append("measure.csv")
    return {"value": est.value, "outputs": outputs}


def run_perfect(cfg: dict, out: Path, profile: dict) -> dict:
    domain = domain_from_json(cfg["domain"])
    if isinstance(domain, CantorSet):
        rep = perfectness.cantor_U_check(domain, alpha=float(cfg["domain"]["alpha"]))
        write_json(out / "perfect_report.json", rep)
        return {"passed": rep["passed"], "outputs": ["perfect_report.json"]}
    family, param = _scale_family(cfg)
    eps = cfg.get("eps_list", [0.1])
    c_star = perfectness.best_constant_profile(domain, perfectness._family_scale(family, param))
    uc = perfectness.uc_report(domain, family, param, eps, n=profile["n_cap"], profile=c_star)
    rep, rows = uc.pop("classification"), uc.pop("rows")
    write_json(out / "perfect_report.json", {"classification": rep, "uc": uc})
    header = ["a_re", "a_im", "r", "cap", "ratio"]
    write_csv(out / "condition_C.csv", header, [[r[k] for r in rows] for k in header])
    _, table = c_star
    header = ["a_re", "a_im", "r", "c_star"]
    write_csv(out / "c_star_profile.csv", header, [table[k] for k in header])
    return {
        "satisfied": rep["satisfied"],
        "weakened_failed": all(f["failed"] for f in rep["failures"]),
        "outputs": ["perfect_report.json", "condition_C.csv", "c_star_profile.csv"],
    }


def run_pommerenke(cfg: dict, out: Path, profile: dict) -> dict:
    domain = domain_from_json(cfg["domain"])
    h = perfectness._family_scale(*_scale_family(cfg))
    a = complex(cfg.get("a", 0))
    k = int(cfg.get("k", 5))
    c = float(cfg.get("c", 1.0))
    s1 = float(cfg.get("s1", domain.x1 / 10.0))
    cert = perfectness.pommerenke_construct(domain, a, c, k, s1, h)
    comp = perfectness.chain_capacity_comparison(domain, cert, h, n=profile["n_cap"])
    report = {
        "depth": cert.depth,
        "points": len(cert.points),
        "pairwise_ok": cert.pairwise_ok,
        "distinct": cert.distinct,
        "within_seed_ball": cert.within_seed_ball,
        "seed": cert.seed,
        "scales": cert.s.tolist(),
        "product_bound": cert.product_bound,
        "capacity_floor": cert.capacity_floor,
        **comp,
    }
    write_json(out / "pommerenke_certificate.json", report)
    write_csv(
        out / "chain_points.csv",
        ["re", "im", "word"],
        [cert.points.real, cert.points.imag, ["".join(map(str, wd)) for wd in cert.words]],
    )
    return {
        "pairwise_ok": cert.pairwise_ok,
        "floor_below_measured": comp["floor_below_measured"],
        "outputs": ["pommerenke_certificate.json", "chain_points.csv"],
    }


def _mid_band_points(domain: ZalcmanDomain, k_range) -> list[tuple[int, float]]:
    return [(k, math.sqrt(float(domain.xs[k - 1] * domain.xs[k]))) for k in k_range]


def run_kernel(cfg: dict, out: Path, profile: dict) -> dict:
    domain = domain_from_json(cfg["domain"])
    k_lo, k_hi = cfg.get("k_range", [3, min(10, domain.K - 1)])
    ks = list(range(k_lo, k_hi + 1))
    pts = _mid_band_points(domain, ks)
    spec = bergman.default_basis(domain, degree=int(cfg.get("degree", 8)))
    gs = bergman.assemble_gram(domain, spec)
    with_eq = bool(cfg.get("equilibrium", False))
    rows = []
    for k, x in pts:
        wit = bergman.witness_kernel_bound(domain, x)["value"]
        sub = bergman.subspace_kernel(gs, complex(-x)).K_low
        eq = math.nan
        if with_eq:
            try:
                eq = bergman.equilibrium_witness_bound(domain, complex(-x))["bound"]
            except BerglabError:
                eq = math.nan
        rows.append([k, x, sub, wit, eq])
    write_csv(
        out / "kernel_sweep.csv", ["k", "x", "K_low", "witness_bound", "equilibrium_bound"], zip(*rows)
    )
    models = cfg.get("models", ["K1", "K2"])
    column = cfg.get("fit_column", "K_low")
    col_idx = {"K_low": 2, "witness_bound": 3, "equilibrium_bound": 4}[column]
    samples = [(r[1], r[col_idx]) for r in rows if np.isfinite(r[col_idx])]
    preferred, margin, fits = None, None, {}
    if len(samples) >= 5:
        preferred, margin, fits = asymptotics.select_model(samples, models)
    fit_report = {
        "fit_column": column,
        "preferred": preferred,
        "margin": margin,
        "fits": {m: f.to_json_dict() for m, f in fits.items()},
    }
    write_json(out / "kernel_fits.json", fit_report)
    return {
        "preferred": preferred,
        "margin": margin,
        "quad": gs.report(),
        "outputs": ["kernel_sweep.csv", "kernel_fits.json"],
    }


def run_metric(cfg: dict, out: Path, profile: dict) -> dict:
    domain = domain_from_json(cfg["domain"])
    k_lo, k_hi = cfg.get("k_range", [2, min(6, domain.K - 1)])
    pts = _mid_band_points(domain, range(k_lo, k_hi + 1))
    spec = bergman.default_basis(domain, degree=int(cfg.get("degree", 8)))
    gs = bergman.assemble_gram(domain, spec)
    rows = []
    for k, x in pts:
        est = bergman.subspace_metric(gs, complex(-x))
        try:
            wit = bergman.witness_metric_bound(domain, complex(-x), cfg.get("witness", "two_pole"))
            ratio = wit["ratio"]
        except BerglabError:
            ratio = math.nan
        rows.append([k, x, est.K_low, est.S_low, est.b_est, ratio])
    write_csv(
        out / "metric_sweep.csv", ["k", "x", "K_low", "S_low", "b_est", "witness_ratio"], zip(*rows)
    )
    return {"points": len(rows), "quad": gs.report(), "outputs": ["metric_sweep.csv"]}


def run_distance(cfg: dict, out: Path, profile: dict) -> dict:
    domain = domain_from_json(cfg["domain"])
    k_lo, k_hi = cfg.get("k_range", [3, min(10, domain.K - 1)])
    ks = list(range(k_lo, k_hi + 1))
    spec = bergman.default_basis(domain, degree=int(cfg.get("degree", 8)))
    gs = bergman.assemble_gram(domain, spec)
    rows = bergman.distance_profile(domain, ks, per_band=profile["per_band"], gram=gs)
    header = ["k", "x", "b_est", "K_low", "d_est"]
    write_csv(out / "distance_profile.csv", header, [[r[k] for r in rows] for k in header])
    incr = bergman.band_increments(rows)
    samples = [(r["x"], r["d_est"]) for r in rows if r["d_est"] > 0]
    fit_report = {"band_increments": {str(k): v for k, v in incr.items()}}
    if len(samples) >= 5:
        preferred, margin, fits = asymptotics.select_model(samples, cfg.get("models", ["D1", "D2"]))
        fit_report.update(
            preferred=preferred,
            margin=margin,
            fits={m: f.to_json_dict() for m, f in fits.items()},
        )
    ks_of_rows = [r["k"] for r in rows]
    slope, intercept, r2 = asymptotics.linear_fit_r2(ks_of_rows, [r["d_est"] for r in rows])
    fit_report["d_vs_k"] = {"slope": slope, "intercept": intercept, "r2": r2}
    write_json(out / "distance_fits.json", fit_report)
    return {
        "bands": len(incr),
        "r2_linear_in_k": r2,
        "quad": gs.report(),
        "outputs": ["distance_profile.csv", "distance_fits.json"],
    }


def run_fit(cfg: dict, out: Path, profile: dict) -> dict:
    if "samples" in cfg:
        samples = [(float(x), float(v)) for x, v in cfg["samples"]]
    else:
        path = Path(cfg["samples_csv"])
        lines = path.read_text().strip().splitlines()[1:]
        samples = [tuple(map(float, ln.split(",")[:2])) for ln in lines]
    models = cfg.get("models", ["K1", "K2"])
    preferred, margin, fits = asymptotics.select_model(samples, models)
    report = {
        "preferred": preferred,
        "margin": margin,
        "inconclusive": margin > 0.8,
        "fits": {m: f.to_json_dict() for m, f in fits.items()},
    }
    write_json(out / "fit_report.json", report)
    return {"preferred": preferred, "outputs": ["fit_report.json"]}


RUNNERS = {
    "selfcheck": run_selfcheck,
    "capacity": run_capacity,
    "perfect": run_perfect,
    "pommerenke": run_pommerenke,
    "kernel": run_kernel,
    "metric": run_metric,
    "distance": run_distance,
    "fit": run_fit,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(cfg: dict, out_dir: str, tolerance_profile: str = "default") -> dict:
    """Execute one pipeline; returns the manifest dictionary."""
    cfg = validate_config(cfg)
    profile = TOLERANCE_PROFILES[tolerance_profile]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    summary = RUNNERS[cfg["pipeline"]](cfg, out, profile)
    wall = time.monotonic() - start
    outputs = []
    for name in summary.pop("outputs", []):
        p = out / name
        outputs.append({"path": name, "sha256": sha256_file(p), "bytes": p.stat().st_size})
    manifest = {
        "pipeline": cfg["pipeline"],
        "config": cfg,
        "config_sha256": hashlib.sha256(
            json.dumps(_jsonable(cfg), sort_keys=True).encode()
        ).hexdigest(),
        "seed": cfg.get("seed"),
        "tolerance_profile": tolerance_profile,
        "tolerances": profile,
        "outputs": outputs,
        "wall_time_s": wall,
        "status": "ok",
        "summary": summary,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="berglab", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--tolerance-profile",
        choices=sorted(TOLERANCE_PROFILES),
        default="default",
    )
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "ConfigInvalid", "message": str(exc)}), file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        manifest = run(cfg, args.out, args.tolerance_profile)
    except ConfigInvalidError as exc:
        print(json.dumps({"error": "ConfigInvalid", "message": str(exc)}), file=sys.stderr)
        return 2
    except BerglabError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr
        )
        return 3
    print(json.dumps({"status": "ok", "out": args.out, "pipeline": manifest["pipeline"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
