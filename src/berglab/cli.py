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
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import asymptotics, bergman, config, perfectness
from .capacity import capacity_via_transfinite, circle_nodes, equilibrium_measure, nth_diameter, segment_nodes
from .domains import (
    CantorSet,
    CircleDomain,
    ScaleFunction,
    ZalcmanDomain,
    build_cantor,
    domain_from_json,
)
from .errors import AnnulusEmptyError, BerglabError, ConfigInvalidError
from .quadrature import mc_integral

#: rows that ``write_csv`` builds, encodes, hashes and writes at a time
CSV_BLOCK_ROWS = 4096

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


def write_csv(path: Path, table: dict) -> tuple[str, int]:
    """One CSV line per row of ``table``, a dict of equal-length columns
    whose keys are the header, written ``CSV_BLOCK_ROWS`` rows at a time
    from columns formatted once; returns the sha256 and size of the file."""
    cols = list(map(format_column, table.values()))
    rows = {len(c) for c in cols}
    if len(rows) > 1:
        raise ValueError(f"CSV columns of unequal lengths {sorted(rows)}")
    blocks = (
        "\n".join(map(",".join, zip(*(c[i : i + CSV_BLOCK_ROWS] for c in cols)))) + "\n"
        for i in range(0, max(rows, default=0), CSV_BLOCK_ROWS)
    )
    return _write(path, chain([",".join(table) + "\n"], blocks))


def write_json(path: Path, obj: dict) -> tuple[str, int]:
    """``obj`` as strict, key-sorted JSON; returns the sha256 and size of the file."""
    return _write(path, [json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"])


def _write(path: Path, chunks) -> tuple[str, int]:
    """Encode, hash and write each text chunk in turn."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as f:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            size += f.write(data)
    return digest.hexdigest(), size


def _jsonable(obj):
    """Plain JSON values; non-finite floats, which JSON cannot hold, become None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


# ---------------------------------------------------------------------------
# config readers: each returns a checked value or raises ConfigInvalidError
# ---------------------------------------------------------------------------


def _bands(cfg: dict, domain: ZalcmanDomain, default: tuple[int, int]) -> range:
    """Scale bands k_lo..k_hi of ``k_range``, which need 1 <= k_lo <= k_hi <= K.

    Without ``k_range`` they are ``default[0]..min(default[1], K - 1)``,
    checked by the same rule."""
    k_lo, k_hi = cfg["k_range"] or (default[0], min(default[1], domain.K - 1))
    if not 1 <= k_lo <= k_hi <= domain.K:
        given = "" if cfg["k_range"] else " (the default)"
        raise ConfigInvalidError(f"k_range {[k_lo, k_hi]}{given} needs 1 <= k_lo <= k_hi <= K = {domain.K}")
    return range(k_lo, k_hi + 1)


# ---------------------------------------------------------------------------
# pipelines: run_<name>(cfg, profile) -> (summary, artifacts), where cfg holds
# every key of the pipeline's table in ``config.PIPELINES``; artifacts maps a
# file name to a JSON object or, for .csv, to a dict of equal-length columns
# ---------------------------------------------------------------------------


def run_selfcheck(cfg: dict, profile: dict) -> tuple[dict, dict]:
    seed = cfg["seed"]
    rows = []

    def check(name: str, value: float, target: float, rel: float):
        ok = abs(value - target) <= rel * abs(target)
        rows.append([name, value, target, rel, "pass" if ok else "fail"])

    disk = CircleDomain.build()
    gs = bergman.assemble_gram(disk)
    check("disk_kernel_center", bergman.subspace_kernel(gs, 0j), 1.0 / math.pi, 1e-6)
    check("disk_metric_center", bergman.subspace_metric(gs, 0j).b_est, math.sqrt(2.0), 1e-6)
    check("disk_kernel_half", bergman.subspace_kernel(gs, 0.5 + 0j), 1.0 / (math.pi * 0.75**2), 5e-3)
    ann = CircleDomain.build([(0j, 0.5)])
    gs_ann = bergman.assemble_gram(ann)
    oracle = 0.0
    for n in range(-8, 9):
        nrm = 2 * math.pi * (math.log(2.0) if n == -1 else (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2))
        oracle += 0.7 ** (2 * n) / nrm
    check("annulus_kernel_0.7", bergman.subspace_kernel(gs_ann, 0.7 + 0j), oracle, 0.02)

    est = capacity_via_transfinite(circle_nodes(0, 0.25, 512), 64)
    check("cap_disk_quarter", est.value, 0.25, 0.08)
    sol = equilibrium_measure(circle_nodes(0, 0.5, 128))
    check("equilibrium_circle_half", sol.capacity, 0.5, 0.02)
    d16, _ = nth_diameter(circle_nodes(0, 1.0, 256), 16)
    check("delta16_circle", d16, 16.0 ** (1.0 / 15.0), 1e-3)

    # seeded Monte-Carlo oracle spot check on the disk area
    mc = mc_integral(disk.contains, lambda z: np.ones_like(z, dtype=float), 1.0, 200_000, seed)
    check("mc_disk_area", mc, math.pi, 0.02)

    table = dict(zip(["check", "value", "target", "rel_tol", "status"], zip(*rows)))
    return {"all_pass": "fail" not in table["status"], "checks": len(rows)}, {"selfcheck.csv": table}


def _config_set_nodes(cfg: dict) -> np.ndarray:
    t, spec = config.check(cfg["set"], config.SETS, "set", "the capacity config")
    n = spec["grid"]
    if t == "circle":
        return circle_nodes(complex(spec["center"]), spec["r"], n)
    if t == "segment":
        return segment_nodes(complex(spec["a"]), complex(spec["b"]), n)
    if t == "two_disks":
        return np.concatenate([circle_nodes(-spec["d"], spec["r"], n // 2), circle_nodes(spec["d"], spec["r"], n // 2)])
    try:
        lefts, lj = build_cantor(spec["l0"], spec["alpha"], spec["J"]).intervals()
    except BerglabError as exc:
        raise ConfigInvalidError(f"the cantor set does not build: {exc}") from exc
    per = max(4, n // (2 * lefts.size))
    pieces = [np.linspace(lo, lo + lj, per) for lo in lefts]
    # return_index keeps np.unique off its plain path, which imports numpy.ma
    return np.unique(np.concatenate(pieces), return_index=True)[0].astype(complex)


def run_capacity(cfg: dict, profile: dict) -> tuple[dict, dict]:
    nodes = _config_set_nodes(cfg)
    floor = 4 * profile["n_cap"]
    if nodes.size < floor:
        raise ConfigInvalidError(
            f"set grid gives {nodes.size} nodes; the capacity search at n_cap = {profile['n_cap']} "
            f"needs at least 4 n_cap = {floor} (fast 128, default 256, strict 512): raise grid"
        )
    est = capacity_via_transfinite(nodes, profile["n_cap"])
    report = est.to_json_dict()
    artifacts = {"capacity_report.json": report}
    try:
        # an evenly strided subsample keeps the solve at <= 256 nodes while
        # still covering the whole set
        sol = equilibrium_measure(nodes[:: math.ceil(nodes.size / 256)])
        report["equilibrium_capacity"] = sol.capacity
        report["kkt_residual"] = sol.kkt_residual
        report["raw_potential_spread"] = sol.raw_potential_spread
        mu = sol.measure
        artifacts["measure.csv"] = {"re": mu.nodes.real, "im": mu.nodes.imag, "weight": mu.weights}
    except BerglabError as exc:
        report["equilibrium_error"] = str(exc)
    return {"value": est.value}, artifacts


def run_perfect(cfg: dict, profile: dict) -> tuple[dict, dict]:
    eps_list = cfg["eps_list"]
    domain = domain_from_json(cfg["domain"])
    cantor = isinstance(domain, CantorSet)
    # an empty range would pass or fail the check vacuously
    lo, hi = perfectness._cantor_range(domain) if cantor else perfectness._profile_range(domain, domain.h)
    if lo > hi:
        rule = "2.0002 l_{J-1} up to 1.9 l0" if cantor else "1.0001 x_K up to x1/2"
        raise ConfigInvalidError(f"perfect has no radius to check on this domain: {rule} is [{lo:g}, {hi:g}]")
    if cantor:
        rep = perfectness.cantor_U_check(domain)
        return {"passed": rep["passed"]}, {"perfect_report.json": rep}
    h = domain.h
    try:
        for eps in eps_list:
            ScaleFunction.of(h.family, h.param - eps)
    except ValueError as exc:
        raise ConfigInvalidError(
            f"the weakened h at param - eps must be valid for every eps in eps_list, with param = {h.param}: {exc}"
        ) from exc
    rep, c_star = perfectness.classify_weak_perfectness(domain, h, eps_list)
    uc, condition_C = perfectness.uc_report(domain, h, rep)
    summary = {"satisfied": rep["satisfied"], "weakened_failed": all(f["failed"] for f in rep["failures"])}
    return summary, {
        "perfect_report.json": {"classification": rep, "uc": uc},
        "condition_C.csv": condition_C,
        "c_star_profile.csv": c_star,
    }


def run_pommerenke(cfg: dict, profile: dict) -> tuple[dict, dict]:
    domain = domain_from_json(cfg["domain"])
    k = cfg["k"]
    s1 = domain.x1 / 10.0 if cfg["s1"] is None else cfg["s1"]
    try:
        cert = perfectness.pommerenke_construct(domain, complex(cfg["a"]), cfg["c"], k, s1, domain.h)
    except AnnulusEmptyError as exc:
        # from the origin the nearest retained hole is hole K, at x_K - r_K
        gap = float(domain.xs[domain.K - 1] - domain.rs[domain.K - 1])
        if exc.center == 0 and exc.hi < gap:
            raise ConfigInvalidError(f"{exc}: the window lies below x_K - r_K = {gap:.3g}, where K = {domain.K} "
                                     "hides the deeper holes; raise K") from exc
        raise
    comp = perfectness.chain_capacity_comparison(domain, cert, domain.h)
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
    points = {
        "re": cert.points.real,
        "im": cert.points.imag,
        "word": [format(i, f"0{k}b") for i in range(len(cert.points))],
    }
    summary = {"pairwise_ok": cert.pairwise_ok, "floor_below_measured": comp["floor_below_measured"]}
    return summary, {"pommerenke_certificate.json": report, "chain_points.csv": points}


def _band_sweep(cfg: dict, default: tuple[int, int]):
    """(domain, bands, array of mid-band points sqrt(x_k x_{k+1}), Gram
    system) of ``kernel``, ``metric`` and ``distance``; ``default`` goes to
    ``_bands``.  Their tables hold lists: ``format_column`` writes a short
    list cell by cell, without the sort of its array path."""
    domain = domain_from_json(cfg["domain"])
    ks = _bands(cfg, domain, default)
    xs = domain.xs
    mids = np.sqrt(xs[ks.start - 1 : ks.stop - 1] * xs[ks.start : ks.stop])
    gs = bergman.assemble_gram(domain)
    return domain, ks, mids, gs


def _fits(samples: list[tuple[float, float]], models: list[str]) -> dict:
    """The preferred model, margin and fits of ``select_model``, as JSON."""
    preferred, margin, fits = asymptotics.select_model(samples, models)
    return {"preferred": preferred, "margin": margin, "fits": {m: f.to_json_dict() for m, f in fits.items()}}


def run_kernel(cfg: dict, profile: dict) -> tuple[dict, dict]:
    column = cfg["fit_column"]
    domain, ks, mids, gs = _band_sweep(cfg, (3, 10))
    eq, quad = np.full(mids.size, math.nan), {}
    if cfg["equilibrium"]:
        eq, info = bergman.equilibrium_witness_bound(domain, -mids)
        quad = {"equilibrium_quad": info.to_json_dict()}
    table = {
        "k": list(ks),
        "x": mids.tolist(),
        "K_low": bergman.subspace_kernel(gs, -mids).tolist(),
        "witness_bound": bergman.witness_kernel_bound(domain, mids).tolist(),
        "equilibrium_bound": eq.tolist(),
    }
    samples = [(x, v) for x, v in zip(table["x"], table[column]) if np.isfinite(v)]
    fit_report = {"fit_column": column, "preferred": None, "margin": None, "fits": {}}
    if len(samples) >= 5:
        fit_report.update(_fits(samples, cfg["models"]))
    summary = {"preferred": fit_report["preferred"], "margin": fit_report["margin"], "quad": gs.report(), **quad}
    return summary, {"kernel_sweep.csv": table, "kernel_fits.json": fit_report}


def run_metric(cfg: dict, profile: dict) -> tuple[dict, dict]:
    _, ks, mids, gs = _band_sweep(cfg, (2, 6))
    est = bergman.subspace_metric(gs, -mids)
    table = {
        "k": list(ks),
        "x": mids.tolist(),
        "K_low": est.K_low.tolist(),
        "S_low": est.S_low.tolist(),
        "b_est": est.b_est.tolist(),
        "witness_ratio": bergman.witness_metric_bound(gs, -mids).tolist(),
    }
    return {"points": mids.size, "quad": gs.report()}, {"metric_sweep.csv": table}


def run_distance(cfg: dict, profile: dict) -> tuple[dict, dict]:
    domain, ks, _, gs = _band_sweep(cfg, (3, 10))
    columns = bergman.distance_profile(domain, ks, per_band=profile["per_band"], gram=gs)
    incr = bergman.band_increments(columns["k"], columns["d_est"])
    table = {name: c.tolist() for name, c in columns.items()}
    samples = [(x, d) for x, d in zip(table["x"], table["d_est"]) if d > 0]
    fit_report = {"band_increments": {str(k): v for k, v in incr.items()}}
    if len(samples) >= 5:
        fit_report.update(_fits(samples, cfg["models"]))
    slope, intercept, r2 = asymptotics.linear_fit_r2(table["k"], table["d_est"])
    fit_report["d_vs_k"] = {"slope": slope, "intercept": intercept, "r2": r2}
    summary = {"bands": len(incr), "r2_linear_in_k": r2, "quad": gs.report()}
    return summary, {"distance_profile.csv": table, "distance_fits.json": fit_report}


def run_fit(cfg: dict, profile: dict) -> tuple[dict, dict]:
    key = "samples" if cfg["samples"] is not None else "samples_csv"
    if cfg[key] is None:
        raise ConfigInvalidError("fit pipeline needs samples or samples_csv")
    try:
        pairs = cfg["samples"]
        if pairs is None:
            header, *lines = Path(cfg["samples_csv"]).read_text().strip().splitlines()
            names = header.split(",")
            if "x" not in names or "value" not in names:
                raise ValueError(
                    f"it needs columns named x and value, got {names}; a kernel sweep "
                    "is fitted by the kernel pipeline itself, in kernel_fits.json"
                )
            ix, iv = names.index("x"), names.index("value")
            pairs = [(row[ix], row[iv]) for row in (ln.split(",") for ln in lines)]
        samples = [(float(x), float(v)) for x, v in pairs]
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigInvalidError(f"{key} must give (x, value) pairs of numbers: {exc}") from exc
    report = _fits(samples, cfg["models"])
    report["inconclusive"] = report["margin"] > 0.8
    return {"preferred": report["preferred"]}, {"fit_report.json": report}


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
    """Execute one pipeline; returns the manifest dictionary.

    The output directory is made only once the runner has returned, so a
    run that raises leaves none behind."""
    name, params = config.check(cfg, config.PIPELINES, "config", "berglab", selector="pipeline")
    if tolerance_profile not in tuple(TOLERANCE_PROFILES):
        raise ConfigInvalidError(
            f"tolerance profile must be one of {tuple(TOLERANCE_PROFILES)}, got {tolerance_profile!r}"
        )
    profile = TOLERANCE_PROFILES[tolerance_profile]
    start = time.monotonic()
    summary, artifacts = RUNNERS[name](params, profile)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for path, content in artifacts.items():
        sha256, size = (write_csv if path.endswith(".csv") else write_json)(out / path, content)
        outputs.append({"path": path, "sha256": sha256, "bytes": size})
    wall = time.monotonic() - start
    manifest = {
        "pipeline": name,
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
    if args.seed is not None and isinstance(cfg, dict):  # run() reports any other config
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
