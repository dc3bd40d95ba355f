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
from .capacity import capacity_via_transfinite, circle_nodes, equilibrium_measure, nth_diameter, segment_nodes
from .domains import CantorSet, CircleDomain, ScaleFunction, ZalcmanDomain, domain_from_json
from .errors import BerglabError, ConfigInvalidError
from .quadrature import mc_integral

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


def write_csv(path: Path, table: dict) -> bytes:
    """One CSV line per row of ``table``, a dict of equal-length columns
    whose keys are the header; returns the bytes written."""
    lines = [",".join(table), *map(",".join, zip(*map(format_column, table.values()), strict=True))]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return data


def write_json(path: Path, obj: dict) -> bytes:
    """``obj`` as strict, key-sorted JSON; returns the bytes written."""
    data = (json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")
    path.write_bytes(data)
    return data


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

_KIND_NAMES = {ZalcmanDomain: "zalcman", CantorSet: "cantor"}


def _domain(cfg: dict, *kinds: type):
    """The config's domain, built once; it must be one of ``kinds`` if any are given."""
    spec = cfg.get("domain")
    if not isinstance(spec, dict):
        raise ConfigInvalidError(f"pipeline {cfg['pipeline']!r} requires a domain spec (a JSON object)")
    try:
        domain = domain_from_json(spec)
    except (KeyError, TypeError, ValueError, BerglabError) as exc:
        raise ConfigInvalidError(f"invalid domain spec: {exc}") from exc
    if kinds and not isinstance(domain, kinds):
        names = " or ".join(_KIND_NAMES[k] for k in kinds)
        raise ConfigInvalidError(f"pipeline {cfg['pipeline']!r} needs a {names} domain")
    return domain


def _integer(spec: dict, key: str, default, least: int) -> int:
    value = spec.get(key, default)
    if type(value) is not int or value < least:
        raise ConfigInvalidError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _positive(value) -> bool:
    return type(value) in (int, float) and 0 < value < math.inf


def _models(cfg: dict, default: list[str]) -> list[str]:
    models = cfg.get("models", default)
    if not (isinstance(models, list) and models and all(m in asymptotics.MODELS for m in map(str, models))):
        raise ConfigInvalidError(f"models {models!r} is not a non-empty list of {list(asymptotics.MODELS)}")
    return models


def _bands(cfg: dict, domain: ZalcmanDomain, default: tuple[int, int]) -> range:
    """Scale bands k_lo..k_hi of ``k_range``: integers with 1 <= k_lo <= k_hi <= K.

    Without ``k_range`` they are ``default[0]..min(default[1], K - 1)``,
    checked by the same rule."""
    k_range = cfg.get("k_range", [default[0], min(default[1], domain.K - 1)])
    if not (isinstance(k_range, list) and len(k_range) == 2 and all(type(k) is int for k in k_range)):
        raise ConfigInvalidError(f"k_range must be two integers [k_lo, k_hi], got {k_range!r}")
    k_lo, k_hi = k_range
    if not 1 <= k_lo <= k_hi <= domain.K:
        given = "" if "k_range" in cfg else " (the default)"
        raise ConfigInvalidError(f"k_range {k_range!r}{given} needs 1 <= k_lo <= k_hi <= K = {domain.K}")
    return range(k_lo, k_hi + 1)


# ---------------------------------------------------------------------------
# pipelines: run_<name>(cfg, profile) -> (summary, artifacts); artifacts maps
# a file name to a JSON object or, for .csv, to a dict of equal-length columns
# ---------------------------------------------------------------------------


def run_selfcheck(cfg: dict, profile: dict) -> tuple[dict, dict]:
    seed = _integer(cfg, "seed", None, 0)
    rows = []

    def check(name: str, value: float, target: float, rel: float):
        ok = abs(value - target) <= rel * abs(target)
        rows.append([name, value, target, rel, "pass" if ok else "fail"])

    disk = CircleDomain.build()
    gs = bergman.assemble_gram(disk)
    check("disk_kernel_center", bergman.subspace_kernel(gs, 0j).K_low, 1.0 / math.pi, 1e-6)
    check("disk_metric_center", bergman.subspace_metric(gs, 0j).b_est, math.sqrt(2.0), 1e-6)
    check("disk_kernel_half", bergman.subspace_kernel(gs, 0.5 + 0j).K_low, 1.0 / (math.pi * 0.75**2), 5e-3)
    ann = CircleDomain.build(inner_radius=0.5)
    gs_ann = bergman.assemble_gram(ann)
    oracle = 0.0
    for n in range(-8, 9):
        nrm = 2 * math.pi * (math.log(2.0) if n == -1 else (1 - 0.5 ** (2 * n + 2)) / (2 * n + 2))
        oracle += 0.7 ** (2 * n) / nrm
    check("annulus_kernel_0.7", bergman.subspace_kernel(gs_ann, 0.7 + 0j).K_low, oracle, 0.02)

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
    spec = cfg.get("set", {"type": "circle", "r": 0.5})
    if not isinstance(spec, dict):
        raise ConfigInvalidError(f"set must be a JSON object, got {spec!r}")
    t = spec.get("type")
    n = _integer(spec, "grid", 512, 1)
    try:
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
    except (KeyError, TypeError, ValueError, BerglabError) as exc:
        raise ConfigInvalidError(f"invalid {t} set spec: {exc}") from exc
    raise ConfigInvalidError(f"unknown set type {t!r}")


def run_capacity(cfg: dict, profile: dict) -> tuple[dict, dict]:
    if "schedule" in cfg:
        raise ConfigInvalidError(
            "'schedule' is no longer read: the capacity estimate runs one search at the "
            "tolerance profile's n_cap (fast 32, default 64, strict 128); choose it with "
            "--tolerance-profile"
        )
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
    for key in ("family", "param"):
        if key in cfg:
            raise ConfigInvalidError(
                f"{key!r} is no longer read: perfect tests the zalcman domain's own h, "
                "its family at its alpha (h1) or beta (h2)"
            )
    eps_list = cfg.get("eps_list", [0.1])
    if not (isinstance(eps_list, list) and eps_list and all(map(_positive, eps_list))):
        raise ConfigInvalidError(f"eps_list must be a non-empty list of numbers > 0, got {eps_list!r}")
    domain = _domain(cfg, ZalcmanDomain, CantorSet)
    if isinstance(domain, CantorSet):
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
    uc, condition_C = perfectness.uc_report(domain, h, rep, n=profile["n_cap"])
    summary = {"satisfied": rep["satisfied"], "weakened_failed": all(f["failed"] for f in rep["failures"])}
    return summary, {
        "perfect_report.json": {"classification": rep, "uc": uc},
        "condition_C.csv": condition_C,
        "c_star_profile.csv": c_star,
    }


def run_pommerenke(cfg: dict, profile: dict) -> tuple[dict, dict]:
    domain = _domain(cfg, ZalcmanDomain)
    for key in ("c", "s1"):
        if key in cfg and not _positive(cfg[key]):
            raise ConfigInvalidError(f"pipeline 'pommerenke' needs {key} > 0, got {cfg[key]!r}")
    try:
        a = complex(cfg.get("a", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"a must be a number, got {cfg['a']!r}") from exc
    # k = 0 would certify only the vacuous floor 1
    k = _integer(cfg, "k", 5, 1)
    c = float(cfg.get("c", 1.0))
    s1 = float(cfg.get("s1", domain.x1 / 10.0))
    cert = perfectness.pommerenke_construct(domain, a, c, k, s1, domain.h)
    comp = perfectness.chain_capacity_comparison(domain, cert, domain.h, n=profile["n_cap"])
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
    domain = _domain(cfg, ZalcmanDomain)
    ks = _bands(cfg, domain, default)
    degree = _integer(cfg, "degree", 8, 0)
    xs = domain.xs
    mids = np.sqrt(xs[ks.start - 1 : ks.stop - 1] * xs[ks.start : ks.stop])
    gs = bergman.assemble_gram(domain, bergman.default_basis(domain, degree=degree))
    return domain, ks, mids, gs


def run_kernel(cfg: dict, profile: dict) -> tuple[dict, dict]:
    models = _models(cfg, ["K1", "K2"])
    column = cfg.get("fit_column", "K_low")
    if column not in ("K_low", "witness_bound", "equilibrium_bound"):
        raise ConfigInvalidError(f"fit_column {column!r} is not K_low, witness_bound or equilibrium_bound")
    with_eq = cfg.get("equilibrium", False)
    if type(with_eq) is not bool:
        raise ConfigInvalidError(f"equilibrium must be true or false, got {with_eq!r}")
    domain, ks, mids, gs = _band_sweep(cfg, (3, 10))
    xs = mids.tolist()
    eq = [math.nan] * len(xs)
    if with_eq:
        # per point: their 45-131 poles make one Gram of all of them slower
        for i, x in enumerate(xs):
            try:
                eq[i] = bergman.equilibrium_witness_bound(domain, complex(-x))["bound"]
            except BerglabError:
                pass
    table = {
        "k": list(ks),
        "x": xs,
        "K_low": bergman.subspace_kernel(gs, -mids).K_low.tolist(),
        "witness_bound": [bergman.witness_kernel_bound(domain, x)["value"] for x in xs],
        "equilibrium_bound": eq,
    }
    samples = [(x, v) for x, v in zip(table["x"], table[column]) if np.isfinite(v)]
    preferred, margin, fits = None, None, {}
    if len(samples) >= 5:
        preferred, margin, fits = asymptotics.select_model(samples, models)
    fit_report = {
        "fit_column": column,
        "preferred": preferred,
        "margin": margin,
        "fits": {m: f.to_json_dict() for m, f in fits.items()},
    }
    summary = {"preferred": preferred, "margin": margin, "quad": gs.report()}
    return summary, {"kernel_sweep.csv": table, "kernel_fits.json": fit_report}


def run_metric(cfg: dict, profile: dict) -> tuple[dict, dict]:
    witness = cfg.get("witness", "two_pole")
    if witness not in ("two_pole", "three_pole"):
        raise ConfigInvalidError(f"witness must be two_pole or three_pole, got {witness!r}")
    domain, ks, mids, gs = _band_sweep(cfg, (2, 6))
    est = bergman.subspace_metric(gs, -mids)
    table = {
        "k": list(ks),
        "x": mids.tolist(),
        "K_low": est.K_low.tolist(),
        "S_low": est.S_low.tolist(),
        "b_est": est.b_est.tolist(),
        "witness_ratio": bergman.witness_metric_ratios(domain, -mids, witness).tolist(),
    }
    return {"points": mids.size, "quad": gs.report()}, {"metric_sweep.csv": table}


def run_distance(cfg: dict, profile: dict) -> tuple[dict, dict]:
    models = _models(cfg, ["D1", "D2"])
    domain, ks, _, gs = _band_sweep(cfg, (3, 10))
    rows = bergman.distance_profile(domain, ks, per_band=profile["per_band"], gram=gs)
    table = {k: [r[k] for r in rows] for k in ["k", "x", "b_est", "K_low", "d_est"]}
    incr = bergman.band_increments(rows)
    samples = [(r["x"], r["d_est"]) for r in rows if r["d_est"] > 0]
    fit_report = {"band_increments": {str(k): v for k, v in incr.items()}}
    if len(samples) >= 5:
        preferred, margin, fits = asymptotics.select_model(samples, models)
        fit_report.update(
            preferred=preferred,
            margin=margin,
            fits={m: f.to_json_dict() for m, f in fits.items()},
        )
    slope, intercept, r2 = asymptotics.linear_fit_r2(table["k"], table["d_est"])
    fit_report["d_vs_k"] = {"slope": slope, "intercept": intercept, "r2": r2}
    summary = {"bands": len(incr), "r2_linear_in_k": r2, "quad": gs.report()}
    return summary, {"distance_profile.csv": table, "distance_fits.json": fit_report}


def run_fit(cfg: dict, profile: dict) -> tuple[dict, dict]:
    models = _models(cfg, ["K1", "K2"])
    key = "samples" if "samples" in cfg else "samples_csv"
    if key not in cfg:
        raise ConfigInvalidError("fit pipeline needs samples or samples_csv")
    try:
        if key == "samples":
            pairs = cfg["samples"]
        else:
            header, *lines = Path(cfg["samples_csv"]).read_text().strip().splitlines()
            names = header.split(",")
            if "x" not in names or "value" not in names:
                raise ConfigInvalidError(
                    f"samples_csv needs columns named x and value, got {names}; a kernel sweep "
                    "is fitted by the kernel pipeline itself, in kernel_fits.json"
                )
            ix, iv = names.index("x"), names.index("value")
            pairs = [(row[ix], row[iv]) for row in (ln.split(",") for ln in lines)]
        samples = [(float(x), float(v)) for x, v in pairs]
    except (OSError, TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalidError(f"{key} must give (x, value) pairs of numbers: {exc}") from exc
    preferred, margin, fits = asymptotics.select_model(samples, models)
    report = {
        "preferred": preferred,
        "margin": margin,
        "inconclusive": margin > 0.8,
        "fits": {m: f.to_json_dict() for m, f in fits.items()},
    }
    return {"preferred": preferred}, {"fit_report.json": report}


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
    if not isinstance(cfg, dict):
        raise ConfigInvalidError("config must be a JSON object")
    if cfg.get("pipeline") not in tuple(RUNNERS):  # a tuple: the name may be unhashable JSON
        raise ConfigInvalidError(f"pipeline must be one of {tuple(RUNNERS)}, got {cfg.get('pipeline')!r}")
    if tolerance_profile not in tuple(TOLERANCE_PROFILES):
        raise ConfigInvalidError(
            f"tolerance profile must be one of {tuple(TOLERANCE_PROFILES)}, got {tolerance_profile!r}"
        )
    profile = TOLERANCE_PROFILES[tolerance_profile]
    start = time.monotonic()
    summary, artifacts = RUNNERS[cfg["pipeline"]](cfg, profile)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, content in artifacts.items():
        data = (write_csv if name.endswith(".csv") else write_json)(out / name, content)
        outputs.append({"path": name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)})
    wall = time.monotonic() - start
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
