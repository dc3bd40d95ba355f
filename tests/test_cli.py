import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab import bergman, perfectness, quadrature
from berglab.cli import CSV_BLOCK_ROWS, format_column, main, run, write_csv, write_json
from berglab.domains import ScaleFunction, build_zalcman
from berglab.errors import ConfigInvalidError
from berglab.quadrature import domain_circles


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_selfcheck_all_pass(tmp_path):
    man = run({"pipeline": "selfcheck", "seed": 0}, str(tmp_path), "fast")
    assert man["status"] == "ok"
    assert man["summary"]["all_pass"]
    csv = (tmp_path / "selfcheck.csv").read_text()
    assert "fail" not in csv


def test_capacity_pipeline(tmp_path):
    cfg = {"pipeline": "capacity", "set": {"type": "circle", "r": 0.25, "grid": 512}, "seed": 1}
    man = run(cfg, str(tmp_path))
    rep = json.loads((tmp_path / "capacity_report.json").read_text())
    assert rep["method"] == "transfinite"
    assert abs(rep["value"] - 0.25) <= 0.02
    assert (tmp_path / "measure.csv").read_text().startswith("re,im,weight")


@pytest.mark.parametrize(
    "spec",
    [{"type": "circle", "r": 0.5, "grid": 512}, {"type": "segment", "a": -1.0, "b": 1.0, "grid": 1024}],
)
def test_capacity_equilibrium_covers_whole_set(tmp_path, spec):
    # both sets have capacity 1/2; a solve on a leading piece of the grid
    # reported 0.353 (half circle) and 0.125 (quarter segment)
    run({"pipeline": "capacity", "set": spec, "seed": 1}, str(tmp_path), "strict")
    rep = json.loads((tmp_path / "capacity_report.json").read_text())
    assert rep["equilibrium_capacity"] == pytest.approx(0.5, rel=0.02)
    assert 0.0 <= rep["kkt_residual"] <= 1e-12
    assert rep["raw_potential_spread"] >= 0.0


def test_capacity_with_repeated_nodes_records_equilibrium_error(tmp_path):
    # two coincident circles repeat every node: the transfinite search runs,
    # the equilibrium solve reports its error instead of a traceback
    spec = {"type": "two_disks", "r": 0.1, "d": 0.0, "grid": 512}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "capacity", "set": spec, "seed": 1}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    rep = json.loads((tmp_path / "o" / "capacity_report.json").read_text())
    assert "distinct" in rep["equilibrium_error"]
    assert not (tmp_path / "o" / "measure.csv").exists()


def test_kernel_pipeline_end_to_end(tmp_path):
    cfg = {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.3, "x1": 1e-2, "K": 7},
        "k_range": [2, 6],
        "fit_column": "witness_bound",
        "seed": 3,
    }
    man = run(cfg, str(tmp_path), "fast")
    assert man["summary"]["preferred"] in ("K1", "K2")  # shallow window: either law
    lines = (tmp_path / "kernel_sweep.csv").read_text().splitlines()
    assert lines[0] == "k,x,K_low,witness_bound,equilibrium_bound"
    assert len(lines) == 6


def test_kernel_manifest_records_the_boundary_rule(tmp_path):
    cfg = {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 6},
        "k_range": [1, 5],
    }
    quad = run(cfg, str(tmp_path))["summary"]["quad"]
    assert quad == read_manifest(tmp_path)["summary"]["quad"]
    assert len(quad["circle_nodes"]) == 7  # six holes and the outer circle
    assert all(isinstance(n, int) for n in quad["circle_nodes"])
    # the documented rule: N = s + ceil(14 ln 10 / -ln ratio), s + 1 at ratio
    # 0, with s = 9 polynomial coefficients + pole order 2 + 1, and ratio that
    # of each circle's nearest pole (the six hole centers)
    dom = build_zalcman(ScaleFunction.h1(1.5), 1e-2, 6)
    s, poles, want = 12, dom.xs[:6], []
    for c, rho, _ in domain_circles(dom):
        d = np.abs(poles - c)
        ratio = float(np.max(np.minimum(d, rho) / np.maximum(d, rho)))
        want.append(s + 1 if ratio == 0.0 else s + math.ceil(14.0 * math.log(10.0) / -math.log(ratio)))
    assert quad["circle_nodes"] == want
    assert 0.0 <= quad["doubling_change"] <= 1e-9
    assert 0.0 <= quad["hermitian_defect"] <= 1e-12
    n_fns = 9 + 2 * 6  # degree 8 plus two pole orders per hole
    assert n_fns // 2 <= quad["effective_rank"] <= n_fns
    assert quad["min_kept_eigenvalue"] > 0.0


H15_K10 = {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 10}


def count_calls(monkeypatch, owner, name: str, counts: dict) -> None:
    """Replace owner.name by a wrapper that counts its calls in counts[name]."""
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "pipeline, want",
    [("kernel", {"values": 1}), ("distance", {"values_and_derivs": 1}), ("metric", {"values_and_derivs": 1})],
)
def test_band_sweeps_evaluate_the_basis_once(tmp_path, monkeypatch, pipeline, want):
    counts = {}
    for name in ("values", "values_and_derivs"):
        count_calls(monkeypatch, quadrature.Basis, name, counts)
    run({"pipeline": pipeline, "domain": H15_K10, "k_range": [2, 6]}, str(tmp_path), "fast")
    # the metric witnesses evaluate their poles in closed form
    assert counts == want


def test_metric_sweep_builds_one_gram(tmp_path, monkeypatch):
    # the assembly: the witnesses read their norms from a block of it, and
    # no norm pass of their own (``norms_sq``) runs
    counts = {}
    count_calls(monkeypatch, bergman, "boundary_gram", counts)
    count_calls(monkeypatch, quadrature, "boundary_gram", counts)
    count_calls(monkeypatch, bergman, "norms_sq", counts)
    run({"pipeline": "metric", "domain": H15_K10, "k_range": [2, 6]}, str(tmp_path))
    assert counts == {"boundary_gram": 1}


def test_kernel_sweep_integrates_its_witness_norms_in_one_pass(tmp_path, monkeypatch):
    counts = {}
    count_calls(monkeypatch, bergman, "equilibrium_witness_bound", counts)
    count_calls(monkeypatch, bergman, "norms_sq", counts)
    for equilibrium in (True, False):
        out = tmp_path / str(equilibrium)
        run({"pipeline": "kernel", "domain": H15_K10, "k_range": [2, 8], "equilibrium": equilibrium}, str(out))
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        header = (out / "kernel_sweep.csv").read_text().splitlines()[0]
        assert header == "k,x,K_low,witness_bound,equilibrium_bound"
        # the norm pass reports itself as the Gram does, without rank or eigenvalue
        quad = summary.get("equilibrium_quad")
        if equilibrium:
            assert set(quad) == {"circle_nodes", "doubling_change", "hermitian_defect"}
            assert len(quad["circle_nodes"]) == 11 and 0.0 < quad["doubling_change"] <= 1e-9
        else:
            assert quad is None
    assert counts == {"equilibrium_witness_bound": 1, "norms_sq": 1}


def test_metric_sweep_to_K_has_a_finite_witness_at_every_band(tmp_path):
    dom = {**H15_K10, "K": 6}
    run({"pipeline": "metric", "domain": dom, "k_range": [2, 6]}, str(tmp_path))
    header, *lines = (tmp_path / "metric_sweep.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert [r["k"] for r in rows] == [2, 3, 4, 5, 6]
    # band 6's witness has the poles at holes 5 and 6, as K = 6 keeps no hole 7
    assert all(math.isfinite(r[c]) and r[c] > 0 for r in rows for c in ("K_low", "S_low", "b_est", "witness_ratio"))
    gs = bergman.assemble_gram(build_zalcman(ScaleFunction.h1(1.5), 1e-2, 6))
    for r in rows:
        want = bergman.witness_metric_bound(gs, complex(-r["x"]))
        assert r["witness_ratio"] == pytest.approx(want, rel=1e-13)


def test_kernel_runs_where_no_collar_partition_exists(tmp_path):
    # the polar-collar quadrature rejected this domain ("no feasible collar",
    # rho_1 = 0.42); the boundary rule needs only poles outside the domain
    cfg = {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.2, "x1": 0.0136, "K": 6},
        "k_range": [1, 5],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "kernel_sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        _, _, k_low, witness, _ = map(float, line.split(","))
        assert k_low >= witness


@pytest.mark.parametrize("cfg", [[1, 2], "perfect"], ids=["list", "string"])
def test_seed_override_on_a_non_object_config_is_a_config_error(tmp_path, capsys, cfg):
    # --seed was written into the config before the schema check, so a list
    # or a string exited 1 with a TypeError traceback; without --seed it exits 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert "ConfigInvalid" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_pommerenke_pipeline(tmp_path):
    cfg = {
        "pipeline": "pommerenke",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 10},
        "k": 5,
        "c": 1.0,
        "s1": 1e-3,
        "seed": 5,
    }
    man = run(cfg, str(tmp_path), "fast")
    cert = json.loads((tmp_path / "pommerenke_certificate.json").read_text())
    assert cert["pairwise_ok"] and cert["points"] == 32
    assert man["summary"]["floor_below_measured"]


SMALL_H1 = {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 6}


@pytest.mark.parametrize("k", range(1, 7))
def test_chain_words_match_former_tuple_construction(tmp_path, k):
    # the former construction: every level appends 0 to the staying point's
    # word and 1 to its image's, stay first
    words = [()]
    for _ in range(k):
        words = [wd + (bit,) for wd in words for bit in (0, 1)]
    cfg = {"pipeline": "pommerenke", "domain": {**SMALL_H1, "K": 10}, "k": k, "s1": 1e-3}
    run(cfg, str(tmp_path), "fast")
    rows = (tmp_path / "chain_points.csv").read_text().splitlines()
    assert rows[0] == "re,im,word"
    assert [row.split(",")[2] for row in rows[1:]] == ["".join(map(str, wd)) for wd in words]


def test_perfect_computes_profile_once(tmp_path, monkeypatch):
    calls = []
    inner = perfectness.best_constant_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(perfectness, "best_constant_profile", counted)
    run({"pipeline": "perfect", "domain": SMALL_H1, "eps_list": [0.1, 0.2]}, str(tmp_path), "fast")
    assert len(calls) == 1
    rep = json.loads((tmp_path / "perfect_report.json").read_text())
    lines = (tmp_path / "c_star_profile.csv").read_text().splitlines()
    assert lines[0] == "a_re,a_im,r,c_star"
    assert len(lines) - 1 == rep["classification"]["table_size"]
    assert [f["eps"] for f in rep["classification"]["failures"]] == [0.1, 0.2]
    assert rep["uc"]["U_weakened_failed"] == rep["classification"]["failures"][0]["failed"]


def test_perfect_h2_profile_stays_small(tmp_path):
    # one row per component start below r0 and one at r0 per sample: 8,922 rows
    domain = {"type": "zalcman", "family": "h2", "beta": 1.0, "x1": 1e-3, "K": 40}
    manifest = run({"pipeline": "perfect", "domain": domain}, str(tmp_path), "fast")
    size = next(o["bytes"] for o in manifest["outputs"] if o["path"] == "c_star_profile.csv")
    assert size == (tmp_path / "c_star_profile.csv").stat().st_size < 1_000_000


def test_json_booleans_stay_booleans(tmp_path):
    run({"pipeline": "perfect", "domain": SMALL_H1}, str(tmp_path / "p"), "fast")
    rep = json.loads((tmp_path / "p" / "perfect_report.json").read_text())
    assert rep["classification"]["satisfied"] is True
    assert rep["uc"]["U_satisfied"] is True
    cfg = {"pipeline": "pommerenke", "domain": {**SMALL_H1, "K": 10}, "k": 3, "s1": 1e-3}
    run(cfg, str(tmp_path / "c"), "fast")
    cert = json.loads((tmp_path / "c" / "pommerenke_certificate.json").read_text())
    assert cert["pairwise_ok"] is True


def test_metric_without_hole_k_plus_1_has_a_finite_witness(tmp_path, capsys):
    # the former two-pole witness at band k needed hole k+1, which K = 6
    # keeps for k = 5 only, and wrote nan at k = 6
    cfg = {"pipeline": "metric", "domain": SMALL_H1, "k_range": [5, 6]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--tolerance-profile", "fast"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = (tmp_path / "o" / "metric_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "witness_ratio"
    assert len(lines) == 3
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert all(math.isfinite(v) and v > 0 for v in ratios)


def test_metric_two_pole_witness_at_deep_scales(tmp_path, capsys):
    # |w - x_{k+1}| |w - x_k|^2 underflows to 0 in these bands: the
    # two-pole derivative raised ZeroDivisionError and the run exited 1, and
    # the squared derivatives pass 1e400
    h2_deep = {"type": "zalcman", "family": "h2", "beta": 1.0, "x1": 1e-3, "K": 80}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "metric", "domain": h2_deep, "k_range": [55, 60]}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = (tmp_path / "o" / "metric_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "witness_ratio"
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert len(ratios) == 6 and all(math.isfinite(v) and v > 0 for v in ratios)


def test_perfect_pipeline_cantor(tmp_path):
    cfg = {"pipeline": "perfect", "domain": {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 5}}
    man = run(cfg, str(tmp_path))
    assert man["summary"]["passed"]


def test_determinism_byte_identical(tmp_path):
    cfg = {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.3, "x1": 1e-2, "K": 6},
        "k_range": [2, 6],
        "fit_column": "witness_bound",
        "seed": 99,
    }
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg, str(out1), "fast")
    run(cfg, str(out2), "fast")
    for name in ("kernel_sweep.csv",):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1, m2 = read_manifest(out1), read_manifest(out2)
    h1 = [o["sha256"] for o in m1["outputs"]]
    h2 = [o["sha256"] for o in m2["outputs"]]
    assert h1 == h2


def test_manifest_lists_hashes(tmp_path):
    man = run({"pipeline": "capacity", "set": {"type": "segment", "grid": 512}, "seed": 2}, str(tmp_path))
    assert man["outputs"]
    for entry in man["outputs"]:
        data = (tmp_path / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert entry["bytes"] == len(data)


def test_csv_blocks_write_the_bytes_of_one_join(tmp_path):
    n = 2 * CSV_BLOCK_ROWS + 3
    rng = np.random.default_rng(0)
    table = {
        "k": list(range(n)),
        "x": np.r_[np.nan, -0.0, 0.0, np.inf, rng.standard_normal(n - 4)],
        "word": ["ab"] * n,
        "r": np.repeat(rng.random(n // 3 + 1), 3)[:n],
    }
    sha256, size = write_csv(tmp_path / "t.csv", table)
    lines = [",".join(table), *map(",".join, zip(*map(format_column, table.values())))]
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "t.csv").read_bytes() == want
    assert (sha256, size) == (hashlib.sha256(want).hexdigest(), len(want))


def test_csv_of_an_empty_table_is_its_header(tmp_path):
    write_csv(tmp_path / "rows.csv", {"a": [], "b": np.array([])})
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\n"
    write_csv(tmp_path / "cols.csv", {})
    assert (tmp_path / "cols.csv").read_bytes() == b"\n"


def test_csv_columns_of_unequal_length_are_an_error(tmp_path):
    with pytest.raises(ValueError, match="unequal"):
        write_csv(tmp_path / "t.csv", {"a": np.arange(CSV_BLOCK_ROWS + 1.0), "b": list(range(CSV_BLOCK_ROWS))})


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "bogus"}, str(tmp_path))
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "kernel"}, str(tmp_path))  # missing domain
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "selfcheck"}, str(tmp_path))  # missing seed for MC
    with pytest.raises(ConfigInvalidError, match="'fast', 'default', 'strict'"):
        run({"pipeline": "selfcheck", "seed": 0}, str(tmp_path), "turbo")  # was a bare KeyError
    with pytest.raises(ConfigInvalidError):
        run(
            {"pipeline": "kernel", "domain": {"type": "zalcman", "family": "h9", "x1": 0.1, "K": 2}},
            str(tmp_path),
        )


def test_cli_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "fit", "samples": [[0.01, 1.0]] * 5}))
    # InsufficientSpan surfaces as a module error -> exit 3
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 3
    cfg_path.write_text("{not json")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o2")]) == 2
    good = {
        "pipeline": "fit",
        "samples": [[x, 3.0 / (x * x * __import__("math").log(1 / x))] for x in (1e-3, 1e-5, 1e-8, 1e-12, 1e-18)],
    }
    cfg_path.write_text(json.dumps(good))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o3")]) == 0
    rep = json.loads((tmp_path / "o3" / "fit_report.json").read_text())
    assert rep["preferred"] == "K1"


def test_empty_eps_list_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": SMALL_H1, "eps_list": []}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "eps_list" in err and "Traceback" not in err


def test_kernel_with_too_few_bands_skips_the_fit(tmp_path, capsys):
    # the default k_range [3, 5] gives three mid-band points, fewer than a
    # fit needs; the run still writes its fits file and manifest
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "kernel", "domain": SMALL_H1}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    fits = json.loads((tmp_path / "o" / "kernel_fits.json").read_text())
    assert fits["preferred"] is None and fits["fits"] == {}
    assert read_manifest(tmp_path / "o")["summary"]["preferred"] is None
    assert len((tmp_path / "o" / "kernel_sweep.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("pipeline", ["kernel", "metric", "distance"])
@pytest.mark.parametrize("k_range", [[0, 4], [4, 3], [2, 7], [0, 14], [2.0, 4], [2]])
def test_bad_k_range_is_a_config_error(tmp_path, capsys, pipeline, k_range):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, "domain": SMALL_H1, "k_range": k_range}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "k_range" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pipeline", ["kernel", "metric", "distance"])
def test_band_pipelines_need_a_zalcman_domain(tmp_path, capsys, pipeline):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, "domain": {"type": "disk"}}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "zalcman" in err and "Traceback" not in err


def test_capacity_schedule_is_a_config_error(tmp_path, capsys):
    # the estimate runs one search at the profile's n_cap; a schedule used to
    # pick it and, non-increasing, crashed with a ValueError traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "capacity", "schedule": [64, 8]}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "schedule" in err and "n_cap" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "spec", [{"type": "circle", "r": 0.5, "grid": 7}, {"type": "two_disks", "grid": 1}], ids=["circle-7", "two-disks-1"]
)
def test_capacity_grid_below_the_profile_floor_is_a_config_error(tmp_path, capsys, spec):
    # the search needs 4 n_cap = 256 nodes at the default profile; these
    # exited 3 with GridTooSmallError from inside the search
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "capacity", "set": spec}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "grid" in err and "256" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pipeline", ["perfect", "pommerenke"])
@pytest.mark.parametrize(
    "extra",
    [{"domain": {"type": "disk"}}, {"domain": {"type": "annulus", "r0": 0.5}}],
    ids=["disk", "annulus"],
)
def test_scale_family_is_validated(tmp_path, capsys, pipeline, extra):
    # neither domain carries a scale family: the runners fell back to h1 with
    # alpha 0 and exited 1 with a ValueError traceback; h is now the zalcman
    # domain's own
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, **extra}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "needs a zalcman" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "domain", [{"type": "disk"}, {"type": "annulus", "r0": 0.5}], ids=["disk", "annulus"]
)
def test_perfect_needs_a_zalcman_or_cantor_domain(tmp_path, capsys, domain):
    # given an h (through the since retired family and param keys) the run
    # started, probed the annulus condition at the origin and exited 3 with
    # NotBoundaryPointError
    cfg = {"pipeline": "perfect", "domain": domain}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "zalcman or cantor" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


H1_K10 = {**SMALL_H1, "K": 10}
K1_SAMPLES = [[x, 3.0 / (x * x * math.log(1 / x))] for x in (1e-3, 1e-5, 1e-8, 1e-12, 1e-18)]


@pytest.mark.parametrize(
    "extra, code, message",
    [
        ({"domain": {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 4}}, 2, "zalcman domain"),
        ({"domain": {"type": "disk", "family": "h1", "alpha": 1.5}}, 2, "zalcman domain"),
        ({"domain": H1_K10, "c": -1}, 2, "c > 0"),
        ({"domain": H1_K10, "s1": -0.001}, 2, "s1 > 0"),
        ({"domain": H1_K10, "c": 100, "s1": 0.1}, 3, "halve"),
        ({"domain": H1_K10, "a": 6.731703824145064e-35, "s1": 2.243901274715021e-35, "k": 6}, 3, "s_6 underflows"),
    ],
    ids=["cantor", "disk-without-s1", "negative-c", "negative-s1", "no-halving", "scale-underflow"],
)
def test_pommerenke_config_errors(tmp_path, capsys, extra, code, message):
    # each exited 1 with a traceback: AttributeError for x1 (cantor, disk
    # without s1), math domain error (c, s1 < 0), ValueError (no halving);
    # a scale that underflowed to 0.0 passed the halving check, and the run
    # exited 0 with "product_bound": null and "capacity_floor": 0.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "pommerenke", **extra}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "domain",
    [
        {**SMALL_H1, "K": 1},
        {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 0},
        {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 1},
    ],
    ids=["zalcman-K1", "cantor-J0", "cantor-J1"],
)
def test_perfect_on_an_empty_radius_range_is_a_config_error(tmp_path, capsys, domain):
    # K = 1 reported c_star_global 0.0 over radii from 1.0001 x_1 down to
    # x1/2; J <= 1 "passed" 4 or 8 checks over radii from 2.0002 l_{J-1}
    # down to 1.9 l0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": domain}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "no radius to check" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"pipeline": "kernel", "domain": SMALL_H1, "fit_column": "nope"}, "fit_column"),
        ({"pipeline": "kernel", "domain": SMALL_H1, "models": ["K9"]}, "models"),
        ({"pipeline": "distance", "domain": SMALL_H1, "models": ["K9"]}, "models"),
        ({"pipeline": "fit", "samples": [[1e-3, 1.0]] * 5, "models": ["K9"]}, "models"),
        ({"pipeline": "metric", "domain": SMALL_H1, "witness": "four_pole"}, "'witness' is no longer read"),
        ({"pipeline": "perfect", "domain": 5}, "domain"),
        ({"pipeline": "fit", "samples_csv": "no/such/samples.csv"}, "samples_csv"),
        ({"pipeline": "fit", "samples": [[1, 2, 3]]}, "samples"),
        ({"pipeline": "capacity", "set": {"type": "cantor", "l0": 0.6, "alpha": 1.5, "J": 4}}, "l0"),
        ({"pipeline": "selfcheck", "seed": "abc"}, "seed"),
        ({"pipeline": "pommerenke", "domain": H1_K10, "k": -2}, "k must be"),
        ({"pipeline": "perfect", "domain": SMALL_H1, "eps_list": [-0.1]}, "eps_list"),
        ({"pipeline": "distance", "domain": {**SMALL_H1, "K": 3}}, "k_range"),
        ({"pipeline": "kernel", "domain": SMALL_H1, "equilibrium": "no"}, "equilibrium"),
        ({"pipeline": "kernel", "domain": SMALL_H1, "equilibrium": 1}, "equilibrium"),
        ({"pipeline": "kernel", "domain": {**H1_K10, "K": 8.9}}, "K must be an integer, got 8.9"),
        ({"pipeline": "kernel", "domain": {**SMALL_H1, "K": True}}, "K must be an integer, got True"),
        (
            {"pipeline": "capacity", "set": {"type": "cantor", "l0": 0.1, "alpha": 1.5, "J": 3.9, "grid": 2048}},
            "J must be an integer, got 3.9",
        ),
        ({"pipeline": "kernel", "domain": SMALL_H1, "k_rnage": [2, 3]}, "unknown key 'k_rnage'"),
        ({"pipeline": "perfect", "domain": SMALL_H1, "eps": [0.3]}, "unknown key 'eps'"),
        ({"pipeline": "kernel", "domain": {**SMALL_H1, "bogus": 1}}, "unknown key 'bogus'"),
        (
            {"pipeline": "kernel", "domain": {"type": "zalcman", "family": "h2", "beta": True, "x1": "1e-3", "K": 5}},
            "beta must be a number, got True; x1 must be a number, got '1e-3'",
        ),
        ({"pipeline": "capacity", "set": {"type": "circle", "r": 0.5, "gird": 64}}, "unknown key 'gird'"),
        ({"pipeline": "selfcheck", "seed": 0, "sed": 1}, "unknown key 'sed'"),
        ({"pipeline": "fit", "samples": K1_SAMPLES, "model": ["K2"]}, "unknown key 'model'"),
    ],
    ids=[
        "kernel-fit-column", "kernel-models", "distance-models", "fit-models", "metric-witness",
        "domain-not-an-object", "fit-missing-csv", "fit-triple", "capacity-cantor-l0",
        "selfcheck-seed", "pommerenke-negative-k", "perfect-negative-eps", "distance-default-k-range",
        "kernel-equilibrium-string", "kernel-equilibrium-integer", "zalcman-float-K", "zalcman-bool-K",
        "cantor-float-J", "kernel-misspelt-k-range", "perfect-misspelt-eps-list", "zalcman-unknown-key",
        "zalcman-bool-and-string-reals", "set-misspelt-grid", "selfcheck-misspelt-seed", "fit-misspelt-models",
    ],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, cfg, message):
    # each exited 1 with a traceback (KeyError, ValueError, AttributeError,
    # FileNotFoundError, negative dimensions), or, for a negative eps,
    # exited 0 having "weakened" h1(1.5) to h1(1.6); an equilibrium of "no"
    # or 1 passed bool() and turned the equilibrium witnesses on; a float K
    # or J was truncated and a bool K read as 1; an unknown key was ignored,
    # and a real given as true or as a string was read by float()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pipeline", ["perfect", "pommerenke"])
def test_scale_function_is_read_at_the_key_its_family_names(tmp_path, pipeline):
    # an h2 domain with a stray alpha was built at beta = 1 but tested at
    # h2(3.0): perfect exited 0 with "param": 3.0, and the chain's scales
    # followed h2(3.0) until a window missed the boundary (exit 3 at k = 5)
    domain = {"type": "zalcman", "family": "h2", "beta": 1.0, "alpha": 3.0, "x1": 1e-3, "K": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, "domain": domain}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    if pipeline == "perfect":
        rep = json.loads((tmp_path / "o" / "perfect_report.json").read_text())
        assert rep["classification"]["param"] == rep["uc"]["param"] == 1.0
        assert rep["classification"]["failures"][0]["param_weak"] == pytest.approx(0.9)
    else:
        cert = json.loads((tmp_path / "o" / "pommerenke_certificate.json").read_text())
        h, s = ScaleFunction.h2(1.0), [1e-4]  # the seed s1 defaults to x1 / 10
        for _ in range(5):
            s.append(0.2 * h.value(s[-1]))
        assert cert["scales"] == s[1:]


def test_perfect_weakened_scale_family_is_validated(tmp_path, capsys):
    # the domain's h1(1.5) is valid, but the eps = 0.6 weakening is h1(0.9)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": SMALL_H1, "eps_list": [0.6]}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "param - eps" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("family", "h2"), ("param", 1.2)])
def test_perfect_retired_scale_keys_are_config_errors(tmp_path, capsys, key, value):
    # perfect's own family and param overrode the domain's h, so the run
    # tested an h that the domain was not built from
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": SMALL_H1, key: value}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' is no longer read" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "pipeline, key, value",
    [("metric", "witness", "two_pole"), ("metric", "witness", "three_pole"),
     ("kernel", "degree", 8), ("metric", "degree", 8), ("distance", "degree", 4)],
)
def test_retired_sweep_keys_are_config_errors(tmp_path, capsys, pipeline, key, value):
    # metric's one witness holds both the two- and the three-pole one, and
    # every band sweep reads its basis from bergman.default_basis
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, "domain": SMALL_H1, key: value}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' is no longer read" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("variant", ["sandwich", "superset"])
def test_retired_variant_in_a_domain_is_a_config_error(tmp_path, capsys, variant):
    # every zalcman domain is the superset truncation; the sandwich subdomain
    # is gone, and naming either variant is refused alike
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "kernel", "domain": {**SMALL_H1, "variant": variant}}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'variant' is no longer read" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "domain, extra, code",
    [({**SMALL_H1, "K": 3}, {}, 2), ({**SMALL_H1, "K": 8}, {}, 0), (H1_K10, {"c": 3.0, "s1": 5e-3}, 3)],
    ids=["below-hole-K", "deep-enough", "annulus-condition"],
)
def test_pommerenke_window_below_the_truncation_is_a_config_error(tmp_path, capsys, domain, extra, code):
    # on K = 3 the level-1 window around the origin, [1.6e-8, 6.3e-6], lies
    # below x_3 - r_3 = 3.1e-5, so its emptiness is the truncation's and the
    # run exited 3; a window the retained holes do reach stays a module error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "pommerenke", "domain": domain, **extra}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("level 1" in err and "K = 3" in err and "raise K" in err) == (code == 2)
    assert ("AnnulusEmpty" in err) == (code == 3)
    assert (tmp_path / "o").exists() == (code == 0)


@pytest.mark.parametrize("pipeline", ["perfect", "pommerenke", "kernel", "metric", "distance"])
def test_table_scale_family_is_a_config_error(tmp_path, capsys, pipeline):
    domain = {"type": "zalcman", "family": "table", "r": [1e-4, 0.1], "h": [1e-6, 0.03], "x1": 1e-2, "K": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, "domain": domain}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown scale family 'table'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_perfect_writes_non_finite_floats_as_null(tmp_path):
    # with K = 2 fewer than two radii have complement, so the condition-C
    # slope is NaN; it was written as the bare token NaN, which is not JSON
    domain = {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": domain}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "perfect_report.json").read_text()
    rep = json.loads(text, parse_constant=_reject_constant)
    assert rep["uc"]["C_slope"] is None
    assert '"C_slope": null' in text


def test_fit_pipeline_from_csv(tmp_path):
    csv = tmp_path / "samples.csv"
    rows = ["x,value"]
    for x in (1e-3, 1e-5, 1e-8, 1e-12, 1e-18, 1e-25):
        rows.append(f"{x!r},{2.0 / (x * x * math.log(math.log(1 / x)))!r}")
    csv.write_text("\n".join(rows) + "\n")
    man = run({"pipeline": "fit", "samples_csv": str(csv), "models": ["K1", "K2"]}, str(tmp_path / "out"))
    assert man["summary"]["preferred"] == "K2"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_rejects_non_finite_values(tmp_path, capsys, bad):
    # both exited 0 and wrote NaN or Infinity into fit_report.json, which is
    # not valid JSON; inf also warned from log(inf / shape)
    samples = [[x, 3.0 / (x * x * math.log(1 / x))] for x in (1e-3, 1e-5, 1e-8, 1e-12, 1e-18)]
    samples[2][1] = bad
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "fit", "samples": samples}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "InsufficientSpan" in err and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_fit_rejects_x_at_or_above_one(tmp_path, capsys):
    # fit read the first two columns whatever their names, so on
    # kernel_sweep.csv (k, x, ...) it took x = k >= 1: this exited 0 and wrote
    # NaN fits, and later exited 3 on the x < 1 rule. It now reads the columns
    # named x and value, which a kernel sweep does not have.
    run({"pipeline": "kernel", "domain": H1_K10, "k_range": [2, 8]}, str(tmp_path / "sweep"), "fast")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "fit", "samples_csv": str(tmp_path / "sweep" / "kernel_sweep.csv")}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "x and value" in err and "kernel_fits.json" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # an x column at or above one is still a module error
    csv = tmp_path / "samples.csv"
    csv.write_text("x,value\n" + "".join(f"{x!r},1.0\n" for x in (1e-3, 1e-5, 1e-8, 1e-12, 2.0)))
    cfg_path.write_text(json.dumps({"pipeline": "fit", "samples_csv": str(csv)}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "InsufficientSpan" in err and "x < 1" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_fit_reads_the_columns_named_x_and_value(tmp_path):
    xs = (1e-3, 1e-5, 1e-8, 1e-12, 1e-18, 1e-25)
    values = [2.0 / (x * x * math.log(math.log(1 / x))) for x in xs]
    plain, shuffled = tmp_path / "plain.csv", tmp_path / "shuffled.csv"
    plain.write_text("x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs, values)))
    shuffled.write_text("value,k,x\n" + "".join(f"{v!r},{k},{x!r}\n" for k, (x, v) in enumerate(zip(xs, values))))
    for csv in (plain, shuffled):
        run({"pipeline": "fit", "samples_csv": str(csv)}, str(tmp_path / csv.stem), "fast")
    reports = [(tmp_path / name / "fit_report.json").read_bytes() for name in ("plain", "shuffled")]
    assert reports[0] == reports[1]


def _leaves():
    floats = st.floats(allow_nan=True, allow_infinity=True)
    int64 = st.integers(-(2**63), 2**63 - 1)
    return st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(),
        int64.map(np.int64),
        floats,
        floats.map(np.float64),
        st.floats(width=32).map(np.float32),
        st.complex_numbers(allow_nan=True, allow_infinity=True),
        st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=float)),
        st.lists(int64, max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.booleans(), max_size=4).map(np.array),
        st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=4).map(
            lambda v: np.array(v, dtype=complex)
        ),
    )


ARTIFACTS = st.dictionaries(
    st.text(max_size=5),
    st.recursive(
        _leaves(),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=5), inner, max_size=4),
        ),
        max_leaves=20,
    ),
    max_size=5,
)


def _assert_written_as(orig, out):
    """``out`` is the strict-JSON reading of ``orig`` as an artifact holds it."""
    if isinstance(orig, dict):
        assert type(out) is dict and set(out) == set(orig)
        for k, v in orig.items():
            _assert_written_as(v, out[k])
    elif isinstance(orig, (list, tuple, np.ndarray)):
        assert type(out) is list and len(out) == len(orig)
        for a, b in zip(orig, out):
            _assert_written_as(a, b)
    elif isinstance(orig, (bool, np.bool_)):
        assert out is bool(orig)
    elif isinstance(orig, (int, np.integer)):
        assert type(out) is int and out == int(orig)
    elif isinstance(orig, complex):
        assert type(out) is dict and set(out) == {"re", "im"}
        _assert_written_as(orig.real, out["re"])
        _assert_written_as(orig.imag, out["im"])
    elif math.isfinite(orig):
        assert type(out) is float and struct.pack("<d", out) == struct.pack("<d", float(orig))
    else:
        assert out is None


@settings(max_examples=200, deadline=None)
@given(ARTIFACTS)
def test_json_artifacts_round_trip(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "artifact.json"
    write_json(path, obj)
    _assert_written_as(obj, json.loads(path.read_text(), parse_constant=_reject_constant))


NUMPY_MA_PROBE = """
import json, sys, tempfile
from berglab.cli import run
first = {}
with tempfile.TemporaryDirectory() as out:
    for i, cfg in enumerate(json.loads(sys.argv[1])):
        assert run(cfg, f"{out}/{i}", "fast")["status"] == "ok"
        for module in ("numpy.ma", "numpy.polynomial"):
            if module in sys.modules:
                first.setdefault(module, cfg)
print(json.dumps(first))
"""


def test_no_pipeline_imports_numpy_ma():
    # numpy 2.4 imports numpy.ma on the first plain np.unique or np.median
    # (10-20 ms and 1.2 MB); capacity on a cantor set and kernel's
    # equilibrium witness each made one.  numpy.polynomial costs about 3 ms
    # of import; the Gram basis's derivative and the module-level leggauss
    # import each pulled it in
    cfgs = [
        {"pipeline": "selfcheck", "seed": 0},
        {"pipeline": "capacity", "set": {"type": "cantor", "l0": 0.1, "alpha": 1.5, "J": 4, "grid": 512}},
        {"pipeline": "perfect", "domain": SMALL_H1},
        {"pipeline": "perfect", "domain": {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 3}},
        {"pipeline": "pommerenke", "domain": SMALL_H1, "k": 3},
        {"pipeline": "kernel", "domain": SMALL_H1, "k_range": [2, 4], "equilibrium": True},
        {"pipeline": "metric", "domain": SMALL_H1, "k_range": [2, 4]},
        {"pipeline": "distance", "domain": SMALL_H1, "k_range": [1, 5]},
        {"pipeline": "fit", "samples": K1_SAMPLES},
    ]
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_PROBE, json.dumps(cfgs)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {}, "these configs imported numpy.ma or numpy.polynomial"
