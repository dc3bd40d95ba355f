import json
from pathlib import Path

import pytest

from berglab import perfectness
from berglab.cli import main, run
from berglab.errors import ConfigInvalidError


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
    assert all(isinstance(n, int) and n >= 96 for n in quad["circle_nodes"])
    assert 0.0 <= quad["doubling_change"] <= 1e-9
    assert 0.0 <= quad["hermitian_defect"] <= 1e-12
    n_fns = 9 + 2 * 6  # degree 8 plus two pole orders per hole
    assert n_fns // 2 <= quad["effective_rank"] <= n_fns
    assert quad["min_kept_eigenvalue"] > 0.0


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


def test_json_booleans_stay_booleans(tmp_path):
    run({"pipeline": "perfect", "domain": SMALL_H1}, str(tmp_path / "p"), "fast")
    rep = json.loads((tmp_path / "p" / "perfect_report.json").read_text())
    assert rep["classification"]["satisfied"] is True
    assert rep["uc"]["U_satisfied"] is True
    cfg = {"pipeline": "pommerenke", "domain": {**SMALL_H1, "K": 10}, "k": 3, "s1": 1e-3}
    run(cfg, str(tmp_path / "c"), "fast")
    cert = json.loads((tmp_path / "c" / "pommerenke_certificate.json").read_text())
    assert cert["pairwise_ok"] is True


def test_metric_on_sandwich_records_nan_witness(tmp_path, capsys):
    cfg = {"pipeline": "metric", "domain": {**SMALL_H1, "variant": "sandwich"}, "k_range": [2, 4]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "--tolerance-profile", "fast"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    lines = (tmp_path / "o" / "metric_sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "witness_ratio"
    assert len(lines) == 4
    assert all(ln.split(",")[-1] == "nan" for ln in lines[1:])


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
        assert len(entry["sha256"]) == 64
        assert (tmp_path / entry["path"]).exists()


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "bogus"}, str(tmp_path))
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "kernel"}, str(tmp_path))  # missing domain
    with pytest.raises(ConfigInvalidError):
        run({"pipeline": "selfcheck"}, str(tmp_path))  # missing seed for MC
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


@pytest.mark.parametrize("pipeline", ["perfect", "pommerenke"])
@pytest.mark.parametrize(
    "extra",
    [{"domain": {"type": "disk"}}, {"domain": {"type": "annulus", "r0": 0.5}}],
    ids=["disk", "annulus"],
)
def test_scale_family_is_validated(tmp_path, capsys, pipeline, extra):
    # neither domain carries a scale family: the runners fell back to h1 with
    # alpha 0 and exited 1 with a ValueError traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": pipeline, **extra}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "scale function" in err and "alpha > 1" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "domain", [{"type": "disk"}, {"type": "annulus", "r0": 0.5}], ids=["disk", "annulus"]
)
def test_perfect_needs_a_zalcman_or_cantor_domain(tmp_path, capsys, domain):
    # with a valid family and param the run started, probed the annulus
    # condition at the origin and exited 3 with NotBoundaryPointError
    cfg = {"pipeline": "perfect", "domain": domain, "family": "h1", "param": 1.5}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "zalcman or cantor" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


H1_K10 = {**SMALL_H1, "K": 10}


@pytest.mark.parametrize(
    "extra, code, message",
    [
        ({"domain": {"type": "cantor", "l0": 0.1, "alpha": 2.0, "J": 4}}, 2, "circle domain"),
        ({"domain": {"type": "disk", "family": "h1", "alpha": 1.5}}, 2, "needs s1"),
        ({"domain": H1_K10, "c": -1}, 2, "c > 0"),
        ({"domain": H1_K10, "s1": -0.001}, 2, "s1 > 0"),
        ({"domain": H1_K10, "c": 100, "s1": 0.1}, 3, "halve"),
    ],
    ids=["cantor", "disk-without-s1", "negative-c", "negative-s1", "no-halving"],
)
def test_pommerenke_config_errors(tmp_path, capsys, extra, code, message):
    # each exited 1 with a traceback: AttributeError for x1 (cantor, disk
    # without s1), math domain error (c, s1 < 0), ValueError (no halving)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "pommerenke", **extra}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"pipeline": "kernel", "domain": SMALL_H1, "fit_column": "nope"}, "fit_column"),
        ({"pipeline": "kernel", "domain": SMALL_H1, "models": ["K9"]}, "models"),
        ({"pipeline": "distance", "domain": SMALL_H1, "models": ["K9"]}, "models"),
        ({"pipeline": "fit", "samples": [[1e-3, 1.0]] * 5, "models": ["K9"]}, "models"),
        ({"pipeline": "metric", "domain": SMALL_H1, "witness": "four_pole"}, "witness"),
        ({"pipeline": "perfect", "domain": 5}, "domain"),
        ({"pipeline": "fit", "samples_csv": "no/such/samples.csv"}, "samples_csv"),
        ({"pipeline": "fit", "samples": [[1, 2, 3]]}, "samples"),
        ({"pipeline": "capacity", "set": {"type": "cantor", "l0": 0.6, "alpha": 1.5, "J": 4}}, "l0"),
        ({"pipeline": "selfcheck", "seed": "abc"}, "seed"),
        ({"pipeline": "pommerenke", "domain": H1_K10, "k": -2}, "k must be"),
        ({"pipeline": "perfect", "domain": SMALL_H1, "eps_list": [-0.1]}, "eps_list"),
        ({"pipeline": "distance", "domain": {**SMALL_H1, "K": 3}}, "k_range"),
    ],
    ids=[
        "kernel-fit-column", "kernel-models", "distance-models", "fit-models", "metric-witness",
        "domain-not-an-object", "fit-missing-csv", "fit-triple", "capacity-cantor-l0",
        "selfcheck-seed", "pommerenke-negative-k", "perfect-negative-eps", "distance-default-k-range",
    ],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, cfg, message):
    # each exited 1 with a traceback (KeyError, ValueError, AttributeError,
    # FileNotFoundError, negative dimensions), or, for a negative eps,
    # exited 0 having "weakened" h1(1.5) to h1(1.6)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_perfect_weakened_scale_family_is_validated(tmp_path, capsys):
    # param 1.05 is a valid h1, but the eps = 0.1 weakening is h1(0.95)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "perfect", "domain": SMALL_H1, "param": 1.05}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "param - eps" in capsys.readouterr().err


def test_fit_pipeline_from_csv(tmp_path):
    import math

    csv = tmp_path / "samples.csv"
    rows = ["x,value"]
    for x in (1e-3, 1e-5, 1e-8, 1e-12, 1e-18, 1e-25):
        rows.append(f"{x!r},{2.0 / (x * x * math.log(math.log(1 / x)))!r}")
    csv.write_text("\n".join(rows) + "\n")
    man = run({"pipeline": "fit", "samples_csv": str(csv), "models": ["K1", "K2"]}, str(tmp_path / "out"))
    assert man["summary"]["preferred"] == "K2"
