"""The benchmark's checks accept berglab's real artifacts and reject
deliberately corrupted ones.

    python3 -m pytest perfbench/test_checks.py

Runs one round of each workload first (about 25 s on two cores).  Each
corruption is written with a matching manifest hash, as a program that wrote
the wrong bytes itself would, so only the content check can catch it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7


@pytest.fixture(scope="module")
def clean_round(tmp_path_factory):
    done = {}

    def get(workload: str) -> Path:
        if workload not in done:
            out = tmp_path_factory.mktemp(workload)
            subprocess.run(
                [sys.executable, str(HERE / "workload.py"), "--workload", workload,
                 "--seed", str(SEED), "--out", str(out)],
                check=True,
            )
            done[workload] = out
        return done[workload]

    return get


@pytest.fixture
def round_copy(clean_round, tmp_path):
    def get(workload: str) -> Path:
        out = tmp_path / workload
        shutil.copytree(clean_round(workload), out)
        return out

    return get


def errors_of(workload: str, out: Path) -> list:
    statuses = json.loads((out / "result.json").read_text())["ops"]
    errors, _ = checks.check_round(workload, workloads.ops_for(workload, SEED), out, statuses, SEED)
    return errors


def rehash(op_dir: Path) -> None:
    path = op_dir / "manifest.json"
    man = json.loads(path.read_text())
    for entry in man["outputs"]:
        entry["sha256"] = hashlib.sha256((op_dir / entry["path"]).read_bytes()).hexdigest()
    path.write_text(json.dumps(man))


def edit_csv(path: Path, row: int, name: str, change) -> None:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(name)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(change(float(cells[col]))))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    rehash(path.parent)


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))
    if (path.parent / "manifest.json").exists():
        rehash(path.parent)


def assert_rejected(errors: list, needle: str) -> None:
    assert any(needle in e for e in errors), errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_artifacts_pass(clean_round, workload):
    assert errors_of(workload, clean_round(workload)) == []


# --- annulus ----------------------------------------------------------------


def test_nudged_c_star_in_the_sample(round_copy):
    out = round_copy("annulus")
    path = out / "perfect_h2" / "c_star_profile.csv"
    n_rows = len(path.read_text().splitlines()) - 1
    row = checks.c_star_sample(n_rows, SEED)[0]
    edit_csv(path, row, "c_star", lambda v: v * (1.0 - 1e-6))
    assert_rejected(errors_of("annulus", out), f"c_star row {row + 1}")


def test_c_star_above_r_over_h_outside_the_sample(round_copy):
    out = round_copy("annulus")
    path = out / "perfect_h1" / "c_star_profile.csv"
    _, rows = checks.read_csv(path)
    dom = workloads.ops_for("annulus", SEED)[0].cfg["domain"]
    tight = rows[:, 3] * checks.h_of(dom, rows[:, 2]) >= rows[:, 2] * (1.0 - 1e-14)
    sampled = set(checks.c_star_sample(len(rows), SEED))
    row = next(i for i in np.nonzero(tight)[0] if i not in sampled)
    edit_csv(path, int(row), "c_star", lambda v: v * (1.0 + 1e-9))
    assert_rejected(errors_of("annulus", out), "c_star * h(r) > r")


def test_weakened_exponent_not_flagged(round_copy):
    out = round_copy("annulus")

    def unflag(report):
        report["classification"]["failures"][0]["failed"] = False

    edit_json(out / "perfect_h1" / "perfect_report.json", unflag)
    assert_rejected(errors_of("annulus", out), "weakened exponent")


def test_condition_C_capacity_above_r(round_copy):
    out = round_copy("annulus")
    path = out / "perfect_h1" / "condition_C.csv"
    r = checks.column(path, "r")[0]
    edit_csv(path, 0, "cap", lambda v: 1.01 * r)
    assert_rejected(errors_of("annulus", out), "condition-C capacity")


# --- gram -------------------------------------------------------------------


def test_K_low_below_its_witness(round_copy):
    out = round_copy("gram")
    path = out / "kernel_h2" / "kernel_sweep.csv"
    witness = checks.column(path, "witness_bound")[3]
    edit_csv(path, 3, "K_low", lambda v: 0.99 * witness)
    assert_rejected(errors_of("gram", out), "K_low below its one-pole witness")


def test_d_est_decreasing(round_copy):
    out = round_copy("gram")
    path = out / "distance_h1" / "distance_profile.csv"
    last = len(checks.column(path, "d_est")) - 1
    edit_csv(path, last, "d_est", lambda v: 0.5 * v)
    assert_rejected(errors_of("gram", out), "d_est")


def test_collar_area_off_its_closed_form(round_copy):
    out = round_copy("gram")

    def shift(got):
        got["kernel_h2"]["area"] *= 1.0 + 2e-3

    edit_json(out / "collar_check.json", shift)
    assert_rejected(errors_of("gram", out), "kernel_h2: quadrature area")


def test_one_collar_off_its_closed_form(round_copy):
    out = round_copy("gram")

    def shift(got):
        got["metric_h1"]["collars"][4]["moment2"] *= 1.01

    edit_json(out / "collar_check.json", shift)
    assert_rejected(errors_of("gram", out), "metric_h1 collar 4: quadrature moment2")


# --- capacity ---------------------------------------------------------------


def test_negative_measure_weight(round_copy):
    out = round_copy("capacity")
    edit_csv(out / "capacity_segment" / "measure.csv", 0, "weight", lambda v: -v)
    assert_rejected(errors_of("capacity", out), "measure weights")


def test_circle_capacity_off_its_radius(round_copy):
    out = round_copy("capacity")

    def shift(report):
        report["value"] *= 1.01

    edit_json(out / "capacity_circle" / "capacity_report.json", shift)
    assert_rejected(errors_of("capacity", out), "capacity_circle: capacity")


def test_chain_scale_changed(round_copy):
    out = round_copy("capacity")

    def shift(cert):
        cert["scales"][2] *= 1.0 + 1e-6

    edit_json(out / "pommerenke_h1" / "pommerenke_certificate.json", shift)
    assert_rejected(errors_of("capacity", out), "chain scales")


def test_capacity_floor_changed(round_copy):
    out = round_copy("capacity")

    def shift(cert):
        cert["capacity_floor"] *= 1.001

    edit_json(out / "pommerenke_h1" / "pommerenke_certificate.json", shift)
    assert_rejected(errors_of("capacity", out), "capacity_floor")


# --- manifests and determinism ------------------------------------------------


def test_artifact_not_matching_its_manifest(round_copy):
    out = round_copy("capacity")
    path = out / "capacity_two_disks" / "measure.csv"
    weights = path.read_text().splitlines()
    cells = weights[1].split(",")
    cells[2] = repr(float(np.nextafter(float(cells[2]), 1.0)))
    weights[1] = ",".join(cells)
    path.write_text("\n".join(weights) + "\n")
    assert_rejected(errors_of("capacity", out), "does not match its manifest sha256")


def test_changed_hash_between_rounds():
    assert checks.check_same_hashes({"op/a.csv": "00"}, {"op/a.csv": "00"}) == []
    assert checks.check_same_hashes({"op/a.csv": "00"}, {"op/a.csv": "01"}) == [
        "op/a.csv: sha256 changed between rounds"
    ]
