"""berglab's BLAS thread policy: importing it before numpy gives the process
one OpenBLAS thread unless the caller has set a thread count, so a config and
seed write the same bytes on any number of cores.  Each test runs a fresh
interpreter whose environment starts without the thread-count variables."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

CONFIGS = {
    "capacity": {"pipeline": "capacity", "set": {"type": "two_disks"}, "seed": 1},
    "distance": {
        "pipeline": "distance",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.2, "x1": 1e-2, "K": 12},
        "k_range": [1, 10],
        "seed": 1,
    },
    "kernel": {
        "pipeline": "kernel",
        "domain": {"type": "zalcman", "family": "h1", "alpha": 1.5, "x1": 1e-2, "K": 10},
        "k_range": [2, 8],
        "equilibrium": True,
        "seed": 3,
    },
}

#: how far an output may move between thread counts, as (relative, absolute)
#: parts of |a - b| <= rel |b| + abs; every output not named keeps its bits
BOUNDS = {
    "weight": (1e-11, 0.0),
    "equilibrium_capacity": (1e-13, 0.0),
    "K_low": (1e-13, 0.0),
    "equilibrium_bound": (1e-13, 0.0),
    "d_est": (1e-13, 0.0),
    "b_est": (1e-12, 0.0),
    "kkt_residual": (0.0, 1e-13),
    "raw_potential_spread": (0.0, 1e-13),
}


def fresh_env(**preset: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return {**env, **preset}


def thread_variables_after(code: str, **preset: str) -> dict:
    """The three variables as a fresh interpreter sees them after ``code``."""
    script = f"{code}\nimport json, os\nprint(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARIABLES!r}}}))"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=fresh_env(**preset), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_importing_berglab_sets_one_thread():
    assert thread_variables_after("import berglab") == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None,
    }


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_preset_thread_count_is_kept(name):
    want = {k: None for k in BLAS_THREAD_VARIABLES}
    want[name] = "3"
    assert thread_variables_after("import berglab", **{name: "3"}) == want


def test_numpy_imported_first_leaves_the_environment_alone():
    assert thread_variables_after("import numpy\nimport berglab") == {k: None for k in BLAS_THREAD_VARIABLES}


def run_cli(tmp: Path, name: str, **preset: str) -> Path:
    """The artifacts of CONFIGS[name] under the strict profile, from a fresh
    interpreter."""
    out = tmp / "-".join([name, *(f"{k}={v}" for k, v in preset.items())])
    out.mkdir()
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    cmd = [sys.executable, "-m", "berglab.cli", "--config", str(cfg), "--out", str(out / "run"),
           "--tolerance-profile", "strict"]
    proc = subprocess.run(cmd, env=fresh_env(**preset), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return out / "run"


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def runs(request, tmp_path_factory):
    """One config's artifacts with the thread count unset, set to 1 and set to 2."""
    tmp = tmp_path_factory.mktemp("threads")
    name = request.param
    return {
        threads: run_cli(tmp, name, **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        for threads in (None, "1", "2")
    }


def artifacts(out: Path) -> dict:
    """Each output the manifest lists, by path, with its bytes."""
    manifest = json.loads((out / "manifest.json").read_text())
    return {entry["path"]: (out / entry["path"]).read_bytes() for entry in manifest["outputs"]}


def test_artifacts_do_not_depend_on_an_unset_thread_count(runs):
    default, one = artifacts(runs[None]), artifacts(runs["1"])
    assert default and default == one


def leaves(obj, path=()):
    """(path, value) of every scalar in a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from leaves(v, (*path, k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from leaves(v, (*path, i))
    else:
        yield path, obj


def cells(name: str, data: bytes) -> dict:
    """An artifact's values, keyed by (column, row) in a CSV and by key path in
    JSON; CSV cells are floats."""
    if name.endswith(".csv"):
        rows = list(csv.DictReader(data.decode().splitlines()))
        return {(col, i): float(v) for i, row in enumerate(rows) for col, v in row.items()}
    return dict(leaves(json.loads(data)))


def test_artifacts_on_two_threads_stay_within_the_bounds(runs):
    default, two = artifacts(runs[None]), artifacts(runs["2"])
    assert default.keys() == two.keys()
    for name in default:
        got, want = cells(name, two[name]), cells(name, default[name])
        assert got.keys() == want.keys(), name
        for path, b in want.items():
            a = got[path]
            key = next(k for k in reversed(path) if isinstance(k, str))
            # the law fits are functions of d_est and keep its bound
            bound = BOUNDS["d_est"] if name == "distance_fits.json" else BOUNDS.get(key)
            if bound is None or not isinstance(b, float):
                assert a == b, (name, path)
            else:
                rel, tol = bound
                assert math.isfinite(b) and abs(a - b) <= rel * abs(b) + tol, (name, path, a, b)
