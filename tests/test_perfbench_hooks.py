"""The benchmark's tracer patches berglab functions and methods by name and
reads attributes of their results.  One traced round of each workload checks
that every hook still resolves and counts what it counted before, so a
refactor that removes one fails here rather than only in a traced benchmark
run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_threads import BLAS_THREAD_VARIABLES

ROOT = Path(__file__).resolve().parent.parent


def traced_round(workload: str, out: Path) -> dict:
    """The per-layer metrics of one traced round of ``workload`` at seed 1,
    after checking that every pipeline in it ran."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", workload, "--seed", "1", "--out", str(out), "--trace",
    ]
    # without the thread-count variables the round runs berglab's own
    # one-thread default, whatever the calling shell has set
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((out / "result.json").read_text())
    assert all(op["ok"] for op in result["ops"]), result["ops"]
    return result["trace"]


def test_traced_gram_round_reports_its_layers(tmp_path):
    trace = traced_round("gram", tmp_path)
    assert trace["bergman.assemble_gram.calls"] == 3
    assert trace["bergman.basis_size"] == 89
    # the metric op's witnesses read their norms from its own Gram and
    # evaluate their poles in closed form: no RationalFunction.eval or
    # eval_deriv, which the capacity round still counts
    assert trace.get("quadrature.rational_eval.calls", 0) == 0
    # one kernel witness per band k = 5..35, and the metric op's one call
    assert trace["bergman.witness.calls"] == 32


def test_traced_annulus_round_reports_its_layers(tmp_path):
    trace = traced_round("annulus", tmp_path)
    # one classification per Zalcman domain, each tabulating its own c* profile
    assert trace["perfectness.classify.calls"] == 2
    assert trace["perfectness.best_constant_profile.calls"] == 2
    assert trace["perfectness.condition_C_probe.calls"] == 15
    # the probes read proven disk-union bounds: perfect runs no Fekete search
    assert trace.get("capacity.nth_diameter.calls", 0) == 0
    # the c* profiles read every sample's spectrum from one array pass, so
    # only each classification's origin read builds an IntervalUnion, and
    # queries it once (sup_at_most): no other boundary query builds or reads one
    assert trace["domains.distance_spectrum.calls"] == 2
    assert trace["domains.interval_query.calls"] == 2


def test_traced_capacity_round_reports_its_layers(tmp_path):
    trace = traced_round("capacity", tmp_path)
    # one search per reference set
    assert trace["capacity.nth_diameter.calls"] == 4
    assert trace["capacity.equilibrium_measure.calls"] == 18
    assert trace["capacity.equilibrium_measure.iterations"] == 18
    # each equilibrium witness evaluates f = f11 - f2 at its point once, and
    # f11 and f2 together from one packed basis
    assert trace["quadrature.rational_eval.calls"] == 7
    # the kernel sweep builds its 7 equilibrium witnesses in one array call,
    # beside its 7 one-pole witnesses: a per-point loop would count 14
    assert trace["bergman.witness.calls"] == 8
    # one chain certificate per round, and its capacity comparison's one probe
    assert trace["perfectness.pommerenke_construct.calls"] == 1
    assert trace["perfectness.condition_C_probe.calls"] == 1
