"""The benchmark's tracer patches berglab functions and methods by name and
reads attributes of their results.  One traced round of the ``gram``
workload checks that every hook still resolves, so a refactor that removes
one fails here rather than only in a traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_gram_round_reports_its_layers(tmp_path):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", "gram", "--seed", "1", "--out", str(tmp_path), "--trace",
    ]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert all(op["ok"] for op in result["ops"]), result["ops"]
    trace = result["trace"]
    assert trace["bergman.assemble_gram.calls"] == 3
    assert trace["bergman.basis_size"] == 89
