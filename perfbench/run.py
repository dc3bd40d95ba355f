"""Benchmark runner for berglab.

    python3 perfbench/run.py --workload {annulus,gram,capacity} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of a workload is a fresh
process (``workload.py``) that imports berglab from ``src``, runs the
workload's pipelines through ``berglab.cli.run`` and writes the artifacts.
The runner checks every round's artifacts (``checks.py``), requires
repeated rounds to write byte-identical artifacts, and starts rounds until
``--seconds`` have passed (at least two).  The last line of stdout is one
JSON object: ``correct``, ``attempted`` and ``failed`` pipelines, and the
metrics named in BENCHMARK.json, as medians over rounds.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
rounds alternate between untraced and traced, and it reports the per-layer
metrics of the traced rounds and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up-only processes per run, on top of each round's own set-up
SETUP_PROBES = 3
MIN_ROUNDS = 2
#: a run must end within this many seconds of its start
DEADLINE_S = 170.0


def run_child(workload: str, seed: int, out: Path, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((out / "result.json").read_text())


def run_rounds(args, ops, base: Path, deadline: float) -> tuple[list, list, list]:
    """(set-up times, round results, check errors)."""
    setups = [
        run_child(args.workload, args.seed, base / f"setup{i}", deadline, "--setup-only")["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    rounds, errors = [], []
    first_hashes = None
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < args.seconds or (args.trace and len(rounds) % 2):
        traced = args.trace and len(rounds) % 2 == 1
        out = base / f"round{len(rounds)}"
        result = run_child(args.workload, args.seed, out, deadline, *(["--trace"] if traced else []))
        errs, hashes = checks.check_round(args.workload, ops, out, result["ops"], args.seed)
        errors += errs
        if first_hashes is None:
            first_hashes = hashes
        else:
            errors += checks.check_same_hashes(first_hashes, hashes)
        shutil.rmtree(out)
        rounds.append(result)
    return setups, rounds, errors


def end_to_end(setups: list, rounds: list) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(names_units: list, rounds: list, errors: list) -> dict:
    """Times are medians over the traced rounds; counts must repeat exactly."""
    traced = [r for r in rounds if "trace" in r]
    untraced = [r for r in rounds if "trace" not in r]
    out = {}
    for name, unit in names_units:
        if name == "trace.overhead_s":
            out[name] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in untraced
            )
            continue
        values = [r["trace"].get(name, 0) for r in traced]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "berglab" / "cli.py").is_file():
        print(f"error: no berglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    deadline = time.monotonic() + DEADLINE_S
    ops = workloads.ops_for(args.workload, args.seed)
    base = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        setups, rounds, errors = run_rounds(args, ops, base, deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    if args.trace:
        values = per_layer(list(units.items()), rounds, errors)
    else:
        values = end_to_end(setups, rounds)
    statuses = [s for r in rounds for s in r["ops"]]
    failed = [s for s in statuses if not s["ok"]]
    for line in errors[:20] + [f"{s['op']}: {s['error']}" for s in failed[:20]]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(statuses),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
