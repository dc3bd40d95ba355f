"""One round of one workload, in a process of its own.

    python3 perfbench/workload.py --workload gram --seed 1 --out DIR [--trace] [--setup-only]

Imports berglab from the checkout's ``src``, builds the round's configs and
domains (timed as set-up), runs every pipeline through ``berglab.cli.run``
into ``DIR/<op name>`` (timed as wall and CPU), and writes ``DIR/result.json``
with the timings, peak RSS, each pipeline's status and, with ``--trace``,
the per-layer metrics.  Checking the artifacts is the runner's job.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from berglab import cli  # noqa: E402
from berglab.domains import ZalcmanDomain, domain_from_json  # noqa: E402
from berglab.quadrature import RationalFunction, integrate_hermitian, partition_for  # noqa: E402

from workloads import WORKLOADS, ops_for  # noqa: E402


def collar_check(domains: dict) -> dict:
    """Gram entries of 1 and z, the area and the second moment, over each
    Zalcman domain and over each of its numeric collars, with each collar's
    geometry, for comparison with their closed forms."""
    fns = [RationalFunction.monomial(0), RationalFunction.monomial(1)]

    def moments(partition) -> dict:
        G, _ = integrate_hermitian(partition, fns)
        return {"area": float(G[0, 0].real), "moment2": float(G[1, 1].real)}

    out = {}
    for name, dom in domains.items():
        analytic, numeric = partition_for(dom)
        out[name] = moments((analytic, numeric))
        out[name]["collars"] = [
            {
                "center": [reg.center.real, reg.center.imag],
                "r_in": reg.r_in,
                "r_out": reg.r_out,
                "holes": [[c.real, c.imag, rho] for c, rho in reg.holes],
                **moments(([], [reg])),
            }
            for reg in numeric
        ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = Path(args.out)
    ops = ops_for(args.workload, args.seed)
    domains = {op.name: domain_from_json(op.cfg["domain"]) for op in ops if "domain" in op.cfg}
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True

    statuses = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        try:
            cli.run(op.cfg, str(out / op.name), op.profile)
            statuses.append({"op": op.name, "ok": True})
        except Exception as exc:  # a failed pipeline is counted, the round goes on
            statuses.append({"op": op.name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
        result["trace"] = tracer.metrics(wall_s)

    if args.workload == "gram":
        zalcman = {name: dom for name, dom in domains.items() if isinstance(dom, ZalcmanDomain)}
        (out / "collar_check.json").write_text(json.dumps(collar_check(zalcman), indent=2))

    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        ops=statuses,
    )
    (out / "result.json").write_text(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
