"""Per-layer tracing from outside the program.

``Tracer.install`` replaces berglab's public functions and methods with
wrappers that record one span per call: name, start, end and parent span.
Spans go into flat arrays in memory; ``Tracer.metrics`` turns them into the
per-layer metrics when the workload ends.  Nothing inside berglab changes:
a function is replaced in every berglab module that bound it at import
(``perfectness`` binds ``capacity_via_transfinite``, ``bergman`` binds
``integrate_hermitian`` and ``equilibrium_measure``), and a method is
replaced on the class that defines it.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: complex128 bytes per entry of a collar's basis-evaluation matrix
COMPLEX_BYTES = 16


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.enabled = False
        self._last_collar_nodes = 0

    # --- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around each call; ``after(result, args)``
        updates counters once the span has ended."""
        nid = self._id(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                tracer.stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, fn, after):
        """``fn`` with a counter update but no span."""
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                after(result, args)
            return result

        counted.__wrapped__ = fn
        return counted

    # --- installation -------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` in every loaded berglab module bound to it."""
        orig = getattr(module, attr)
        traced = self.wrap(orig, name, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "berglab" and getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    def install(self) -> None:
        from berglab import asymptotics, bergman, capacity, cli, domains, perfectness, quadrature

        def csv_bytes(_, args):
            self.count("cli.csv_bytes", Path(args[0]).stat().st_size)

        def collar_nodes(result, _):
            self._last_collar_nodes = int(result[0].size)
            self.count("quadrature.collar_nodes", result[0].size)

        def collar_bytes(_, args):
            self.count("quadrature.collar_bytes", self._last_collar_nodes * len(args[1]) * COMPLEX_BYTES)

        def collar_levels(result, _):
            self.count("quadrature.collar_levels", sum(result[1].levels.values()))

        def iterations(result, _):
            self.count("capacity.equilibrium_measure.iterations", result.iterations)

        def basis_size(result, _):
            key = "bergman.basis_size"
            self.counters[key] = max(self.counters.get(key, 0), len(result.fns))

        self.patch_function(cli, "run", "cli.run")
        self.patch_function(cli, "write_csv", "cli.write_csv", csv_bytes)
        self.patch_function(cli, "write_json", "cli.write_json")

        self.patch_method(domains.CircleDomain, "distance_spectrum", "domains.distance_spectrum")
        for attr in ("sup_at_most", "inf_at_least", "intersects", "contains"):
            self.patch_method(domains.IntervalUnion, attr, "domains.interval_query")

        self.patch_function(perfectness, "best_constant_profile", "perfectness.best_constant_profile")
        self.patch_function(perfectness, "classify_weak_perfectness", "perfectness.classify")
        self.patch_function(perfectness, "condition_C_probe", "perfectness.condition_C_probe")
        self.patch_function(perfectness, "pommerenke_construct", "perfectness.pommerenke_construct")

        self.patch_function(capacity, "nth_diameter", "capacity.nth_diameter")
        self.patch_function(capacity, "equilibrium_measure", "capacity.equilibrium_measure", iterations)

        self.patch_function(quadrature, "integrate_hermitian", "quadrature.integrate_hermitian", collar_levels)
        self.patch_method(quadrature.PolarRegion, "gram", "quadrature.collar_gram", collar_bytes)
        quadrature.PolarRegion.nodes_weights = self.counting(
            quadrature.PolarRegion.__dict__["nodes_weights"], collar_nodes
        )
        self.patch_method(quadrature.AnnulusRegion, "gram", "quadrature.annulus_gram")
        for attr in ("eval", "eval_deriv"):
            self.patch_method(quadrature.RationalFunction, attr, "quadrature.rational_eval")

        self.patch_function(bergman, "assemble_gram", "bergman.assemble_gram", basis_size)
        for attr in ("subspace_kernel", "subspace_metric"):
            self.patch_function(bergman, attr, "bergman.point_eval")
        for attr in ("witness_kernel_bound", "witness_metric_bound", "equilibrium_witness_bound"):
            self.patch_function(bergman, attr, "bergman.witness")

        self.patch_function(asymptotics, "select_model", "asymptotics.select_model")

    # --- reduction ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per span name: calls, total seconds and self seconds, plus the
        counters and the wall time left outside every layer span.

        ``cli.run`` is the root of each pipeline, so time not covered by a
        span other than ``cli.run`` counts as unaccounted."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.s"] = float(dur[mask].sum())
            out[f"{name}.self_s"] = float(self_time[mask].sum())
        root = self._ids.get("cli.run", -2)
        top = (names != root) & ((parents < 0) | (names[np.maximum(parents, 0)] == root))
        out["trace.unaccounted_s"] = wall_s - float(dur[top].sum())
        out.update(self.counters)
        return out
