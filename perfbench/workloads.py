"""The benchmark's workloads: seed in, list of berglab pipeline configs out.

Pure Python (no numpy, no berglab), so the runner, the workload process and
the checks all read the same definitions.

The seed moves x1 and the scale exponent alpha/beta of the domains whose
cost is smooth in them (the annulus tests, and the light metric and
distance sweeps), and the sizes of the reference sets and the chain's seed
scale.  It leaves alone the two domains whose Gram matrix dominates a
workload: any change of their geometry, however small, moves the collar
node counts by up to +-8 % and can change a collar's refinement level
(peak RSS 68 vs 87 MB on two seeds), so seeding them would make the
run-to-run spread measure the seed instead of the code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("annulus", "gram", "capacity")

#: half-widths of the seeded parameter ranges
EXPONENT_SPREAD = 0.002  # alpha = 1.5 +- 0.002, beta = 1.0 +- 0.002, ...
SIZE_SPREAD = 0.05  # x1, radii and lengths within +-5 % of the nominal value


@dataclass(frozen=True)
class Op:
    """One pipeline run: a name for its output directory, the config and the
    tolerance profile passed to ``berglab.cli.run``."""

    name: str
    cfg: dict
    profile: str = "default"


def _draw(rng: random.Random, nominal: float, spread: float) -> float:
    return round(nominal * (1.0 + rng.uniform(-spread, spread)), 9)


def _exponent(rng: random.Random, nominal: float) -> float:
    return round(nominal + rng.uniform(-EXPONENT_SPREAD, EXPONENT_SPREAD), 9)


def zalcman(family: str, param: float, x1: float, K: int) -> dict:
    key = "alpha" if family == "h1" else "beta"
    return {"type": "zalcman", "family": family, key: param, "x1": x1, "K": K}


def ops_for(workload: str, seed: int) -> list[Op]:
    """The pipeline runs of one round of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "annulus":
        h1 = zalcman("h1", _exponent(rng, 1.5), _draw(rng, 1e-2, SIZE_SPREAD), 7)
        h2 = zalcman("h2", _exponent(rng, 1.0), _draw(rng, 1e-3, SIZE_SPREAD), 10)
        cantor = {"type": "cantor", "l0": _draw(rng, 0.1, SIZE_SPREAD), "alpha": 2.0, "J": 6}
        return [
            Op("perfect_h1", {"pipeline": "perfect", "domain": h1, "eps_list": [0.1]}),
            Op("perfect_h2", {"pipeline": "perfect", "domain": h2, "eps_list": [0.1]}),
            Op("perfect_cantor", {"pipeline": "perfect", "domain": cantor}),
        ]
    if workload == "gram":
        h2 = zalcman("h2", 1.0, 1e-3, 40)
        h1 = zalcman("h1", _exponent(rng, 1.5), _draw(rng, 1e-2, SIZE_SPREAD), 10)
        h1_slow = zalcman("h1", _exponent(rng, 1.2), _draw(rng, 1e-2, SIZE_SPREAD), 12)
        return [
            Op("kernel_h2", {"pipeline": "kernel", "domain": h2, "k_range": [5, 35],
                             "fit_column": "K_low", "seed": 3}),
            Op("metric_h1", {"pipeline": "metric", "domain": h1, "k_range": [2, 6]}),
            Op("distance_h1", {"pipeline": "distance", "domain": h1_slow, "k_range": [1, 10]}),
        ]
    if workload == "capacity":
        r_circle = _draw(rng, 0.5, SIZE_SPREAD)
        half = _draw(rng, 1.0, SIZE_SPREAD)
        r_disk = _draw(rng, 0.1, SIZE_SPREAD)
        d_disk = _draw(rng, 0.5, SIZE_SPREAD)
        l0 = _draw(rng, 0.1, SIZE_SPREAD)
        s1 = _draw(rng, 1e-3, SIZE_SPREAD)
        h1 = zalcman("h1", 1.5, 1e-2, 10)
        sets = {
            "circle": {"type": "circle", "r": r_circle, "grid": 512},
            "segment": {"type": "segment", "a": -half, "b": half, "grid": 1024},
            "two_disks": {"type": "two_disks", "r": r_disk, "d": d_disk, "grid": 1024},
            "cantor": {"type": "cantor", "l0": l0, "alpha": 1.5, "J": 4, "grid": 2048},
        }
        ops = [
            Op(f"capacity_{name}", {"pipeline": "capacity", "set": spec, "seed": 1}, "strict")
            for name, spec in sets.items()
        ]
        ops.append(Op("kernel_equilibrium_h1", {"pipeline": "kernel", "domain": h1,
                                                "k_range": [2, 8], "equilibrium": True,
                                                "seed": 3}, "strict"))
        ops.append(Op("pommerenke_h1", {"pipeline": "pommerenke", "domain": h1, "k": 5,
                                        "c": 1.0, "s1": s1, "seed": 5}, "strict"))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
