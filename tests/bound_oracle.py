"""The per-point one-pole kernel witness and the row-loop band increments
that ``bergman.witness_kernel_bound`` and ``bergman.band_increments``
replaced, kept as oracles: the array versions must give the same bits."""

import math

from berglab.bergman import band_index

TWO_PI = 2.0 * math.pi


def witness_kernel_bound(domain, x: float) -> dict:
    """The bound at -x from the single pole 1/(z - x_{k+1}), with its parts."""
    k = band_index(domain, x)
    xk1 = float(domain.xs[k])  # x_{k+1}
    rk1 = float(domain.rs[k])  # r_{k+1}
    numer = 1.0 / abs(-x - xk1) ** 2
    denom = TWO_PI * math.log(2.0 / rk1)
    return {"x": x, "k": k, "value": numer / denom, "witness_value_sq": numer, "norm_bound": denom}


def band_increments(rows: list[dict]) -> dict[int, float]:
    """Per-band distance increments from a profile's rows, each a dict with
    the keys "k" and "d_est"."""
    out: dict[int, float] = {}
    prev_row = None
    for row in rows:
        if prev_row is not None:
            k = row["k"]
            out[k] = out.get(k, 0.0) + (row["d_est"] - prev_row["d_est"])
        prev_row = row
    return out
