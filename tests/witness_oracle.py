"""The two explicit metric witnesses that ``bergman.witness_metric_bound``
replaced, kept as oracles.  Each is a combination of the poles
g_j = 1/(z - x_j) at holes k - 1, k, k + 1 that vanishes at w, with its norm
from its own boundary rule (``norms_sq``), so the witness, the best such
combination, is at least either."""

import math

import numpy as np

from berglab.bergman import band_index
from berglab.errors import ScaleNotRetainedError
from berglab.quadrature import RationalFunction, domain_circles, norms_sq


def _report(domain, w: complex, f: RationalFunction, fprime: float, **extra) -> dict:
    """|f'(w)| / ||f|| with the parts it is read from, and f's scale-free
    value at w, which should be 0."""
    k = band_index(domain, abs(w))
    norm2 = float(norms_sq(domain_circles(domain), [f])[0][0])
    residual = abs(f.eval(w)) * abs(w - complex(domain.xs[k]))
    return {"fprime": fprime, "norm_sq": norm2, "ratio": fprime / math.sqrt(norm2), "zero_residual": residual,
            **extra}


def two_pole(domain, w: complex) -> dict:
    """g_k - lambda g_{k+1}, lambda = (w - x_{k+1}) / (w - x_k), whose
    derivative at w is the product formula |x_k - x_{k+1}| /
    (|w - x_{k+1}| |w - x_k|^2), taken one quotient at a time: the product of
    the distances underflows to 0 at deep scales."""
    k = band_index(domain, abs(w))
    if k + 1 > domain.K:
        raise ScaleNotRetainedError("two-pole witness needs hole k+1 retained")
    xk, xk1 = complex(domain.xs[k - 1]), complex(domain.xs[k])
    lam = (w - xk1) / (w - xk)
    f = RationalFunction(pole_centers=np.array([xk, xk1]), pole_orders=np.array([1, 1]),
                         pole_coeffs=np.array([1.0, -lam]))
    return _report(domain, w, f, abs(xk - xk1) / abs(w - xk1) / abs(w - xk) / abs(w - xk))


def three_pole(domain, w: complex) -> dict:
    """g_k - a_k g_{k+1} - (1 - a_k) g_{k-1}, a_k chosen for the zero at w."""
    k = band_index(domain, abs(w))
    if k < 2 or k + 1 > domain.K:
        raise ScaleNotRetainedError("three-pole witness needs holes k-1..k+1 retained")
    xkm, xk, xk1 = (complex(x) for x in domain.xs[k - 2 : k + 1])
    a_k = (xkm - xk) * (w - xk1) / ((xkm - xk1) * (w - xk))
    f = RationalFunction(pole_centers=np.array([xk, xk1, xkm]), pole_orders=np.array([1, 1, 1]),
                         pole_coeffs=np.array([1.0, -a_k, -(1.0 - a_k)]))
    return _report(domain, w, f, abs(f.eval_deriv(w)), a_k=a_k)


def oracle_ratios(domain, w: complex) -> list[float]:
    """The ratio of each oracle that the retained holes allow at w."""
    out = []
    for oracle in (two_pole, three_pole):
        try:
            out.append(oracle(domain, w)["ratio"])
        except ScaleNotRetainedError:
            pass
    return out
