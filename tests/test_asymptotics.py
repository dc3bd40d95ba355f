import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berglab.asymptotics import MODELS, _median, fit_model, linear_fit_r2, select_model
from berglab.domains import ScaleFunction, build_zalcman
from berglab.errors import InsufficientSpanError


def h1_band_midpoints(alpha=1.2, x1=1e-2, K=12, ks=range(3, 11)):
    dom = build_zalcman(ScaleFunction.h1(alpha), x1, K=K)
    return [math.sqrt(float(dom.xs[k - 1] * dom.xs[k])) for k in ks]


def test_exact_model_recovery():
    xs = h1_band_midpoints()
    samples = [(x, 3.0 / (x * x * math.log(1.0 / x))) for x in xs]
    fit = fit_model(samples, "K1")
    assert fit.C == pytest.approx(3.0, rel=1e-12)
    assert fit.rel_residual <= 1e-12
    assert fit.band[0] == pytest.approx(1.0, rel=1e-12)
    assert fit.band[1] == pytest.approx(1.0, rel=1e-12)


def test_wrong_model_residual_grows_with_span():
    xs = h1_band_midpoints(ks=range(3, 11))
    samples = [(x, 3.0 / (x * x * math.log(1.0 / x))) for x in xs]
    fit = fit_model(samples, "K2")
    assert fit.rel_residual > 0.1


def test_scale_covariance():
    xs = h1_band_midpoints()
    samples = [(x, 5.0 * MODELS["D1"](x)) for x in xs]
    fit1 = fit_model(samples, "D1")
    fit2 = fit_model([(x, 7.0 * v) for x, v in samples], "D1")
    assert fit2.C == pytest.approx(7.0 * fit1.C, rel=1e-12)
    assert fit2.rel_residual == pytest.approx(fit1.rel_residual, abs=1e-14)
    assert fit2.band == pytest.approx(fit1.band, rel=1e-12)


def test_select_model_on_synthetic_data():
    xs = h1_band_midpoints()
    k2 = [(x, 0.8 / (x * x * math.log(math.log(1.0 / x)))) for x in xs]
    preferred, margin, _ = select_model(k2, ["K1", "K2"])
    assert preferred == "K2"
    assert margin <= 0.5


def test_select_model_invariant_under_rescaling():
    xs = h1_band_midpoints()
    data = [(x, 2.0 / (x * x * math.log(1.0 / x))) for x in xs]
    p1, m1, _ = select_model(data, ["K1", "K2"])
    p2, m2, _ = select_model([(x, 100.0 * v) for x, v in data], ["K1", "K2"])
    assert p1 == p2 == "K1"
    assert m1 == pytest.approx(m2, rel=1e-10)


def test_noisy_recovery_over_four_bands():
    # dense sampling across >= 4 scale bands; per-sample noise up to x2
    dom = build_zalcman(ScaleFunction.h1(1.2), 1e-2, K=12)
    xs = []
    for k in range(3, 9):
        lo, hi = float(dom.logx[k]), float(dom.logx[k - 1])
        xs.extend(np.exp(np.linspace(hi - 0.1 * (hi - lo), lo + 0.1 * (hi - lo), 8)))
    rng = np.random.default_rng(123)
    for gen, other in (("K1", "K2"), ("K2", "K1")):
        noise = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), len(xs)))
        samples = [(x, float(MODELS[gen](x) * n)) for x, n in zip(xs, noise)]
        preferred, _, _ = select_model(samples, [gen, other])
        assert preferred == gen


def test_distance_models_distinguish():
    xs = h1_band_midpoints(ks=range(3, 11))
    d1_data = [(x, 1.7 * MODELS["D1"](x)) for x in xs]
    preferred, _, _ = select_model(d1_data, ["D1", "D2"])
    assert preferred == "D1"
    d2_data = [(x, 0.4 * MODELS["D2"](x)) for x in xs]
    preferred, _, _ = select_model(d2_data, ["D1", "D2"])
    assert preferred == "D2"


def test_insufficient_span_errors():
    with pytest.raises(InsufficientSpanError):
        fit_model([(0.01, 1.0)] * 3, "K1")
    with pytest.raises(InsufficientSpanError):
        fit_model([(0.5, 1.0), (0.4, 1.0), (0.45, 1.0), (0.42, 1.0), (0.41, 1.0)], "K1")


@pytest.mark.parametrize("x", [1.0, 2.0, 8.0, float("nan")])
def test_x_at_or_above_one_is_rejected(x):
    # log(log(1/x)) is NaN (or -inf) there and NaN <= 0.5 is false: these
    # samples used to pass, with RuntimeWarnings, and give NaN fits
    samples = [(1e-3, 1.0), (1e-5, 1.0), (1e-8, 1.0), (1e-12, 1.0), (x, 1.0)]
    with pytest.raises(InsufficientSpanError, match="x < 1"):
        fit_model(samples, "K1")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=60))
def test_median_matches_numpy(values):
    a = np.array(values)
    assert _median(a) == float(np.median(a))


def test_linear_fit_r2():
    xs = np.arange(10.0)
    ys = 3.0 * xs + 1.0
    slope, intercept, r2 = linear_fit_r2(xs, ys)
    assert slope == pytest.approx(3.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
