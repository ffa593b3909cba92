import ast
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

import wverif
from wverif import (
    CensorAbove,
    ContractViolation,
    Ensemble,
    Identity,
    IndicatorAbove,
    Normal,
    NumericalError,
    WeightedMassZero,
    crps,
    crps_ensemble,
    crps_normal,
    crps_numeric,
    owcrps,
    twcrps,
    twcrps_decomposition_check,
    vrcrps,
)
from wverif.forecasts import Logistic, StudentT
from wverif.uniscores import ScoreValue, _CdfGrid, brier, owcrps_bs
from wverif.weights import (
    CensorBelow,
    Constant,
    GaussCdf,
    GaussCdfChain,
    GaussPdf,
    IndicatorBelow,
    OneMinusGaussCdf,
    OneMinusGaussPdfRatio,
    canonical_chaining,
)
from wverif import kernels, uniscores

from quad_oracles import (
    _crps_numeric_parametric,
    _owcrps_indicator_above,
    _owcrps_indicator_below,
    _twcrps_parametric,
    _vrcrps_parametric,
)


def test_score_value_clamps_roundoff():
    assert ScoreValue(-1e-12, "x").value == 0.0
    assert float(ScoreValue(0.5, "x")) == 0.5
    with pytest.raises(NumericalError):
        ScoreValue(-1e-6, "x")
    with pytest.raises(NumericalError):
        ScoreValue(np.nan, "x")


def test_brier_hand_values():
    f = Normal(0.0, 1.0)
    assert brier(f, 1.0, 0.0).value == pytest.approx(0.25)
    assert brier(f, -1.0, 0.0).value == pytest.approx(0.25)
    # The event {Y <= t} holds at y = t.
    assert brier(Normal(1.0, 1.0), 0.0, 0.0).value == pytest.approx((stats.norm.cdf(-1.0) - 1.0) ** 2)
    e = Ensemble(np.array([0.0, 2.0]))
    assert brier(e, 2.0, 1.0).value == pytest.approx(0.25)
    assert brier(e, 0.5, 1.0).value == pytest.approx(0.25)


def test_crps_ensemble_hand_value():
    e = Ensemble(np.array([0.0, 2.0]))
    assert crps_ensemble(e, 1.0).value == pytest.approx(0.5)
    assert crps_ensemble(e, 1.0, fair=True).value == pytest.approx(0.0)
    single = Ensemble(np.array([1.5]))
    assert crps_ensemble(single, 1.0).value == pytest.approx(0.5)
    with pytest.raises(ContractViolation):
        crps_ensemble(single, 1.0, fair=True)


def test_crps_ensemble_matches_integral_form():
    """Kernel form against the cdf-integral form done by quadrature."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = rng.normal(size=rng.integers(2, 9))
        y = float(rng.normal())
        e = Ensemble(x)
        lo = min(x.min(), y) - 1.0
        hi = max(x.max(), y) + 1.0
        pts = np.sort(np.concatenate([x, [y]]))

        def integrand(z):
            return (e.cdf(z) - (1.0 if y <= z else 0.0)) ** 2

        total = 0.0
        knots = np.concatenate([[lo], pts, [hi]])
        for a, b in zip(knots[:-1], knots[1:]):
            part, _ = integrate.quad(integrand, a, b, limit=100)
            total += part
        assert crps_ensemble(e, y).value == pytest.approx(total, abs=1e-8)


def test_crps_normal_center_value():
    # E|X - mu| for X ~ N(mu, s^2) is s sqrt(2/pi); the spread term is
    # s / sqrt(pi).  At y = mu the score is s (2 phi(0) - 1/sqrt(pi)).
    want = 2.0 * stats.norm.pdf(0.0) - 1.0 / np.sqrt(np.pi)
    assert crps_normal(0.0, 1.0, 0.0).value == pytest.approx(want, abs=1e-15)
    assert crps_normal(0.0, 1.0, 0.0).value == pytest.approx(
        0.23369497725510913, abs=1e-15
    )
    assert crps_normal(3.0, 2.0, 3.0).value == pytest.approx(2.0 * want, abs=1e-14)


def test_normal_crps_values_refuses_a_nan_sigma():
    """NaN fails ``sigma <= 0`` as it fails ``sigma > 0``; it is refused
    with the non-positive sds, not scored as NaN."""
    for sigma in (np.nan, [1.0, np.nan], 0.0):
        with pytest.raises(ContractViolation, match="sigma must be positive"):
            uniscores.normal_crps_values(0.0, sigma, 1.0)


def test_crps_normal_matches_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = float(rng.uniform(-5.0, 5.0))
        sigma = float(rng.uniform(0.2, 3.0))
        y = float(rng.normal(mu, 2.0 * sigma))
        closed = crps_normal(mu, sigma, y).value
        numeric = crps_numeric(Normal(mu, sigma**2), y).value
        assert abs(closed - numeric) < 1e-6


def test_crps_logistic_center_value():
    # At the location parameter the logistic CRPS is s (2 ln 2 - 1).
    got = crps(Logistic(0.0, 1.0), 0.0).value
    assert got == pytest.approx(2.0 * np.log(2.0) - 1.0, abs=1e-9)
    got2 = crps(Logistic(1.0, 0.5), 1.0).value
    assert got2 == pytest.approx(0.5 * (2.0 * np.log(2.0) - 1.0), abs=1e-9)


def test_crps_dispatcher():
    e = Ensemble(np.array([0.0, 2.0]))
    assert crps(e, 1.0).value == pytest.approx(0.5)
    assert crps(Normal(0.0, 1.0), 0.3).value == pytest.approx(
        crps_normal(0.0, 1.0, 0.3).value, abs=1e-14
    )
    f = StudentT.from_moments(5.0, 0.0, 1.0)
    assert crps(f, 0.5).value == pytest.approx(crps_numeric(f, 0.5).value, abs=1e-12)


def test_twcrps_hand_value():
    e = Ensemble(np.array([0.0, 2.0]))
    assert twcrps(e, 1.0, CensorAbove(1.0)).value == pytest.approx(0.25)


def test_twcrps_identity_chaining_is_plain_crps():
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.normal(size=rng.integers(2, 10))
        y = float(rng.normal())
        a = twcrps(Ensemble(x), y, Identity()).value
        b = crps_ensemble(Ensemble(x), y).value
        assert abs(a - b) < 1e-12
    f = Normal(0.4, 1.3)
    assert twcrps(f, 0.9, Identity()).value == pytest.approx(
        crps(f, 0.9).value, abs=1e-7
    )


def test_twcrps_ensemble_is_crps_of_censored_members():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = rng.normal(size=7)
        y = float(rng.normal())
        t = float(rng.uniform(-1.0, 1.0))
        a = twcrps(Ensemble(x), y, CensorAbove(t)).value
        b = crps_ensemble(Ensemble(np.maximum(x, t)), max(y, t)).value
        assert abs(a - b) < 1e-12


def _dense_kernel_crps(x: np.ndarray, y: float) -> float:
    # Kernel score with the spread term in the O(m log m) sorted form:
    # sum_ij |x_i - x_j| = 2 sum_i (2i - m + 1) x_(i).
    x = np.sort(x)
    m = x.size
    idx = np.arange(m)
    spread = np.sum(x * (2 * idx - m + 1)) / m**2
    return float(np.abs(x - y).mean() - spread)


def test_twcrps_parametric_against_quantile_ensemble():
    """Chained kernel score of a dense quantile ensemble converges to the
    parametric route."""
    f = Normal(0.3, 1.1**2)
    m = 20000
    levels = (np.arange(m) + 0.5) / m
    q = f.ppf(levels)
    for chain, y in (
        (CensorAbove(0.8), 1.4),
        (CensorAbove(0.8), 0.2),
        (CensorBelow(0.1), -0.7),
        (GaussCdfChain(0.5, 0.9), 0.6),
    ):
        dense = _dense_kernel_crps(chain(q), float(chain(y)))
        exact = twcrps(f, y, chain).value
        assert abs(dense - exact) < 5e-4, (chain, y, dense, exact)


def test_twcrps_constant_below_threshold():
    f = Normal(0.0, 1.0)
    vals = [twcrps(f, y, CensorAbove(1.0)).value for y in (-3.0, -1.5, 0.0, 0.999)]
    assert np.ptp(vals) < 1e-8


def test_owcrps_zero_when_outcome_unweighted():
    f = Normal(0.0, 1.0)
    assert owcrps(f, -1.0, IndicatorAbove(0.0)).value == 0.0


def test_owcrps_refuses_raw_ensembles():
    from wverif import UnsupportedInput

    e = Ensemble(np.array([-0.5, 0.5, 1.5]))
    with pytest.raises(UnsupportedInput):
        owcrps(e, 2.0, IndicatorAbove(0.0))
    # owcrps_bs refuses them on both sides of its threshold, not only
    # where its outcome-weighted part is live.
    for y in (0.0, 3.0):
        with pytest.raises(UnsupportedInput):
            owcrps_bs(Ensemble(np.array([1.0, 2.0, 3.0])), y, 2.5)


def test_owcrps_constant_weight_is_crps():
    f = Normal(0.2, 0.8)
    assert owcrps(f, 0.5, Constant()).value == pytest.approx(
        crps(f, 0.5).value, abs=1e-7
    )


def test_owcrps_matches_truncated_crps():
    """With an indicator weight the outcome-weighted score is the CRPS of
    the truncated forecast; scipy's truncnorm provides the oracle cdf."""
    mu, sd, t = 0.3, 1.2, 0.0
    f = Normal(mu, sd**2)
    a = (t - mu) / sd
    tn = stats.truncnorm(a, np.inf, loc=mu, scale=sd)
    for y in (0.5, 1.0, 2.5):

        def integrand(z):
            return (tn.cdf(z) - (1.0 if y <= z else 0.0)) ** 2

        left, _ = integrate.quad(integrand, t, y, limit=200)
        right, _ = integrate.quad(integrand, y, mu + 10 * sd, limit=200)
        want = left + right
        got = owcrps(f, y, IndicatorAbove(t)).value
        assert got == pytest.approx(want, abs=1e-6)


def test_owcrps_smooth_weight_against_rejection_sampling():
    """Monte Carlo oracle: draw from the reweighted density by rejection
    (the weight is bounded by one), then score the accepted sample with
    the kernel form."""
    f = Normal(0.3, 1.44)
    w = GaussCdf(0.5, 0.9)
    rng = np.random.default_rng(2024)
    x = f.sample(2_000_000, rng)
    keep = x[rng.random(x.size) < w(x)]
    assert keep.size > 500_000
    for y in (0.8, 1.6):
        dense = _dense_kernel_crps(keep, y)
        got = owcrps(f, y, w).value
        assert got == pytest.approx(float(w(y)) * dense, abs=4e-3)


def test_owcrps_mass_floor():
    with pytest.raises(WeightedMassZero):
        owcrps(Normal(0.0, 1.0), 101.0, IndicatorAbove(100.0))


def test_owcrps_bs_below_threshold_is_brier():
    f = Normal(0.0, 1.0)
    for y in (-2.0, -0.3, 0.0):
        got = owcrps_bs(f, y, 0.0).value
        assert got == pytest.approx(brier(f, y, 0.0).value, abs=1e-12)


def test_owcrps_bs_hand_value():
    assert owcrps_bs(Normal(0.0, 1.0), -1.0, 0.0).value == pytest.approx(0.25)


def test_owcrps_bs_is_brier_plus_conditional_tail():
    f = Normal(0.2, 1.5)
    t = 0.4
    for y in (-1.0, 0.1, 0.9, 2.3):
        want = brier(f, y, t).value
        if y > t:
            want += owcrps(f, y, IndicatorAbove(t)).value
        assert owcrps_bs(f, y, t).value == pytest.approx(want, abs=1e-12)


def test_owcrps_bs_far_above_threshold_reduces_to_owcrps():
    # With essentially no forecast mass at or below t the Brier term
    # vanishes and the conditional part is the whole score.
    f = Normal(10.0, 1.0)
    got = owcrps_bs(f, 11.0, 0.0).value
    assert got == pytest.approx(owcrps(f, 11.0, IndicatorAbove(0.0)).value, abs=1e-12)


def test_vrcrps_hand_value():
    e = Ensemble(np.array([0.0, 2.0]))
    assert vrcrps(e, 1.0, IndicatorAbove(1.0), x0=0.0).value == pytest.approx(0.5)


def test_vrcrps_constant_weight_is_crps():
    e = Ensemble(np.array([-0.3, 0.9, 2.2]))
    assert vrcrps(e, 0.4, Constant(), x0=0.0).value == pytest.approx(
        crps_ensemble(e, 0.4).value, abs=1e-12
    )
    f = Normal(0.1, 1.2)
    assert vrcrps(f, 0.4, Constant(), x0=0.0).value == pytest.approx(
        crps(f, 0.4).value, abs=1e-6
    )


def test_vrcrps_indicator_anchor_equals_twcrps():
    """With w = 1{z > t} and the anchor at t the re-scaled score equals
    the censored threshold-weighted score."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        x = rng.normal(size=rng.integers(2, 12))
        y = float(rng.normal())
        t = float(rng.uniform(-1.5, 1.5))
        a = vrcrps(Ensemble(x), y, IndicatorAbove(t), x0=t).value
        b = twcrps(Ensemble(x), y, CensorAbove(t)).value
        assert abs(a - b) < 1e-12


def test_vrcrps_parametric_against_double_quadrature():
    mu, var, t, x0 = 0.3, 1.44, 0.31, 0.0
    sd = np.sqrt(var)
    # The normal density as a plain expression: dblquad calls it about
    # 570,000 times, and a frozen scipy pdf costs about 100 times more per
    # call for the same values.
    c = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def f(x):
        return c * math.exp(-0.5 * ((x - mu) / sd) ** 2)

    hi = mu + 9 * sd
    ew = integrate.quad(f, t, hi)[0]
    c3 = integrate.quad(lambda x: abs(x - x0) * f(x), t, hi)[0]
    pair = integrate.dblquad(
        lambda xp, x: abs(x - xp) * f(x) * f(xp), t, hi, t, hi, epsabs=1e-11
    )[0]
    for y in (0.8, 2.0, -0.5):
        wy = 1.0 if y > t else 0.0
        mdy = integrate.quad(lambda x: abs(x - y) * f(x), t, hi)[0]
        want = mdy * wy - 0.5 * pair + (c3 - abs(y - x0) * wy) * (ew - wy)
        got = vrcrps(Normal(mu, var), y, IndicatorAbove(t), x0).value
        assert got == pytest.approx(want, abs=1e-6)


def _dense_vr(x: np.ndarray, y: float, w, x0: float) -> float:
    # Weighted pair term via cumulative sums over the sorted sample:
    # sum_ij |x_i - x_j| w_i w_j = 2 sum_i w_i (x_i W_i - M_i) with
    # W_i, M_i the weighted count and first moment below rank i.
    x = np.sort(x)
    wx = np.asarray(w(x), dtype=float)
    wy = float(w(y))
    m = x.size
    below_w = np.concatenate([[0.0], np.cumsum(wx)])[:-1]
    below_m = np.concatenate([[0.0], np.cumsum(wx * x)])[:-1]
    epair = 2.0 * np.sum(wx * (x * below_w - below_m)) / m**2
    term1 = float(np.mean(np.abs(x - y) * wx)) * wy
    mean_dist = float(np.mean(np.abs(x - x0) * wx))
    return term1 - 0.5 * epair + (mean_dist - abs(y - x0) * wy) * (
        float(wx.mean()) - wy
    )


def test_vrcrps_parametric_smooth_weight_against_quantile_ensemble():
    f = Normal(0.0, 1.0)
    w = GaussCdf(0.3, 0.8)
    m = 20000
    q = f.ppf((np.arange(m) + 0.5) / m)
    for y in (-0.4, 0.9):
        dense = _dense_vr(q, y, w, 0.0)
        exact = vrcrps(f, y, w, x0=0.0).value
        assert abs(dense - exact) < 5e-4


def test_dense_vr_helper_matches_kernel_form():
    rng = np.random.default_rng(3)
    w = GaussCdf(0.0, 1.0)
    for _ in range(20):
        x = rng.normal(size=9)
        y = float(rng.normal())
        assert _dense_vr(x, y, w, 0.2) == pytest.approx(
            vrcrps(Ensemble(x), y, w, x0=0.2).value, abs=1e-12
        )


def test_twcrps_decomposition_residual():
    rng = np.random.default_rng(17)
    for _ in range(50):
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.3, 2.0))
        t = float(rng.uniform(mu - sigma, mu + 1.5 * sigma))
        y = float(rng.normal(mu, 1.5 * sigma))
        res = twcrps_decomposition_check(Normal(mu, sigma**2), y, t)
        assert abs(res) < 1e-8


@pytest.mark.parametrize(
    "f", [Normal(0.0, 1.0), Logistic(0.0, 1.0), StudentT(10.0, 1.0, 2.0)], ids=["normal", "logistic", "t10"]
)
def test_twcrps_decomposition_residual_beyond_the_support(f):
    # y or t beyond the grid's support: the stretch past it enters in
    # closed form on both sides of the decomposition.
    lo, hi = f.support_interval(1e-12)
    cases = [(10.0, 0.0), (-10.0, 0.0), (1e3, 0.0), (-1e3, 0.0), (hi + 5.0, -3.0), (lo - 5.0, 2.0),
             (0.5, lo - 3.0), (hi + 3.0, lo - 3.0), (lo - 2.0, lo - 3.0), (0.0, hi + 1.0), (hi + 2.0, hi + 1.0)]
    for y, t in cases:
        assert abs(twcrps_decomposition_check(f, y, t)) < 1e-8, (y, t)


def test_score_inputs_validated():
    with pytest.raises(ContractViolation):
        crps(Normal(0.0, 1.0), np.inf)
    with pytest.raises(ContractViolation):
        twcrps(Normal(0.0, 1.0), 0.5, IndicatorAbove(0.0))
    with pytest.raises(ContractViolation):
        owcrps(Normal(0.0, 1.0), 0.5, CensorAbove(0.0))
    with pytest.raises(ContractViolation):
        vrcrps(Normal(0.0, 1.0), 0.5, Constant(), x0=np.nan)


def test_score_value_metadata():
    v = twcrps(Ensemble(np.array([0.0, 2.0])), 1.0, CensorAbove(1.0))
    assert v.score_name == "twcrps"
    assert "chaining" in v.params or "weight" in v.params


# ---------------------------------------------------------------------------
# closed forms for normal forecasts against the quadrature routines
# ---------------------------------------------------------------------------

# Derandomised so that every run of the suite draws the same cases.
_ORACLE_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _normal_case(draw, a_min=-3.0, a_max=6.0, y_beyond=False):
    """A normal forecast and a threshold t that lies a standard deviations
    into the weighted tail of a drawn side: t = mu + a sd for a weight
    above t, t = mu - a sd for one below.

    Returns (forecast, y, t, x0, above).  With ``y_beyond`` the
    observation lies in the weighted tail, 1e-6 to 4 sd past t.
    """
    mu = draw(st.floats(-3.0, 3.0))
    sd = draw(st.floats(0.2, 3.0))
    a = draw(st.floats(a_min, a_max))
    zy = a + draw(st.floats(1e-6, 4.0)) if y_beyond else draw(st.floats(-4.0, 8.0))
    zc = draw(st.floats(-4.0, 8.0))
    sign = 1.0 if draw(st.booleans()) else -1.0
    t, y, x0 = (mu + sign * u * sd for u in (a, zy, zc))
    return Normal(mu, sd * sd), y, t, x0, sign > 0


@_ORACLE_SETTINGS
@given(_normal_case())
def test_twcrps_normal_closed_form_matches_quadrature(case):
    f, y, t, _, above = case
    v = CensorAbove(t) if above else CensorBelow(t)
    assert twcrps(f, y, v).value == pytest.approx(_twcrps_parametric(f, y, v), abs=1e-9)
    assert twcrps(f, y, Identity()).value == pytest.approx(
        _crps_numeric_parametric(f, y), abs=1e-9
    )


@_ORACLE_SETTINGS
@given(_normal_case(a_max=4.5, y_beyond=True))
def test_owcrps_normal_closed_form_matches_quadrature(case):
    # Up to a = 4.5 only: the quadrature routines integrate over the
    # forecast's 1e-12 quantile range, which drops a share of order
    # 1e-12 / p of a tail of mass p, and the one above t forms 1 - F(t).
    # Further out they drift from the exact value by more than 1e-9
    # (6e-8 at a = 6); the next test covers that range.
    f, y, t, _, above = case
    if above:
        want = _owcrps_indicator_above(f, y, t)
        got = owcrps(f, y, IndicatorAbove(t)).value
    else:
        want = _owcrps_indicator_below(f, y, t)
        got = owcrps(f, y, IndicatorBelow(t)).value
    assert got == pytest.approx(want, abs=1e-9)


def _truncated_crps(f, y, t, above):
    # CRPS of the normal truncated beyond t, integrated with scipy's
    # truncnorm, whose cdf and sf keep their accuracy deep in the tail.
    a = (t - f.mean()) / f.sd
    bounds = (a, np.inf) if above else (-np.inf, a)
    tn = stats.truncnorm(*bounds, loc=f.mean(), scale=f.sd)
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    lo, hi = (t, np.inf) if above else (-np.inf, t)
    left = integrate.quad(lambda z: tn.cdf(z) ** 2, lo, y, **opts)[0]
    right = integrate.quad(lambda z: tn.sf(z) ** 2, y, hi, **opts)[0]
    return left + right


@_ORACLE_SETTINGS
@given(_normal_case(a_min=4.5, a_max=6.5, y_beyond=True))
def test_owcrps_normal_closed_form_matches_truncnorm(case):
    f, y, t, _, above = case
    w = IndicatorAbove(t) if above else IndicatorBelow(t)
    assert owcrps(f, y, w).value == pytest.approx(_truncated_crps(f, y, t, above), abs=1e-9)


@_ORACLE_SETTINGS
@given(_normal_case())
def test_vrcrps_normal_closed_form_matches_quadrature(case):
    f, y, t, x0, above = case
    w = IndicatorAbove(t) if above else IndicatorBelow(t)
    assert vrcrps(f, y, w, x0).value == pytest.approx(
        _vrcrps_parametric(f, y, w, x0), abs=1e-9
    )
    assert vrcrps(f, y, Constant(), x0).value == pytest.approx(
        _crps_numeric_parametric(f, y), abs=1e-9
    )


@_ORACLE_SETTINGS
@given(
    st.floats(-5.0, 5.0),
    st.floats(0.1, 5.0),
    st.floats(-10.0, 10.0),
    st.floats(2.0, 300.0),
    st.floats(-10.0, 10.0),
    st.booleans(),
)
def test_normal_owcrps_and_vrcrps_equal_the_crps_past_a_far_threshold(mu, sd, z, e, x0, above):
    """A threshold 10^e (e up to 300) out on the weighted side weighs every
    outcome one, so the owCRPS and vrCRPS are the CRPS: their closed
    forms keep no threshold term that cancels in rounding."""
    f, y = Normal(mu, sd**2), mu + z * sd
    w = IndicatorAbove(-(10.0**e)) if above else IndicatorBelow(10.0**e)
    want = crps(f, y).value
    assert owcrps(f, y, w).value == pytest.approx(want, rel=1e-14, abs=0.0)
    assert vrcrps(f, y, w, x0).value == pytest.approx(want, rel=1e-14, abs=0.0)


def _tnorm_crps_mp(z, a):
    """CRPS at z of the standard normal truncated to (a, inf): the
    integral of (F(u) - 1{z <= u})^2 in 40-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, a = mpmath.mpf(z), mpmath.mpf(a)
        q = lambda u: mpmath.erfc(u / mpmath.sqrt(2)) / 2  # noqa: E731
        p = q(a)
        below = mpmath.quad(lambda u: (1 - q(u) / p) ** 2, [a, z])
        return float(below + mpmath.quad(lambda u: (q(u) / p) ** 2, [z, mpmath.inf]))


@pytest.mark.parametrize("a", np.linspace(-4.0, 7.0, 12))
def test_truncated_normal_crps_matches_mpmath(a):
    for z in (a, a + 1.0):
        got = uniscores._tnorm_crps(z, a, special.ndtr(-a))
        assert got == pytest.approx(_tnorm_crps_mp(z, a), rel=1e-11, abs=0.0), z


@_ORACLE_SETTINGS
@given(_normal_case(a_max=6.5))
def test_normal_closed_forms_agree_under_reflection(case):
    """x -> -x maps the right tail onto the left one and leaves each
    score unchanged."""
    f, y, t, x0, _ = case
    g = Normal(-f.mean(), f.variance())
    assert twcrps(f, y, CensorAbove(t)).value == pytest.approx(
        twcrps(g, -y, CensorBelow(-t)).value, abs=1e-12
    )
    assert owcrps(f, y, IndicatorAbove(t)).value == pytest.approx(
        owcrps(g, -y, IndicatorBelow(-t)).value, abs=1e-12
    )
    assert vrcrps(f, y, IndicatorAbove(t), x0).value == pytest.approx(
        vrcrps(g, -y, IndicatorBelow(-t), -x0).value, abs=1e-12
    )


@_ORACLE_SETTINGS
@given(_normal_case())
def test_vrcrps_normal_anchor_equals_twcrps(case):
    f, y, t, _, above = case
    w, v = (IndicatorAbove(t), CensorAbove(t)) if above else (IndicatorBelow(t), CensorBelow(t))
    assert vrcrps(f, y, w, t).value == pytest.approx(twcrps(f, y, v).value, abs=1e-12)


def test_owcrps_normal_mass_floor_on_both_sides():
    f = Normal(0.0, 1.0)
    with pytest.raises(WeightedMassZero, match="mass above 8.0 "):
        owcrps(f, 9.0, IndicatorAbove(8.0))
    with pytest.raises(WeightedMassZero, match="mass below -8.0 "):
        owcrps(f, -9.0, IndicatorBelow(-8.0))
    # Just inside the floor, where the closed form still has the tail mass.
    assert owcrps(f, 7.1, IndicatorAbove(7.0)).value > 0.0
    assert owcrps(f, -7.1, IndicatorBelow(-7.0)).value > 0.0


@st.composite
def _normal_stack(draw):
    """Normal forecasts, observations, one threshold t and one anchor x0,
    with the weighted tail on a drawn side.

    Each forecast puts t between 3 sds inside and 6.5 sds into its
    weighted tail, so the tail mass stays above the floor.  Returns
    (forecasts, ys, t, x0, above).
    """
    n = draw(st.integers(1, 12))
    t = draw(st.floats(-3.0, 3.0))
    x0 = draw(st.floats(-4.0, 4.0))
    sign = 1.0 if draw(st.booleans()) else -1.0
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)  # noqa: E731
    sd = np.array(draw(floats(0.2, 3.0)))
    mu = t - sign * np.array(draw(floats(-3.0, 6.5))) * sd
    ys = mu + sign * np.array(draw(floats(-4.0, 9.0))) * sd
    forecasts = [Normal(m, s * s) for m, s in zip(mu.tolist(), sd.tolist())]
    return forecasts, ys, t, x0, sign > 0


@_ORACLE_SETTINGS
@given(_normal_stack())
def test_normal_kernels_equal_per_case_functions(case):
    """``_parametric_score`` on one column of normals gives each case the
    value of the per-case function, which calls it with one case, for
    all six scores in either tail."""
    fs, ys, t, x0, above = case
    column = Normal(np.array([f.mean_ for f in fs]), np.array([f.variance_ for f in fs]))
    w, v = (IndicatorAbove(t), CensorAbove(t)) if above else (IndicatorBelow(t), CensorBelow(t))

    def same(score, weight, per_case):
        got = uniscores._parametric_score(score, column, ys, weight, x0)
        # ScoreValue clamps negative roundoff to 0, as archive._checked does.
        got = np.where(got < 0.0, 0.0, got)
        assert got.tolist() == [per_case(f, y).value for f, y in zip(fs, ys.tolist())]

    same("brier", IndicatorAbove(t), lambda f, y: brier(f, y, t))
    for weight, chain in ((Constant(), Identity()), (w, v)):
        same("crps", weight, crps)
        same("twcrps", weight, lambda f, y: twcrps(f, y, chain))
        same("owcrps", weight, lambda f, y: owcrps(f, y, weight))
        same("vrcrps", weight, lambda f, y: vrcrps(f, y, weight, x0))
    if above:
        same("owcrps_bs", w, lambda f, y: owcrps_bs(f, y, t))
    # Exactly +0.0 where w(y) = 0, as the per-case function returns.
    unweighted = uniscores._parametric_score("owcrps", column, ys, w)[w(ys) == 0.0]
    assert (unweighted == 0.0).all() and not np.signbit(unweighted).any()


def test_parametric_score_is_the_only_dispatcher():
    """Only ``_parametric_score`` reaches the normal closed forms, which
    hold their formulas and no shortcut for the unit weight; no second
    dispatcher or Brier score of normals is defined beside it."""
    tree = ast.parse(pathlib.Path(uniscores.__file__).read_text())
    defined = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_normal_score", "_normal_brier"} & set(defined)
    closed = {"_twcrps_normal", "_owcrps_normal", "_vrcrps_normal"}
    callers = {
        name
        for name, node in defined.items()
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and n.id in closed and name not in closed
    }
    assert callers == {"_parametric_score"}
    for name in closed:
        assert "Constant" not in {n.id for n in ast.walk(defined[name]) if isinstance(n, ast.Name)}


# ---------------------------------------------------------------------------
# the tabulated-cdf engine against the closed forms and the quadrature oracles
# ---------------------------------------------------------------------------


def _engine_scores(f, y, w, x0):
    """crps, twcrps, owcrps and vrcrps of one case on the engine's grids,
    whatever the family and weight, as the per-case functions build them."""
    ys = np.array([y])
    grid = _CdfGrid(f, (y, x0, *w.breakpoints()))
    ow = float(w(y)) * _CdfGrid.conditioned(f, w, (y,)).owcrps(ys, w)[0] if w(y) else 0.0
    return {
        "crps": grid.twcrps(ys, Constant())[0],
        "twcrps": grid.twcrps(ys, w)[0],
        "owcrps": ow,
        "vrcrps": grid.vrcrps(ys, w, x0)[0],
    }


@_ORACLE_SETTINGS
@given(_normal_case())
def test_engine_matches_normal_closed_forms(case):
    f, y, t, x0, above = case
    for w in (Constant(), IndicatorAbove(t) if above else IndicatorBelow(t)):
        got = _engine_scores(f, y, w, x0)
        v = canonical_chaining(w)
        want = {
            "crps": crps_normal(f.mean(), f.sd, y).value,
            "twcrps": twcrps(f, y, v).value,
            "owcrps": owcrps(f, y, w).value,
            "vrcrps": vrcrps(f, y, w, x0).value,
        }
        for name in want:
            assert got[name] == pytest.approx(want[name], abs=1e-9), (name, w)


@_ORACLE_SETTINGS
@given(_normal_case(a_min=4.5, a_max=6.5, y_beyond=True))
def test_engine_owcrps_matches_normal_closed_form_deep_in_the_tail(case):
    """The engine conditions on a right tail through the survival
    function and ends its grid where S(z) / S(t) is negligible, so the
    conditional CRPS keeps its accuracy where the tail mass is 1e-11."""
    f, y, t, _, above = case
    w = IndicatorAbove(t) if above else IndicatorBelow(t)
    got = _CdfGrid.conditioned(f, w, (y,)).owcrps(np.array([y]), w)[0]
    assert got == pytest.approx(owcrps(f, y, w).value, abs=1e-9)


def test_grid_integral_in_point_blocks_equals_each_point_alone():
    """The integral evaluates its points ``_POINTS`` at a time; over
    several blocks each point gets, bit for bit, the value it gets
    alone: draws, nodes, knots and points beyond the grid."""
    f = StudentT(5.0, 0.3, 1.2)
    knots = (-1.0, 0.5, 2.0)
    grid = _CdfGrid(f, knots)
    g = grid.F * (1.0 - grid.F)
    draws = f.sample(2 * uniscores._POINTS + 100, np.random.default_rng(3))
    p = np.concatenate([draws, grid.z[::97], knots, [-1e9, 1e9]])
    alone = np.array([grid.integral(g, q) for q in p])
    assert np.array_equal(grid.integral(g, p), alone)
    assert np.array_equal(grid.integral(g, grid.z)[::97], grid.integral(g, grid.z[::97]))


_ORACLE_WEIGHTS = (
    Constant(),
    GaussPdf(0.4, 0.9),
    OneMinusGaussPdfRatio(0.4, 0.9),
    GaussCdf(0.4, 0.9),
    OneMinusGaussCdf(0.4, 0.9),
    IndicatorAbove(0.4),
    IndicatorBelow(0.4),
)


@pytest.mark.parametrize("w", _ORACLE_WEIGHTS, ids=lambda w: type(w).__name__)
@pytest.mark.parametrize(
    "f", (Logistic(0.2, 0.6), StudentT.from_moments(5.0, -0.1, 1.3)), ids=("logistic", "t5")
)
def test_per_case_engine_matches_quadrature_oracles(f, w):
    """Families without a closed form go through the engine, one grid per
    case with y, x0 and the weight's breakpoints as knots."""
    y, x0 = 1.1, 0.1
    if isinstance(w, Constant):
        assert crps(f, y).value == pytest.approx(_crps_numeric_parametric(f, y), abs=1e-6)
    v = canonical_chaining(w)
    assert twcrps(f, y, v).value == pytest.approx(_twcrps_parametric(f, y, v), abs=1e-6)
    assert vrcrps(f, y, w, x0).value == pytest.approx(_vrcrps_parametric(f, y, w, x0), abs=1e-6)


def _crps_logistic(f, y):
    # Jordan, Krueger & Lerch (2019): s (z - 2 log F(z) - 1), z = (y - mu) / s.
    z = (y - f.location) / f.scale
    return f.scale * (z + 2.0 * np.logaddexp(0.0, -z) - 1.0)


def _crps_student_t(f, y):
    # Jordan, Krueger & Lerch (2019), for df > 1.
    nu, z = f.df, (y - f.location) / f.scale
    b = special.beta(0.5, nu / 2.0)
    tail = 2.0 * np.sqrt(nu) * special.beta(0.5, nu - 0.5) / ((nu - 1.0) * b * b)
    return f.scale * (
        z * (2.0 * stats.t.cdf(z, nu) - 1.0)
        + 2.0 * stats.t.pdf(z, nu) * (nu + z * z) / (nu - 1.0)
        - tail
    )


@pytest.mark.parametrize(
    "f, oracle",
    [
        (Logistic(0.0, 1.0), _crps_logistic),
        (Logistic(25.0, 2.0), _crps_logistic),
        (StudentT(10.0, 1.0, 2.0), _crps_student_t),
        (StudentT(30.0, -3.0, 0.5), _crps_student_t),
    ],
    ids=["logistic", "logistic-25-2", "t10", "t30"],
)
def test_engine_crps_far_from_the_support_matches_closed_forms(f, oracle):
    # A far observation is not a knot: the grid keeps its nodes on the
    # support and the stretch out to y is added in closed form.
    lo, hi = f.support_interval(1e-12)
    ys = [-1e6, -5e4, -5e3, lo - 1.0, -50.0, -3.0, 0.0, 2.5, 40.0, hi + 1.0, 5e3, 5e4, 1e6]
    for y in ys:
        assert crps(f, y).value == pytest.approx(oracle(f, y), rel=1e-9, abs=0.0), y


@pytest.mark.parametrize("w", _ORACLE_WEIGHTS, ids=lambda w: type(w).__name__)
def test_engine_weighted_scores_far_from_the_support(w):
    # Beyond the support F is 0 or 1, so moving a far observation on by
    # dy adds the weight's integral over dy to the twCRPS, and the vrCRPS
    # stays finite and non-negative.
    f = Logistic(0.2, 0.6)
    v = canonical_chaining(w)
    for a, b in ((60.0, 5e4), (-60.0, -5e4)):
        step = twcrps(f, b, v).value - twcrps(f, a, v).value
        assert step == pytest.approx(abs(float(v(b)) - float(v(a))), rel=1e-12, abs=1e-9)
        assert 0.0 <= vrcrps(f, b, w, 0.1).value < np.inf


# Each line: forecast, weight or chaining, score name, score, CRPS.
_INFINITE_THRESHOLD_SCORES = """
import json
import numpy as np
from wverif import crps, owcrps, twcrps, vrcrps
from wverif.forecasts import Logistic, Normal, StudentT
from wverif.weights import CensorAbove, CensorBelow, IndicatorAbove, IndicatorBelow
out = []
for f in (Normal(0.0, 1.0), Logistic(0.0, 1.0), StudentT(5.0, 0.0, 1.0)):
    want = crps(f, 0.5).value
    for w in (IndicatorAbove(-np.inf), IndicatorBelow(np.inf)):
        out += [(repr(f), repr(w), s.__name__, s(f, 0.5, w).value, want) for s in (owcrps, vrcrps)]
    for v in (CensorAbove(-np.inf), CensorBelow(np.inf)):
        out.append((repr(f), repr(v), "twcrps", twcrps(f, 0.5, v).value, want))
f, w = Logistic(0.0, 1.0), IndicatorAbove(-1e300)
out.append((repr(f), repr(w), "owcrps", owcrps(f, 0.5, w).value, crps(f, 0.5).value))
print(json.dumps(out))
"""


def test_an_infinite_indicator_threshold_weighs_every_outcome():
    # Under IndicatorAbove(-inf), IndicatorBelow(inf) and their censoring
    # chainings every outcome has weight one, so each weighted CRPS is the
    # CRPS: to roundoff for the normal and logistic, to the grid error for
    # the t.  In a subprocess with a timeout, because the conditional
    # grid's walk out from an infinite threshold never moves.
    src = pathlib.Path(wverif.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _INFINITE_THRESHOLD_SCORES],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    rows = json.loads(done.stdout)
    assert len(rows) == 19
    for f, w, score, got, want in rows:
        rel = 1e-7 if f.startswith("StudentT") else 1e-11
        assert got == pytest.approx(want, rel=rel, abs=0.0), (f, w, score)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node, [node.module] + [f"{node.module}.{a.name}" for a in node.names]


def test_no_module_of_the_package_imports_scipy_integrate():
    """Scores without a closed form have one integration route, the
    tabulated-cdf engine; quadrature stays in the tests, as an oracle."""
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, names in _imported_modules(tree):
            bad = [n for n in names if n == "scipy.integrate" or n.startswith("scipy.integrate.")]
            assert not bad, f"{path.name}:{node.lineno} imports {bad[0]}"


def test_no_module_of_the_package_imports_scipy_stats():
    """The parametric families are scipy.special arithmetic in forecasts;
    scipy.stats stays in the tests, as an oracle."""
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, names in _imported_modules(tree):
            bad = [n for n in names if n == "scipy.stats" or n.startswith("scipy.stats.")]
            assert not bad, f"{path.name}:{node.lineno} imports {bad[0]}"


def test_only_calibration_imports_scipy_optimize():
    """EMOS fits by damped Newton steps on a closed-form Hessian; the
    isotonic regression of the CORP diagram is the one optimizer left."""
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        if path.name == "calibration.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, names in _imported_modules(tree):
            bad = [n for n in names if n == "scipy.optimize" or n.startswith("scipy.optimize.")]
            assert not bad, f"{path.name}:{node.lineno} imports {bad[0]}"



def _outside_functions(node):
    """The nodes under ``node`` that run when the module is imported: all
    but those inside a function body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_scipy_stats_and_optimize_are_imported_only_inside_functions():
    """Importing the package loads neither: scipy.optimize serves the
    CORP fit and is imported where it is used; no module imports
    scipy.stats at all."""
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        at_import = {id(n) for n in _outside_functions(tree)}
        for node, names in _imported_modules(tree):
            if id(node) not in at_import:
                continue
            bad = [n for n in names if n in ("scipy.stats", "scipy.optimize")
                   or n.startswith(("scipy.stats.", "scipy.optimize."))]
            assert not bad, f"{path.name}:{node.lineno} imports {bad[0]}"


# ---------------------------------------------------------------------------
# stacked ensemble kernels against pairwise oracles and the per-case API
# ---------------------------------------------------------------------------

_STACK_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def _pairwise_crps(x: np.ndarray, y: float, fair: bool) -> float:
    """Kernel form with the O(m^2) pair sum: mean |x_i - y| -
    sum_ij |x_i - x_j| / (2 m^2), or m (m - 1) with ``fair``."""
    m = x.size
    denom = m * (m - 1) if fair else m * m
    return np.abs(x - y).mean() - np.abs(x[:, None] - x[None, :]).sum() / (2.0 * denom)


def _pairwise_vrcrps(x: np.ndarray, y: float, w, x0: float) -> float:
    """Vertically re-scaled CRPS with the O(m^2) weighted pair sum."""
    m = x.size
    wx = np.asarray(w(x), dtype=float)
    wy = float(w(y))
    term1 = np.mean(np.abs(x - y) * wx) * wy
    pair = (np.abs(x[:, None] - x[None, :]) * wx[:, None] * wx[None, :]).sum()
    term3 = (np.mean(np.abs(x - x0) * wx) - abs(y - x0) * wy) * (np.mean(wx) - wy)
    return term1 - pair / (2.0 * m * m) + term3


def _stacked(score, w, x, y, x0=0.0, fair=False):
    """One score of the stack of members x (n, m) and observations y (n,)
    through the kernel engine, as stacks of one dimension."""
    return kernels._mv_kernel({score: w}, (x0,), None, None, fair)(x[..., None], y[:, None])[score]


@st.composite
def _ensemble_stack(draw):
    """Members (n, m) and observations (n,) around a common centre, with
    m = 1 and tied members among the cases drawn."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
    centre = draw(st.floats(-50.0, 50.0))
    spread = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = centre + spread * rng.standard_normal((n, m))
    if draw(st.booleans()):
        x = np.round(x / spread) * spread
    y = centre + 1.5 * spread * rng.standard_normal(n)
    t = centre + spread * draw(st.floats(-2.0, 2.0))
    return x, y, t


def _weights(t: float) -> list:
    return [IndicatorAbove(t), IndicatorBelow(t), GaussCdf(t, 1.0), Constant()]


@_STACK_SETTINGS
@given(_ensemble_stack(), st.booleans())
def test_sorted_crps_matches_pairwise_oracle(stack, fair):
    x, y, _ = stack
    if fair and x.shape[1] < 2:
        return
    got = _stacked("crps", None, x, y, fair=fair)
    want = [_pairwise_crps(xi, yi, fair) for xi, yi in zip(x, y)]
    assert_allclose(got, want, rtol=1e-12)


@_STACK_SETTINGS
@given(_ensemble_stack(), st.booleans())
def test_stacked_energy_score_in_1d_equals_crps(stack, fair):
    x, y, _ = stack
    if fair and x.shape[1] < 2:
        return
    got = kernels._mv_kernel({"es": None}, None, None, None, fair)(x[:, :, None], y[:, None])["es"]
    assert np.array_equal(got, _stacked("crps", None, x, y, fair=fair))


@_STACK_SETTINGS
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    st.lists(st.integers(1, 5), min_size=3, max_size=3),
    st.integers(2, 4),
    st.floats(-12.0, 12.0),
)
def test_fair_crps_is_unbiased(support, mass, m, y):
    # Every ensemble of m independent draws from a discrete distribution,
    # with its probability: the expected fair CRPS is the distribution's CRPS.
    s = np.array(support)
    p = np.array(mass[: s.size], dtype=float)
    p /= p.sum()
    draws = np.stack(np.meshgrid(*[np.arange(s.size)] * m, indexing="ij"), -1).reshape(-1, m)
    prob = p[draws].prod(1)
    fair = _stacked("crps", None, s[draws], np.full(len(draws), y), fair=True)
    want = p @ np.abs(s - y) - 0.5 * p @ np.abs(s[:, None] - s[None, :]) @ p
    assert_allclose(prob @ fair, want, rtol=1e-12, atol=1e-12)


@_STACK_SETTINGS
@given(_ensemble_stack())
def test_stacked_vrcrps_matches_pairwise_oracle(stack):
    x, y, t = stack
    for w in _weights(t):
        got = _stacked("vrcrps", w, x, y, t + 0.3)
        want = [_pairwise_vrcrps(xi, yi, w, t + 0.3) for xi, yi in zip(x, y)]
        assert_allclose(got, want, rtol=1e-12, err_msg=repr(w))


@_STACK_SETTINGS
@given(_ensemble_stack())
def test_stacked_ensemble_kernels_equal_per_case_functions(stack):
    """One kernel call on a stack gives, case for case, exactly the value
    of the per-case function."""
    x, y, t = stack
    stacked = {
        "crps": (_stacked("crps", None, x, y), lambda e, yi: crps_ensemble(e, yi)),
        "brier": (uniscores._brier_ensembles(x, y, t), lambda e, yi: brier(e, yi, t)),
    }
    if x.shape[1] > 1:
        stacked["crps_fair"] = (
            _stacked("crps", None, x, y, fair=True),
            lambda e, yi: crps_ensemble(e, yi, fair=True),
        )
    for v in (CensorAbove(t), CensorBelow(t), GaussCdfChain(t, 1.0)):
        stacked[repr(v)] = (
            _stacked("crps", None, v.transform(x), v.transform(y)),
            lambda e, yi, v=v: twcrps(e, yi, v),
        )
    for w in _weights(t):
        stacked["vr" + repr(w)] = (
            _stacked("vrcrps", w, x, y, t),
            lambda e, yi, w=w: vrcrps(e, yi, w, t),
        )
    for name, (values, per_case) in stacked.items():
        got = [ScoreValue(v, name).value for v in values]
        want = [per_case(Ensemble(xi), yi).value for xi, yi in zip(x, y)]
        assert got == want, name


@_STACK_SETTINGS
@given(_ensemble_stack())
def test_ensemble_twcrps_splits_the_crps_at_a_threshold(stack):
    # Censoring above and below t splits the CRPS integral at t.
    x, y, t = stack
    crps_rows = _stacked("crps", None, x, y)
    above = _stacked("twcrps", IndicatorAbove(t), x, y)
    below = _stacked("twcrps", IndicatorBelow(t), x, y)
    assert_allclose(above + below, crps_rows, rtol=1e-12, atol=1e-10)


@_STACK_SETTINGS
@given(_ensemble_stack())
def test_ensemble_vrcrps_at_its_anchor_is_the_censored_twcrps(stack):
    # Under 1{z > t} and anchored at t the vrCRPS is the CRPS of the
    # members and observation censored below at t.
    x, y, t = stack
    w = IndicatorAbove(t)
    vr = _stacked("vrcrps", w, x, y, t)
    tw = _stacked("twcrps", w, x, y)
    assert_allclose(vr, tw, rtol=1e-12, atol=1e-10)


@_STACK_SETTINGS
@given(_ensemble_stack(), st.booleans())
def test_per_case_scores_equal_rows_of_the_ensemble_kernel(stack, fair):
    """Each per-case function gives, bit for bit, its case's row of one
    call of the kernel engine on the stack."""
    x, y, t = stack
    if fair and x.shape[1] < 2:
        with pytest.raises(ContractViolation):
            crps_ensemble(Ensemble(x[0]), y[0], fair=True)
        return
    stacked = {
        "crps": (_stacked("crps", None, x, y, fair=fair), lambda e, yi: crps_ensemble(e, yi, fair)),
        "brier": (uniscores._brier_ensembles(x, y, t), lambda e, yi: brier(e, yi, t)),
    }
    if not fair:
        stacked["crps_dispatch"] = (_stacked("crps", None, x, y), crps)
    for w in _weights(t):
        v = canonical_chaining(w)
        stacked["tw" + repr(w)] = (
            _stacked("twcrps", w, x, y, fair=fair),
            lambda e, yi, v=v: twcrps(e, yi, v, fair=fair),
        )
        stacked["vr" + repr(w)] = (
            _stacked("vrcrps", w, x, y, t + 0.3),
            lambda e, yi, w=w: vrcrps(e, yi, w, t + 0.3),
        )
    for name, (values, per_case) in stacked.items():
        got = [ScoreValue(v, name).value for v in values]
        want = [per_case(Ensemble(xi), yi).value for xi, yi in zip(x, y)]
        assert got == want, name


def test_ensemble_kernel_and_per_case_refusals():
    ens = Ensemble(np.array([0.0, 1.0]))
    with pytest.raises(wverif.UnsupportedInput, match="raw ensembles"):
        owcrps(ens, 0.5, IndicatorAbove(0.0))
    with pytest.raises(wverif.UnsupportedInput, match="raw ensembles"):
        owcrps_bs(ens, 0.5, 0.0)
    with pytest.raises(ContractViolation, match="ensembles only"):
        twcrps(Normal(0.0, 1.0), 0.5, CensorAbove(0.0), fair=True)
    with pytest.raises(ContractViolation, match="ensemble or parametric"):
        crps(np.array([0.0, 1.0]), 0.5)


# ---------------------------------------------------------------------------
# Student t scores whose integral diverges
# ---------------------------------------------------------------------------

# Every univariate weight that does not vanish in both tails.
_TAIL_WEIGHTS = [
    Constant(),
    IndicatorAbove(1.0),
    IndicatorBelow(1.0),
    GaussCdf(1.0, 1.0),
    OneMinusGaussCdf(1.0, 1.0),
    OneMinusGaussPdfRatio(1.0, 1.0),
]


def _t_score(score, f, w):
    """One weighted score of ``f`` at an observation that ``w`` weights."""
    if score == "crps":
        return crps(f, 0.5)
    if score == "twcrps":
        return twcrps(f, 0.5, canonical_chaining(w))
    if score == "owcrps":
        return owcrps(f, 2.0 if w(2.0) > 0.0 else 0.0, w)
    if score == "owcrps_bs":
        return owcrps_bs(f, 2.0, w.t)
    return vrcrps(f, 0.5, w)


_DIVERGENT = (
    [("crps", Constant()), ("owcrps_bs", IndicatorAbove(1.0))]
    + [(s, w) for s in ("twcrps", "owcrps", "vrcrps") for w in _TAIL_WEIGHTS]
)


@pytest.mark.parametrize("score, w", _DIVERGENT, ids=[f"{s}-{w!r}" for s, w in _DIVERGENT])
def test_divergent_student_t_scores_are_refused(score, w):
    """The CRPS integrand of t_df decays as |z|^(-2 df) in a tail the
    weight keeps, and E|X - x0| w(X) as |z|^(-df): the CRPS and its tw
    and ow forms need df > 1/2, the vrCRPS df > 1."""
    least = 1.0 if score == "vrcrps" else 0.5
    for df in (0.4, 0.5, 0.9, 1.0):
        f = StudentT(df, 0.0, 1.0)
        if df <= least:
            with pytest.raises(wverif.UnsupportedInput, match="diverges"):
                _t_score(score, f, w)
            with pytest.raises(wverif.UnsupportedInput, match="diverges"):
                uniscores._parametric_score(score, f, np.array([-3.0, 0.5, 2.0]), w, 0.3)


def test_crps_numeric_refuses_a_divergent_student_t():
    """crps_numeric integrates on a grid of its own, and refuses the
    Student t whose CRPS diverges, as crps does."""
    for df in (0.4, 0.5):
        with pytest.raises(wverif.UnsupportedInput, match="diverges"):
            crps_numeric(StudentT(df, 0.0, 1.0), 0.5)
    assert np.isfinite(crps_numeric(StudentT(0.75, 0.0, 1.0), 0.5).value)


def test_convergent_student_t_scores_are_not_refused():
    """The Brier score, and every score under the Gaussian pdf weight,
    which vanishes in both tails, are finite for any df."""
    f = StudentT(0.4, 0.0, 1.0)
    assert 0.0 <= brier(f, 0.5, 1.0).value <= 1.0
    w = GaussPdf(1.0, 1.0)
    for score in ("twcrps", "owcrps", "vrcrps"):
        assert np.isfinite(_t_score(score, f, w).value), score
    assert np.isfinite(crps(StudentT(0.75, 0.0, 1.0), 0.5).value)
    assert np.isfinite(vrcrps(StudentT(1.5, 0.0, 1.0), 0.5, IndicatorAbove(1.0)).value)


def test_per_case_scores_refuse_a_column_of_forecasts():
    """The closed forms broadcast, so a per-case score of a column of
    forecasts would be its first forecast's score: every per-case score
    refuses array parameters."""
    columns = (
        Normal(np.array([0.0, 1.0, 2.0]), 1.0),
        Logistic(0.0, np.ones(2)),
        StudentT(np.full(2, 5.0), 0.0, 1.0),
    )
    for f in columns:
        calls = (
            lambda: crps(f, 0.5),
            lambda: brier(f, 0.5, 1.0),
            lambda: twcrps(f, 0.5, CensorAbove(1.0)),
            lambda: owcrps(f, 1.5, IndicatorAbove(1.0)),
            lambda: owcrps_bs(f, 1.5, 1.0),
            lambda: vrcrps(f, 0.5, IndicatorAbove(1.0)),
        )
        for call in calls:
            with pytest.raises(ContractViolation, match="one forecast"):
                call()


def test_no_module_imports_a_package_module_inside_a_function():
    """Imports between the package's modules sit at module top, where
    the import graph shows them; only scipy is imported late, to spare
    the commands that do not use it its load time."""
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        at_import = {id(n) for n in _outside_functions(tree)}
        for node in ast.walk(tree):
            if id(node) in at_import or not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom):
                package = node.level > 0 or (node.module or "").split(".")[0] == "wverif"
            else:
                package = any(a.name.split(".")[0] == "wverif" for a in node.names)
            assert not package, f"{path.name}:{node.lineno} imports a package module in a function"


# Imports marked ``# noqa: F401``: the per-case functions that perfbench's
# tracer wraps in archive and cli, which those modules do not call.
_TRACED_IMPORTS = {
    "archive": {
        "energy_score", "ow_energy_score", "tw_energy_score", "tw_variogram_score",
        "variogram_score", "vr_energy_score", "vr_variogram_score", "smooth_ensemble",
        "brier", "crps", "owcrps", "owcrps_bs", "twcrps", "vrcrps",
    },
    "cli": {"cpit", "pit", "rank", "ecc_reorder", "fit_emos", "predict_emos", "smooth_ensemble"},
}


def test_every_imported_name_is_used_or_exported():
    """Each name a module of the package imports is used in it, listed in
    its ``__all__``, or on an import marked ``# noqa: F401``, and those
    are exactly the names bound for the tracer."""
    marked = {}
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
            if "# noqa: F401" in lines[node.lineno - 1]:
                marked.setdefault(path.stem, set()).update(names)
            else:
                unused = names - used - exported
                assert not unused, f"{path.name}:{node.lineno} imports {sorted(unused)} unused"
    assert marked == _TRACED_IMPORTS


def test_cli_runs_postprocess_only_through_its_public_functions():
    """cli imports no private name of postprocess, and no ``_blocks``:
    the post-processing stages are postprocess's column functions.  The
    row keys and blocks are defined once, in grouping, and no module
    binds ``_STACK``: the kernels bound their own memory, so callers
    pass whole member-count groups."""
    defined, stack = {}, []
    for path in sorted(pathlib.Path(wverif.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in ("_key_codes", "_blocks"):
                defined.setdefault(node.name, []).append(path.stem)
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                stack += [path.stem] if "_STACK" in names else []
                if path.stem == "cli":
                    private = {n for n in names if n.startswith("_")}
                    module = (node.module or "").split(".")[-1]
                    assert not (module == "postprocess" and private), f"cli imports {sorted(private)}"
                    assert "_blocks" not in names, f"cli imports _blocks from {module}"
            elif isinstance(node, ast.Assign):
                stack += [path.stem for t in node.targets if getattr(t, "id", None) == "_STACK"]
    assert defined == {"_key_codes": ["grouping"], "_blocks": ["grouping"]}
    assert stack == []
