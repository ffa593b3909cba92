"""Adaptive-quadrature oracles for the univariate weighted scores.

Each routine integrates the integral form of a score (Gneiting & Ranjan
2011) with ``scipy.integrate.quad`` on the forecast's 1e-12 quantile
range, split at the observation and at the weight's breakpoints.  They
are the reference that the closed forms and the tabulated-cdf engine of
``wverif.uniscores`` are checked against; the package itself does not
use them.
"""

import numpy as np
from scipy import integrate

from wverif import IndicatorAbove, WeightedMassZero
from wverif.forecasts import Parametric
from wverif.weights import MASS_FLOOR, ChainingFunction, IndicatorBelow, WeightFunction

_QUAD_OPTS = dict(limit=300, epsabs=1e-11, epsrel=1e-10)


def _bounds(forecast: Parametric, *extra: float) -> tuple[float, float]:
    lo, hi = forecast.support_interval()
    pts = [p for p in extra if np.isfinite(p)]
    if pts:
        lo = min(lo, min(pts) - 1.0)
        hi = max(hi, max(pts) + 1.0)
    return lo, hi


def _frozen(forecast: Parametric):
    """What the oracles call ``cdf`` and ``pdf`` on: for a forecast whose
    ``cdf`` is its frozen scipy distribution's (t, logistic), that
    distribution, built once rather than on every call that quad makes;
    the forecast itself otherwise (a normal forecast has its own ``ndtr``
    expressions).  Either gives the values of the forecast's own methods.
    """
    return forecast._dist if type(forecast).cdf is Parametric.cdf else forecast


def _crps_numeric_parametric(forecast: Parametric, y: float) -> float:
    lo, hi = _bounds(forecast, y)
    forecast = _frozen(forecast)
    left, _ = integrate.quad(lambda z: forecast.cdf(z) ** 2, lo, y, **_QUAD_OPTS)
    right, _ = integrate.quad(lambda z: (forecast.cdf(z) - 1.0) ** 2, y, hi, **_QUAD_OPTS)
    return left + right


def _twcrps_parametric(forecast: Parametric, y: float, v: ChainingFunction) -> float:
    w = v.weight()
    bps = [float(b) for b in w.breakpoints()]
    lo, hi = _bounds(forecast, y, *bps)
    knots = sorted({lo, hi, y, *[b for b in bps if lo < b < hi]})
    forecast = _frozen(forecast)

    def integrand(z):
        ind = 1.0 if y <= z else 0.0
        return (forecast.cdf(z) - ind) ** 2 * w(z)

    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        part, _ = integrate.quad(integrand, a, b, **_QUAD_OPTS)
        total += part
    return total


def _owcrps_indicator_above(forecast: Parametric, y: float, t: float) -> float:
    denom = 1.0 - float(forecast.cdf(t))
    if denom <= MASS_FLOOR:
        raise WeightedMassZero(
            f"forecast mass above {t} is {denom:.3e}, below the floor"
        )
    ft = float(forecast.cdf(t))
    _, hi = _bounds(forecast, y, t)
    forecast = _frozen(forecast)

    def fw(z):
        return np.clip((forecast.cdf(z) - ft) / denom, 0.0, 1.0)

    left, _ = integrate.quad(lambda z: fw(z) ** 2, t, y, **_QUAD_OPTS)
    right, _ = integrate.quad(lambda z: (fw(z) - 1.0) ** 2, y, hi, **_QUAD_OPTS)
    return left + right


def _owcrps_indicator_below(forecast: Parametric, y: float, t: float) -> float:
    denom = float(forecast.cdf(t))
    if denom <= MASS_FLOOR:
        raise WeightedMassZero(
            f"forecast mass below {t} is {denom:.3e}, below the floor"
        )
    lo, _ = _bounds(forecast, y, t)
    forecast = _frozen(forecast)

    def fw(z):
        return np.clip(forecast.cdf(z) / denom, 0.0, 1.0)

    left, _ = integrate.quad(lambda z: fw(z) ** 2, lo, y, **_QUAD_OPTS)
    right, _ = integrate.quad(lambda z: (fw(z) - 1.0) ** 2, y, t, **_QUAD_OPTS)
    return left + right


def _vrcrps_parametric(forecast: Parametric, y: float, w: WeightFunction, x0: float) -> float:
    bps = [float(b) for b in w.breakpoints()]
    lo, hi = _bounds(forecast, y, x0, *bps)
    forecast = _frozen(forecast)

    def q(fn, *split):
        knots = sorted({lo, hi, *[s for s in split if lo < s < hi]})
        total = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            part, _ = integrate.quad(fn, a, b, **_QUAD_OPTS)
            total += part
        return total

    wy = float(w(y))
    mean_w = q(lambda z: w(z) * forecast.pdf(z), *bps)
    mean_dist_y = q(lambda z: abs(z - y) * w(z) * forecast.pdf(z), y, *bps)
    mean_dist_x0 = q(lambda z: abs(z - x0) * w(z) * forecast.pdf(z), x0, *bps)

    # E|X - X'| w(X) w(X') via one cumulative pass:
    # 2 * integral of w f(x) * (x W(x) - M(x)) dx with W, M the cumulative
    # weighted mass and first moment.
    pieces = []
    knots = sorted({lo, hi, *[b for b in bps if lo < b < hi]})
    for a, b in zip(knots[:-1], knots[1:]):
        if b > a:
            pieces.append(np.linspace(a, b, 8193))
    z = np.unique(np.concatenate(pieces))
    if isinstance(w, (IndicatorAbove, IndicatorBelow)):
        # Sampling an indicator on the grid would put a node right on
        # the jump and bias the cumulative sums by half a step.  On the
        # active side of the threshold the weight is one, so the
        # cumulative mass comes straight from the cdf and the first
        # moment from a smooth integrand.
        mask = z >= w.t if isinstance(w, IndicatorAbove) else z <= w.t
        zs = z[mask]
        fs = np.asarray(forecast.pdf(zs), dtype=float)
        wcum = np.asarray(forecast.cdf(zs), dtype=float) - float(
            forecast.cdf(zs[0])
        )
        mcum = integrate.cumulative_simpson(zs * fs, x=zs, initial=0.0)
        pair = 2.0 * integrate.simpson(fs * (zs * wcum - mcum), x=zs)
    else:
        g = np.asarray(w(z), dtype=float) * forecast.pdf(z)
        wcum = integrate.cumulative_simpson(g, x=z, initial=0.0)
        mcum = integrate.cumulative_simpson(z * g, x=z, initial=0.0)
        pair = 2.0 * integrate.simpson(g * (z * wcum - mcum), x=z)

    term1 = mean_dist_y * wy
    term3 = (mean_dist_x0 - abs(y - x0) * wy) * (mean_w - wy)
    return float(term1 - 0.5 * pair + term3)
