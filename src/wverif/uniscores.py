"""Univariate proper scoring rules and their weighted variants.

Ensemble forecasts are scored with exact kernel sums.  Normal forecasts
are scored in closed form under the unit, censoring and indicator
weights: the CRPS, the censored-normal twCRPS, the truncated-normal
owCRPS and the indicator-weight vrCRPS, all from ``scipy.special.ndtr``
without frozen scipy objects.  Other parametric forecasts and other
weights are scored by adaptive quadrature of the integral forms, with
the quadrature domain truncated where the forecast carries essentially
no mass; those routines also serve as the oracles for the closed forms.
Every public scoring function returns a ``ScoreValue``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .exceptions import (
    ContractViolation,
    NumericalError,
    UnsupportedInput,
    WeightedMassZero,
)
from .forecasts import Ensemble, Forecast, Normal, Parametric, _std_pdf
from .weights import (
    MASS_FLOOR,
    CensorAbove,
    ChainingFunction,
    Constant,
    IndicatorAbove,
    IndicatorBelow,
    WeightFunction,
)

__all__ = [
    "ScoreValue",
    "brier",
    "crps",
    "crps_ensemble",
    "crps_normal",
    "normal_crps_values",
    "crps_numeric",
    "twcrps",
    "owcrps",
    "owcrps_bs",
    "vrcrps",
    "twcrps_decomposition_check",
]

_QUAD_OPTS = dict(limit=300, epsabs=1e-11, epsrel=1e-10)

# Scores are non-negative in exact arithmetic; anything more negative
# than this signals a genuine defect rather than roundoff.
_NEGATIVE_TOL = 1e-8


@dataclass(frozen=True)
class ScoreValue:
    """A realised score plus the context that produced it.

    Attributes
    ----------
    value : float
        The score, always finite and non-negative.
    score_name : str
        Which rule produced it.
    params : dict
        Rule parameters (thresholds, weight description, method).
    """

    value: float
    score_name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v):
            raise NumericalError(f"{self.score_name} produced a non-finite value")
        if v < 0.0:
            if v < -_NEGATIVE_TOL:
                raise NumericalError(
                    f"{self.score_name} produced {v}, more negative than roundoff"
                )
            v = 0.0
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def _as_members(forecast) -> np.ndarray:
    if isinstance(forecast, Ensemble):
        return forecast.members
    return Ensemble(np.asarray(forecast, dtype=float)).members


def _check_scalar(y, name="y") -> float:
    y = float(y)
    if not np.isfinite(y):
        raise ContractViolation(f"{name} must be finite")
    return y


def _univariate_weight(w) -> WeightFunction:
    if not isinstance(w, WeightFunction) or w.dim != 1:
        raise ContractViolation("this score needs a univariate weight function")
    return w


def _univariate_chaining(v) -> ChainingFunction:
    if not isinstance(v, ChainingFunction) or v.dim != 1:
        raise ContractViolation("this score needs a univariate chaining function")
    return v


# ---------------------------------------------------------------------------
# threshold (Brier) and plain CRPS
# ---------------------------------------------------------------------------


def brier(forecast: Forecast, y: float, t: float) -> ScoreValue:
    """Brier score of the exceedance statement implied by threshold t.

    The forecast probability of the event {Y <= t} is F(t); the score is
    (F(t) - 1{y <= t})^2.
    """
    y = _check_scalar(y)
    t = _check_scalar(t, "t")
    if isinstance(forecast, (Ensemble, Parametric)):
        p = float(forecast.cdf(t))
    else:
        raise ContractViolation("brier needs an ensemble or parametric forecast")
    value = (p - (1.0 if y <= t else 0.0)) ** 2
    return ScoreValue(value, "brier", {"t": t})


def _crps_ensemble_core(x: np.ndarray, y: float, fair: bool) -> float:
    m = x.size
    term1 = np.mean(np.abs(x - y))
    if m == 1:
        spread = 0.0
    else:
        diffs = np.abs(x[:, None] - x[None, :]).sum()
        denom = m * (m - 1) if fair else m * m
        spread = diffs / (2.0 * denom)
    return float(term1 - spread)


def crps_ensemble(forecast, y: float, fair: bool = False) -> ScoreValue:
    """CRPS of an ensemble via the kernel (energy) form.

    mean |x_i - y| - (1 / 2 m^2) sum_ij |x_i - x_j|.  With ``fair`` the
    spread term uses the m (m - 1) denominator instead; that variant
    needs at least two members.
    """
    x = _as_members(forecast)
    y = _check_scalar(y)
    if fair and x.size < 2:
        raise ContractViolation("the fair variant needs at least two members")
    return ScoreValue(_crps_ensemble_core(x, y, fair), "crps", {"fair": fair})


def normal_crps_values(mu, sigma, y):
    """Closed-form normal CRPS, vectorised over numpy arrays.

    Returns plain floats/arrays; used by the post-processing fit and the
    synthetic experiment batch paths.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(sigma <= 0.0):
        raise ContractViolation("sigma must be positive")
    z = (y - mu) / sigma
    out = sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * _std_pdf(z) - 1.0 / np.sqrt(np.pi))
    return float(out) if out.ndim == 0 else out


def crps_normal(mu: float, sigma: float, y: float) -> ScoreValue:
    """Closed-form CRPS of a normal forecast with sd ``sigma``."""
    mu = _check_scalar(mu, "mu")
    sigma = _check_scalar(sigma, "sigma")
    y = _check_scalar(y)
    return ScoreValue(normal_crps_values(mu, sigma, y), "crps", {"method": "closed_form"})


# ---------------------------------------------------------------------------
# closed forms for normal forecasts
# ---------------------------------------------------------------------------
#
# With U standard normal, Q(u) = P(U > u) = ndtr(-u).  Tail terms use Q
# rather than 1 - Phi so that they keep their relative accuracy far out,
# where the outcome-weighted score divides by the squared tail mass.
# Weights on the left tail reduce to the right tail by reflecting
# x -> -x, which leaves the CRPS and its weighted variants unchanged.

_NORMAL_WEIGHTS = (Constant, IndicatorAbove, IndicatorBelow)


def _q_integral(u):
    """H(u) = integral of Q over (u, inf) = E(U - u)^+ = phi(u) - u Q(u)."""
    return _std_pdf(u) - u * ndtr(-u)


def _q2_integral(u):
    """K(u) = integral of Q^2 over (u, inf).

    K(u) = G(-u) with G(x) = x Phi(x)^2 + 2 phi(x) Phi(x) - Phi(sqrt(2) x) / sqrt(pi),
    the antiderivative of Phi^2 that vanishes at -inf.
    """
    q = ndtr(-u)
    return -u * q * q + 2.0 * _std_pdf(u) * q - ndtr(-np.sqrt(2.0) * u) / np.sqrt(np.pi)


def _standardise(forecast: Normal, w: WeightFunction, *xs: float) -> list:
    # (x - mu) / sigma for each x, negated when w weights the left tail.
    sign = -1.0 if isinstance(w, IndicatorBelow) else 1.0
    return [sign * (x - forecast.mean_) / forecast.sd for x in xs]


def _twcrps_normal(forecast: Normal, y: float, w: WeightFunction) -> float:
    # sigma times the integral of (Phi(u) - 1{z <= u})^2 over (a, inf):
    # with m = max(z, a) that is G(m) - G(a) + K(m) = K(-m) - K(-a) + K(m).
    if isinstance(w, Constant):
        return normal_crps_values(forecast.mean_, forecast.sd, y)
    z, a = _standardise(forecast, w, y, w.t)
    m = max(z, a)
    return float(forecast.sd * (_q2_integral(-m) - _q2_integral(-a) + _q2_integral(m)))


def _owcrps_normal(forecast: Normal, y: float, w: WeightFunction) -> float:
    # CRPS at z > a of the normal truncated to (a, inf), whose cdf is
    # 1 - Q(u) / p with p = Q(a):
    # (z - a) - 2 (H(a) - H(z)) / p + K(a) / p^2, times sigma.
    if isinstance(w, Constant):
        return normal_crps_values(forecast.mean_, forecast.sd, y)
    z, a = _standardise(forecast, w, y, w.t)
    p = ndtr(-a)
    if p <= MASS_FLOOR:
        side = "above" if isinstance(w, IndicatorAbove) else "below"
        raise WeightedMassZero(
            f"forecast mass {side} {w.t} is {p:.3e}, below the floor"
        )
    h = _q_integral(a) - _q_integral(z)
    return float(forecast.sd * ((z - a) - 2.0 * h / p + _q2_integral(a) / (p * p)))


def _vrcrps_normal(forecast: Normal, y: float, w: WeightFunction, x0: float) -> float:
    # The three expectations of the vrCRPS for w = 1{U > a}, standardised:
    # the tail mass p = Q(a), the partial moment E|U - c| 1{U > a} and
    # E|U - U'| 1{U > a} 1{U' > a} = 2 (p H(a) - K(a)).
    if isinstance(w, Constant):
        return normal_crps_values(forecast.mean_, forecast.sd, y)
    wy = float(w(y))
    sd = forecast.sd
    z, a, c = _standardise(forecast, w, y, w.t, x0)
    p = ndtr(-a)
    ha = _q_integral(a)

    def partial(u):
        # |U - u| = (U - u) + 2 (u - U)^+, integrated over U > a.
        b = max(a, u)
        return 2.0 * _q_integral(b) - ha + (2.0 * b - a - u) * p

    pair = 2.0 * (p * ha - _q2_integral(a))
    term1 = sd * partial(z) * wy
    term3 = (sd * partial(c) - abs(y - x0) * wy) * (p - wy)
    return float(term1 - 0.5 * sd * pair + term3)


def _bounds(forecast: Parametric, *extra: float) -> tuple[float, float]:
    lo, hi = forecast.support_interval()
    pts = [p for p in extra if np.isfinite(p)]
    if pts:
        lo = min(lo, min(pts) - 1.0)
        hi = max(hi, max(pts) + 1.0)
    return lo, hi


def _crps_numeric_parametric(forecast: Parametric, y: float) -> float:
    lo, hi = _bounds(forecast, y)
    left, _ = integrate.quad(lambda z: forecast.cdf(z) ** 2, lo, y, **_QUAD_OPTS)
    right, _ = integrate.quad(lambda z: (forecast.cdf(z) - 1.0) ** 2, y, hi, **_QUAD_OPTS)
    return left + right


def _crps_numeric_ensemble(x: np.ndarray, y: float) -> float:
    # Exact integral of (F_ens(z) - 1{y <= z})^2: the integrand is a step
    # function, so sum it over the segments between consecutive knots.
    xs = np.sort(x)
    nodes = np.unique(np.concatenate([xs, [y]]))
    if nodes.size == 1:
        return 0.0
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    cdf = np.searchsorted(xs, mid, side="right") / xs.size
    ind = (mid >= y).astype(float)
    return float(np.sum((cdf - ind) ** 2 * (b - a)))


def crps_numeric(forecast: Forecast, y: float) -> ScoreValue:
    """CRPS by direct integration of (F(z) - 1{y <= z})^2.

    Parametric forecasts use adaptive quadrature on a truncated domain;
    ensembles use the exact piecewise integral of the empirical cdf.
    This is the reference route the closed forms are checked against.
    """
    y = _check_scalar(y)
    if isinstance(forecast, Ensemble):
        value = _crps_numeric_ensemble(forecast.members, y)
    elif isinstance(forecast, Parametric):
        value = _crps_numeric_parametric(forecast, y)
    else:
        raise ContractViolation("crps_numeric needs an ensemble or parametric forecast")
    return ScoreValue(value, "crps", {"method": "numeric"})


def crps(forecast: Forecast, y: float) -> ScoreValue:
    """CRPS with representation-appropriate dispatch.

    Ensembles use the kernel form, normal forecasts the closed form,
    other parametric forecasts quadrature.
    """
    if isinstance(forecast, Ensemble):
        return crps_ensemble(forecast, y)
    if isinstance(forecast, Normal):
        return crps_normal(forecast.mean(), forecast.sd, y)
    return crps_numeric(forecast, y)


# ---------------------------------------------------------------------------
# threshold-weighted CRPS
# ---------------------------------------------------------------------------


def _twcrps_parametric(forecast: Parametric, y: float, v: ChainingFunction) -> float:
    w = v.weight()
    bps = [float(b) for b in w.breakpoints()]
    lo, hi = _bounds(forecast, y, *bps)
    knots = sorted({lo, hi, y, *[b for b in bps if lo < b < hi]})

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


def twcrps(forecast: Forecast, y: float, chaining: ChainingFunction, fair: bool = False) -> ScoreValue:
    """Threshold-weighted CRPS under a chaining function.

    Ensembles are scored as the plain CRPS of the transformed members
    against the transformed observation.  Parametric forecasts integrate
    (F(z) - 1{y <= z})^2 against the weight that the chaining function
    integrates.
    """
    v = _univariate_chaining(chaining)
    y = _check_scalar(y)
    params = {"chaining": repr(v), "fair": fair}
    if isinstance(forecast, Ensemble):
        tx = np.asarray(v.transform(forecast.members), dtype=float)
        ty = float(v.transform(y))
        if fair and tx.size < 2:
            raise ContractViolation("the fair variant needs at least two members")
        return ScoreValue(_crps_ensemble_core(tx, ty, fair), "twcrps", params)
    if isinstance(forecast, Parametric):
        if fair:
            raise ContractViolation("the fair variant applies to ensembles only")
        w = v.weight()
        if isinstance(forecast, Normal) and isinstance(w, _NORMAL_WEIGHTS):
            value = _twcrps_normal(forecast, y, w)
        else:
            value = _twcrps_parametric(forecast, y, v)
        return ScoreValue(value, "twcrps", params)
    raise ContractViolation("twcrps needs an ensemble or parametric forecast")


# ---------------------------------------------------------------------------
# outcome-weighted CRPS
# ---------------------------------------------------------------------------


def _owcrps_indicator_above(forecast: Parametric, y: float, t: float) -> float:
    denom = 1.0 - float(forecast.cdf(t))
    if denom <= MASS_FLOOR:
        raise WeightedMassZero(
            f"forecast mass above {t} is {denom:.3e}, below the floor"
        )
    ft = float(forecast.cdf(t))
    _, hi = _bounds(forecast, y, t)

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

    def fw(z):
        return np.clip(forecast.cdf(z) / denom, 0.0, 1.0)

    left, _ = integrate.quad(lambda z: fw(z) ** 2, lo, y, **_QUAD_OPTS)
    right, _ = integrate.quad(lambda z: (fw(z) - 1.0) ** 2, y, t, **_QUAD_OPTS)
    return left + right


def _owcrps_generic(forecast: Parametric, y: float, w: WeightFunction) -> float:
    # Conditional cdf on a fine grid, then piecewise Simpson integration
    # of the squared deviation.  Breakpoints and y become grid knots.
    bps = [float(b) for b in w.breakpoints()]
    lo, hi = _bounds(forecast, y, *bps)
    knots = sorted({lo, hi, y, *[b for b in bps if lo < b < hi]})
    pieces = []
    for a, b in zip(knots[:-1], knots[1:]):
        if b > a:
            pieces.append(np.linspace(a, b, 4097))
    z = np.unique(np.concatenate(pieces))
    g = np.asarray(w(z), dtype=float) * forecast.pdf(z)
    wcum = integrate.cumulative_simpson(g, x=z, initial=0.0)
    total = float(wcum[-1])
    if total <= MASS_FLOOR:
        raise WeightedMassZero(f"weighted forecast mass is {total:.3e}, below the floor")
    fw = np.clip(wcum / total, 0.0, 1.0)
    ind = (z >= y).astype(float)
    sq = (fw - ind) ** 2
    iy = int(np.searchsorted(z, y))
    left = integrate.simpson(sq[: iy + 1], x=z[: iy + 1]) if iy > 0 else 0.0
    right = integrate.simpson(sq[iy:], x=z[iy:]) if iy < z.size - 1 else 0.0
    return float(left + right)


def owcrps(forecast: Forecast, y: float, w: WeightFunction) -> ScoreValue:
    """Outcome-weighted CRPS: w(y) times the CRPS of the reweighted forecast.

    Zero whenever w(y) = 0, without forming the conditional forecast.
    Raw ensembles are refused because reweighting a small sample throws
    away almost all of it; smooth the ensemble first.
    """
    w = _univariate_weight(w)
    y = _check_scalar(y)
    params = {"weight": repr(w)}
    if isinstance(forecast, Ensemble):
        raise UnsupportedInput(
            "outcome-weighted scores are not defined on raw ensembles here; "
            "fit a smooth forecast with postprocess.smooth_ensemble first"
        )
    if not isinstance(forecast, Parametric):
        raise ContractViolation("owcrps needs a parametric forecast")
    wy = float(w(y))
    if wy == 0.0:
        return ScoreValue(0.0, "owcrps", params)
    if isinstance(forecast, Normal) and isinstance(w, _NORMAL_WEIGHTS):
        value = _owcrps_normal(forecast, y, w)
    elif isinstance(w, Constant):
        value = _crps_numeric_parametric(forecast, y)
    elif isinstance(w, IndicatorAbove):
        value = _owcrps_indicator_above(forecast, y, w.t)
    elif isinstance(w, IndicatorBelow):
        value = _owcrps_indicator_below(forecast, y, w.t)
    else:
        value = _owcrps_generic(forecast, y, w)
    return ScoreValue(wy * value, "owcrps", params)


def owcrps_bs(forecast: Forecast, y: float, t: float) -> ScoreValue:
    """Outcome-weighted CRPS complemented with the Brier score.

    The conditional CRPS beyond t only judges predicted severity, never
    the predicted probability of exceedance, and on its own it can be
    gamed by denying the event outright.  Adding the Brier score of the
    threshold event at every outcome restores propriety: the score is
    1{y > t} CRPS(F conditioned beyond t, y) + (F(t) - 1{y <= t})^2.
    For y <= t the first term vanishes and the score is exactly the
    Brier score.
    """
    y = _check_scalar(y)
    t = _check_scalar(t, "t")
    params = {"t": t}
    value = brier(forecast, y, t).value
    if y > t:
        value += owcrps(forecast, y, IndicatorAbove(t)).value
    return ScoreValue(value, "owcrps_bs", params)


# ---------------------------------------------------------------------------
# vertically re-scaled CRPS
# ---------------------------------------------------------------------------


def _vrcrps_ensemble(x: np.ndarray, y: float, w: WeightFunction, x0: float) -> float:
    m = x.size
    wx = np.asarray(w(x), dtype=float)
    wy = float(w(y))
    term1 = np.mean(np.abs(x - y) * wx) * wy
    pair = np.abs(x[:, None] - x[None, :]) * wx[:, None] * wx[None, :]
    term2 = pair.sum() / (2.0 * m * m)
    mean_dist = np.mean(np.abs(x - x0) * wx)
    term3 = (mean_dist - abs(y - x0) * wy) * (np.mean(wx) - wy)
    return float(term1 - term2 + term3)


def _vrcrps_parametric(forecast: Parametric, y: float, w: WeightFunction, x0: float) -> float:
    bps = [float(b) for b in w.breakpoints()]
    lo, hi = _bounds(forecast, y, x0, *bps)

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


def vrcrps(forecast: Forecast, y: float, w: WeightFunction, x0: float = 0.0) -> ScoreValue:
    """Vertically re-scaled CRPS with centre point ``x0``.

    The kernel terms are damped by the weight at each argument, and a
    correction anchored at ``x0`` keeps the rule proper.
    """
    w = _univariate_weight(w)
    y = _check_scalar(y)
    x0 = _check_scalar(x0, "x0")
    params = {"weight": repr(w), "x0": x0}
    if isinstance(forecast, Ensemble):
        value = _vrcrps_ensemble(forecast.members, y, w, x0)
    elif isinstance(forecast, Normal) and isinstance(w, _NORMAL_WEIGHTS):
        value = _vrcrps_normal(forecast, y, w, x0)
    elif isinstance(forecast, Parametric):
        value = _vrcrps_parametric(forecast, y, w, x0)
    else:
        raise ContractViolation("vrcrps needs an ensemble or parametric forecast")
    return ScoreValue(value, "vrcrps", params)


# ---------------------------------------------------------------------------
# decomposition diagnostic
# ---------------------------------------------------------------------------


def twcrps_decomposition_check(forecast: Parametric, y: float, t: float) -> float:
    """Residual of the tail decomposition of the censored twCRPS.

    The twCRPS with censoring at t splits into a conditional (outcome
    weighted) part scaled by the squared tail mass plus explicit
    boundary terms.  Returns lhs - rhs, which should vanish to
    quadrature accuracy for any continuous parametric forecast.
    """
    if not isinstance(forecast, Parametric):
        raise ContractViolation("the decomposition check needs a parametric forecast")
    y = _check_scalar(y)
    t = _check_scalar(t, "t")
    lhs = twcrps(forecast, y, CensorAbove(t)).value

    ft = float(forecast.cdf(t))
    tail = 1.0 - ft
    if tail <= MASS_FLOOR:
        ow = 0.0
    else:
        ow = owcrps(forecast, y, IndicatorAbove(t)).value
    rhs = tail**2 * ow
    _, hi = _bounds(forecast, y, t)
    if y > t:
        inner, _ = integrate.quad(
            lambda x: forecast.cdf(x) - ft, t, y, **_QUAD_OPTS
        )
        rhs += ft**2 * (y - t) + 2.0 * ft * inner
    else:
        upper, _ = integrate.quad(
            lambda x: (forecast.cdf(x) - 1.0) ** 2, t, hi, **_QUAD_OPTS
        )
        rhs += upper
    return float(lhs - rhs)
