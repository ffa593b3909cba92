"""Univariate proper scoring rules and their weighted variants.

Each forecast kind has one route.  Raw ensembles go through
``kernels._mv_kernel``, the engine of every ensemble kernel score, as
stacks of one dimension, and their Brier score through
``_brier_ensembles``.  Parametric forecasts go through
``_parametric_score``, which scores one forecast at many observations,
or a column of normals (array parameters) at theirs.  A normal forecast
under the unit, censoring or indicator weight (``_closed_form``) is
scored by elementwise closed forms over arrays of means, sds and
observations (``_normal_score``): the CRPS, the Brier score, the
censored-normal twCRPS, the truncated-normal owCRPS (``_tnorm_crps``, which also scores the
truncated forecast of ``synthlab``'s impropriety demonstration) and the
indicator-weight vrCRPS, all from ``ndtr`` (``scipy.special.ndtr``,
which ``forecasts`` imports on its first call, so ensemble scoring
never loads ``scipy.special``).  Every other family and weight goes
through one engine, ``_CdfGrid``: the forecast cdf is tabulated on a
piecewise-uniform grid over its support with the extreme observations,
weight breakpoints and anchor as knots where they fall on it, the
integral forms of the scores are integrated by composite Simpson, and
what lies beyond the support is added in closed form; both take the
vrCRPS's formula from ``kernels._vertical``.  The per-case functions
call the route of their forecast with one case, through
``_score_case``; the propriety
Monte Carlo of ``synthlab`` calls ``_parametric_score`` with all its
draws, and ``archive`` calls ``_mv_kernel`` on blocks of raw records
and ``_parametric_score`` on the column of all its smoothed records,
so each route gives a case the same value; the per-case functions
refuse a column.  Every public scoring function returns a ``ScoreValue``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calibration import _cpit_values, _not_nan
from .exceptions import (
    ContractViolation,
    NumericalError,
    UnsupportedInput,
    WeightedMassZero,
)
from .forecasts import Ensemble, Forecast, Normal, Parametric, StudentT
from .forecasts import _one_forecast, _scalar_or_array, _std_pdf, ndtr
from .kernels import _mv_kernel, _vertical
from .weights import (
    MASS_FLOOR,
    CensorAbove,
    ChainingFunction,
    Constant,
    GaussPdf,
    IndicatorAbove,
    IndicatorBelow,
    WeightFunction,
    canonical_chaining,
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
    "weighted_cdf",
]

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


def _brier_ensembles(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """Brier score of each row of members x (n, m) for the event {Y <= t}:
    the forecast probability is the share of members <= t."""
    return ((x <= t).sum(1) / x.shape[1] - (y <= t)) ** 2


def _score_case(score: str, forecast, y: float, w: WeightFunction, x0=0.0, fair=False) -> float:
    """One score of one forecast at one observation: ``_mv_kernel`` (or
    ``_brier_ensembles``) or ``_parametric_score`` on a stack of one
    case, so that a case gets the value that archive and synthlab give
    it in a stack.  The outcome-weighted scores of raw ensembles are
    refused: reweighting a small sample throws away almost all of it."""
    ys = np.array([y])
    if isinstance(forecast, Ensemble):
        x = forecast.members[None]
        if score == "brier":
            return _brier_ensembles(x, ys, w.t)[0]
        if score in ("owcrps", "owcrps_bs"):
            raise UnsupportedInput(
                "outcome-weighted scores are not defined on raw ensembles here; "
                "fit a smooth forecast with postprocess.smooth_ensemble first"
            )
        return _mv_kernel({score: w}, (x0,), None, None, fair)(x[..., None], ys[:, None])[score][0]
    if not isinstance(forecast, Parametric):
        raise ContractViolation(f"{score} needs an ensemble or parametric forecast")
    if fair:
        raise ContractViolation("the fair variant applies to ensembles only")
    _one_forecast(forecast, score)
    return _parametric_score(score, forecast, ys, w, x0)[0]


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
    value = _score_case("brier", forecast, y, IndicatorAbove(t))
    return ScoreValue(value, "brier", {"t": t})


def crps_ensemble(forecast, y: float, fair: bool = False) -> ScoreValue:
    """CRPS of an ensemble (or of an array of members) via the kernel
    (energy) form.

    mean |x_i - y| - (1 / 2 m^2) sum_ij |x_i - x_j|.  With ``fair`` the
    spread term uses the m (m - 1) denominator instead; that variant
    needs at least two members.
    """
    e = forecast if isinstance(forecast, Ensemble) else Ensemble(forecast)
    value = _score_case("crps", e, _check_scalar(y), Constant(), fair=fair)
    return ScoreValue(value, "crps", {"fair": fair})


def normal_crps_values(mu, sigma, y):
    """Closed-form normal CRPS, vectorised over numpy arrays.

    Returns plain floats/arrays; ``crps_normal`` and the closed-form
    kernels for normal forecasts call it.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(sigma <= 0.0):
        raise ContractViolation("sigma must be positive")
    z = (y - mu) / sigma
    out = sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * _std_pdf(z) - 1.0 / np.sqrt(np.pi))
    return _scalar_or_array(out)


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
# Each kernel scores many normal forecasts at once: means ``mu``, sds
# ``sd`` and observations ``y`` are arrays that broadcast together, and
# one weight serves every case.  The per-case functions reach them
# through ``_parametric_score`` with one case.  With U standard normal,
# Q(u) = P(U > u) = ndtr(-u).  Tail terms use Q rather than 1 - Phi so
# that they keep their relative accuracy far out, where the
# outcome-weighted score divides by the squared tail mass.
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


def _closed_form(forecast, w: WeightFunction) -> bool:
    """Whether the weighted scores of ``forecast`` under ``w`` have a closed
    form; at an infinite threshold the closed forms give NaN."""
    return (
        isinstance(forecast, Normal)
        and isinstance(w, _NORMAL_WEIGHTS)
        and np.isfinite(w.breakpoints()).all()
    )


def _no_mass(w: WeightFunction, mass) -> WeightedMassZero:
    """The error for an indicator weight whose tail mass is at or below the floor."""
    side = "above" if isinstance(w, IndicatorAbove) else "below"
    return WeightedMassZero(f"forecast mass {side} {w.t} is {mass:.3e}, below the floor")


def _standardise(mu, sd, w: WeightFunction, *xs) -> list:
    # (x - mu) / sd for each x, negated when w weights the left tail.
    sign = -1.0 if isinstance(w, IndicatorBelow) else 1.0
    return [sign * (x - mu) / sd for x in xs]


def _normal_brier(mu, sd, y, t: float):
    """Brier score of each normal forecast for the event {Y <= t}."""
    return (ndtr((t - mu) / sd) - (y <= t)) ** 2


def _twcrps_normal(mu, sd, y, w: WeightFunction):
    """Threshold-weighted CRPS of each normal forecast under the chaining
    that integrates ``w``.

    sd times the integral of (Phi(u) - 1{z <= u})^2 over (a, inf): with
    m = max(z, a) that is G(m) - G(a) + K(m) = K(-m) - K(-a) + K(m).
    """
    if isinstance(w, Constant):
        return normal_crps_values(mu, sd, y)
    z, a = _standardise(mu, sd, w, y, w.t)
    m = np.maximum(z, a)
    return sd * (_q2_integral(-m) - _q2_integral(-a) + _q2_integral(m))


def _tnorm_crps(z, a, p):
    """CRPS at each z >= a of the standard normal truncated to (a, inf),
    whose mass is p = Q(a) (Jordan, Krueger & Lerch 2019):
    z + 2 H(z) / p - Q(sqrt(2) a) / (sqrt(pi) p^2).

    This is (z - a) - 2 (H(a) - H(z)) / p + K(a) / p^2 with the terms in
    a cancelled in algebra, so none is left to cancel in rounding when
    the threshold lies far below; at a -> -inf it is the CRPS.
    """
    return z + 2.0 * _q_integral(z) / p - ndtr(-np.sqrt(2.0) * a) / (np.sqrt(np.pi) * p * p)


def _owcrps_normal(mu, sd, y, w: WeightFunction):
    """Outcome-weighted CRPS of each normal forecast: w(y) times the CRPS
    of the forecast truncated to the weighted tail (``_tnorm_crps``),
    exactly 0 where w(y) = 0.

    The first case with w(y) > 0 whose tail mass is at or below the
    floor raises WeightedMassZero.
    """
    if isinstance(w, Constant):
        return normal_crps_values(mu, sd, y)
    z, a = _standardise(mu, sd, w, y, w.t)
    wy = np.asarray(w(y), dtype=float)
    live = wy != 0.0
    p = ndtr(-a)
    bad = live & (p <= MASS_FLOOR)
    if bad.any():
        raise _no_mass(w, np.broadcast_to(p, bad.shape)[bad.argmax()])
    # Cases with w(y) = 0 score 0; a unit mass keeps their arithmetic finite.
    p = np.where(live, p, 1.0)
    return np.where(live, wy * (sd * _tnorm_crps(z, a, p)), 0.0)


def _vrcrps_normal(mu, sd, y, w: WeightFunction, x0: float):
    """Vertically re-scaled CRPS of each normal forecast, anchored at x0.

    The three expectations of the vrCRPS for w = 1{U > a}, standardised:
    the tail mass p = Q(a), the partial moment E|U - c| 1{U > a} and
    E|U - U'| 1{U > a} 1{U' > a} = 2 (Q(sqrt(2) a) / sqrt(pi) - p phi(a)),
    written with no term in a that cancels when a lies far below.
    """
    if isinstance(w, Constant):
        return normal_crps_values(mu, sd, y)
    wy = np.asarray(w(y), dtype=float)
    z, a, c = _standardise(mu, sd, w, y, w.t, x0)
    p = ndtr(-a)
    pa = _std_pdf(a)

    def partial(u):
        # |U - u| = (U - u) + 2 (u - U)^+, integrated over U > a.
        b = np.maximum(a, u)
        return 2.0 * _q_integral(b) - pa + (2.0 * b - u) * p

    pair = 2.0 * (ndtr(-np.sqrt(2.0) * a) / np.sqrt(np.pi) - p * pa)
    return _vertical(sd * partial(z), sd * partial(c), p, wy, np.abs(y - x0), sd * pair)


def _normal_score(score: str, mu, sd, y, w: WeightFunction, x0: float):
    """One score of normal forecasts under the weight ``w``, elementwise.

    twcrps takes the chaining that integrates ``w``; brier and owcrps_bs
    take the threshold of an ``IndicatorAbove``; crps ignores ``w``.
    """
    if score == "crps":
        return normal_crps_values(mu, sd, y)
    if score == "brier":
        return _normal_brier(mu, sd, y, w.t)
    if score == "twcrps":
        return _twcrps_normal(mu, sd, y, w)
    if score == "owcrps":
        return _owcrps_normal(mu, sd, y, w)
    if score == "owcrps_bs":
        return _normal_brier(mu, sd, y, w.t) + _owcrps_normal(mu, sd, y, w)
    return _vrcrps_normal(mu, sd, y, w, x0)


# ---------------------------------------------------------------------------
# tabulated-cdf engine for the scores without a closed form
# ---------------------------------------------------------------------------
#
# Every weighted CRPS is an integral over the forecast cdf (Gneiting &
# Ranjan 2011).  The engine tabulates F on a grid and integrates with
# composite Simpson.  Knots (observations, thresholds, the vrCRPS anchor)
# split the grid into pieces, each uniform with an even number of
# intervals, so every Simpson panel z[2j], z[2j+1], z[2j+2] lies inside one
# piece and an integrand that jumps or kinks at a knot is smooth on every
# panel.

# Nodes of a grid, shared among its pieces in proportion to their length.
_NODES = 32769
# Forecast mass a grid may leave out on either side: of the forecast
# itself, and relative to the mass a conditional cdf divides by.
_TAIL = 1e-12
# Points per block of ``_CdfGrid.integral``: its dozen temporaries of a
# block's length then take about 0.4 MB together.
_POINTS = 4096


class _CdfGrid:
    """The cdf of one forecast tabulated over its support and some knots.

    The score methods take an array of observations.  One that is a knot
    is integrated to exactly; any other through the quadratic that
    Simpson's rule fits on its panel.  The forecast needs ``cdf`` and
    ``support_interval``; the vrCRPS and smooth-weight conditional cdfs
    also need ``pdf``, and a right-tail conditional cdf needs ``sf``.
    """

    def __init__(self, forecast, knots=(), span=None):
        # The grid spans the support, or ``span``: beyond the support the
        # cdf is 0 or 1 to within 1e-12, so knots there are left out rather
        # than take nodes from it, and the scores add what lies beyond in
        # closed form.
        lo, hi = span or forecast.support_interval(_TAIL)
        knots = np.asarray(knots, dtype=float)
        inner = knots[(knots > lo) & (knots < hi)]
        edges = np.unique(np.concatenate([[lo, hi], inner]))
        widths = np.diff(edges)
        panels = np.maximum(1, np.rint(widths / (edges[-1] - edges[0]) * (_NODES // 2))).astype(int)
        pieces = [np.linspace(a, b, 2 * k + 1)[:-1] for a, b, k in zip(edges[:-1], edges[1:], panels)]
        self.z = np.concatenate(pieces + [edges[-1:]])
        # Half the panel width of each piece (_hp) and of each panel (h),
        # and the first panel of each piece, then the number of panels.
        self._edges = edges
        self._hp = widths / (2 * panels)
        self._first = np.concatenate([[0], np.cumsum(panels)])
        self.h = np.repeat(self._hp, panels)
        self.F = np.asarray(forecast.cdf(self.z), dtype=float)
        self.forecast = forecast

    @classmethod
    def conditioned(cls, forecast, w: WeightFunction, knots=()) -> "_CdfGrid":
        """A grid for the forecast reweighted by ``w``.

        For an indicator weight the grid reaches on past the support, a
        support width at a time, until the forecast mass beyond its end is
        negligible against the mass the conditional cdf divides by.  The
        walk starts at the threshold or, for one beyond the support on the
        weighted side (-inf included), at the support's end.
        """
        knots = (*knots, *w.breakpoints())
        lo, hi = forecast.support_interval(_TAIL)
        if isinstance(w, (IndicatorAbove, IndicatorBelow)):
            above = isinstance(w, IndicatorAbove)
            tail = forecast.sf if above else forecast.cdf
            mass = float(tail(w.t))
            if mass <= MASS_FLOOR:
                raise _no_mass(w, mass)
            step = hi - lo if above else lo - hi
            end = (max(w.t, lo) if above else min(w.t, hi)) + step
            while tail(end) > _TAIL * mass:
                end += step
            knots += (lo, hi)
            lo, hi = min(lo, end), max(hi, end)
        return cls(forecast, knots, (lo, hi))

    def integral(self, g, p):
        """Integral of the tabulated g from the first node to each point p:
        composite Simpson over the whole panels below p, plus the integral
        up to p of the quadratic through the three nodes of p's panel.  A
        point beyond the grid counts as its nearest end.

        The panel sums are taken once; the points are evaluated
        ``_POINTS`` at a time, so the temporaries stay the same size
        however many points there are (observations, or the grid's own
        nodes), and each point gets the value it gets alone."""
        p = np.clip(np.asarray(p, dtype=float), self.z[0], self.z[-1])
        g0, g1, g2 = g[:-2:2], g[1::2], g[2::2]
        before = np.concatenate([[0.0], np.cumsum(self.h / 3.0 * (g0 + 4.0 * g1 + g2))])
        out = np.empty(p.shape)
        points, values = p.reshape(-1), out.reshape(-1)
        for lo in range(0, points.size, _POINTS):
            q = points[lo : lo + _POINTS]
            # The panel holding q: find its piece among the few edges, then
            # count panels from the piece's start.
            k = np.clip(np.searchsorted(self._edges, q, side="right") - 1, 0, self._hp.size - 1)
            j = self._first[k] + ((q - self._edges[k]) / (2.0 * self._hp[k])).astype(int)
            j = np.clip(j, self._first[k], self._first[k + 1] - 1)
            h, a, b, c = self.h[j], g0[j], g1[j], g2[j]
            s = (q - self.z[2 * j]) / h
            poly = a + s * ((4.0 * b - 3.0 * a - c) / 4.0 + s * (a - 2.0 * b + c) / 6.0)
            values[lo : lo + _POINTS] = before[j] + h * s * poly
        return out[()]

    def weighted_integral(self, g, w: WeightFunction, p):
        """Integral of g w from the first node to each point p.

        An indicator weight jumps at its threshold, which is a knot: g
        alone is integrated over the side where the weight is one, so no
        panel sees the jump.
        """
        if isinstance(w, IndicatorAbove):
            g = np.where(self.z >= w.t, g, 0.0)
            return self.integral(g, np.maximum(p, w.t)) - self.integral(g, w.t)
        if isinstance(w, IndicatorBelow):
            return self.integral(np.where(self.z <= w.t, g, 0.0), np.minimum(p, w.t))
        return self.integral(g * w(self.z), p)

    def _crps(self, cdf, sf, w: WeightFunction, ys):
        # Integral of (G(z) - 1{y <= z})^2 w(z) for the tabulated cdf G,
        # passed with its complement 1 - G, at each observation y.  Beyond
        # the grid G is 0 or 1, so out to a far y the integrand is w, the
        # derivative of its chaining function v.
        below = self.weighted_integral(cdf * cdf, w, ys)
        above = self.weighted_integral(sf * sf, w, np.append(ys, self.z[-1]))
        out = below + above[-1] - above[:-1]
        lo, hi = self.z[0], self.z[-1]
        far = (ys < lo) | (ys > hi)
        if far.any():
            v, yf = canonical_chaining(w), ys[far]
            out[far] += np.where(yf > hi, v(yf) - v(hi), v(lo) - v(yf))
        return out

    def twcrps(self, ys, w: WeightFunction):
        """Threshold-weighted CRPS at each observation; the CRPS itself
        under the constant weight."""
        return self._crps(self.F, 1.0 - self.F, w, ys)

    def conditional(self, w: WeightFunction):
        """Cdf and survival function, at the nodes, of the forecast
        reweighted by ``w``; the grid comes from ``conditioned``."""
        if isinstance(w, IndicatorAbove):
            # 1 - S(z) / S(t): the survival function keeps its relative
            # accuracy deep in the right tail, where 1 - F(z) does not.
            sf = np.minimum(self.forecast.sf(self.z) / self.forecast.sf(w.t), 1.0)
            return 1.0 - sf, sf
        if isinstance(w, IndicatorBelow):
            cdf = np.minimum(self.F / self.forecast.cdf(w.t), 1.0)
            return cdf, 1.0 - cdf
        cum = self.weighted_integral(self.forecast.pdf(self.z), w, self.z)
        if cum[-1] <= MASS_FLOOR:
            raise WeightedMassZero(f"weighted forecast mass is {cum[-1]:.3e}, below the floor")
        cdf = np.clip(cum / cum[-1], 0.0, 1.0)
        return cdf, 1.0 - cdf

    def owcrps(self, ys, w: WeightFunction):
        """CRPS of the forecast reweighted by ``w`` at each observation:
        the outcome-weighted CRPS before its factor w(y)."""
        return self._crps(*self.conditional(w), Constant(), ys)

    def vrcrps(self, ys, w: WeightFunction, x0: float):
        """Vertically re-scaled CRPS at each observation, anchored at x0.

        With W and M the weighted mass and first moment below z,
        E|X - p| w(X) = 2 p W(p) - 2 M(p) + M(inf) - p W(inf) and
        E|X - X'| w(X) w(X') = 2 times the integral of w f (z W - M).
        """
        z = self.z
        f = np.asarray(self.forecast.pdf(z), dtype=float)
        pts = np.append(ys, x0)
        wp, mp = self.weighted_integral(f, w, pts), self.weighted_integral(z * f, w, pts)
        wz, mz = self.weighted_integral(f, w, z), self.weighted_integral(z * f, w, z)
        ew, mt = wz[-1], mz[-1]
        dist = 2.0 * pts * wp - 2.0 * mp + mt - pts * ew
        pair = 2.0 * self.weighted_integral(f * (z * wz - mz), w, z[-1])
        wy = np.asarray(w(ys), dtype=float)
        return _vertical(dist[:-1], dist[-1], ew, wy, np.abs(ys - x0), pair)


def _refuse_divergent(score: str, forecast, w: WeightFunction) -> None:
    """Refuse a Student t score whose integral diverges: under a weight
    that does not vanish in both tails (any but ``GaussPdf``) the CRPS
    integrand decays as |z|^(-2 df), so the CRPS and its threshold- and
    outcome-weighted forms need df > 1/2, and the vrCRPS term
    E|X - x0| w(X) needs df > 1."""
    if isinstance(forecast, StudentT) and score != "brier" and not isinstance(w, GaussPdf):
        least = 1.0 if score == "vrcrps" else 0.5
        if forecast.df <= least:
            raise UnsupportedInput(
                f"{score} of a Student t with df {forecast.df} <= {least} diverges "
                f"under {type(w).__name__}"
            )


def _parametric_score(score: str, forecast, ys: np.ndarray, w: WeightFunction, x0: float = 0.0):
    """One score of ``forecast`` at every observation of ``ys``, with
    ``score``, ``w`` and the anchor x0 as ``_normal_score`` takes them.

    Closed forms where ``_closed_form`` holds, which broadcast a column of
    normals (array parameters) against ``ys``, else one tabulated cdf
    with the extreme observations, the weight's breakpoints and, for the
    vrCRPS, x0 as knots.  No conditional grid is built where w(y) = 0.
    A Student t score whose integral diverges is refused
    (``_refuse_divergent``).
    """
    _refuse_divergent(score, forecast, w)
    if _closed_form(forecast, w):
        return _normal_score(score, forecast.mean_, forecast.sd, ys, w, x0)
    if score in ("brier", "owcrps_bs"):
        # Two scalar squares, as the Brier score of one observation takes them.
        p = float(forecast.cdf(w.t))
        brier = np.where(ys <= w.t, (p - 1.0) ** 2, p**2)
        if score == "brier":
            return brier
    knots = (ys.min(), ys.max(), *w.breakpoints())
    if score in ("owcrps", "owcrps_bs"):
        wy = np.asarray(w(ys), dtype=float)
        live = wy != 0.0
        out = np.zeros(ys.shape)
        if live.any():
            out[live] = wy[live] * _CdfGrid.conditioned(forecast, w, knots).owcrps(ys[live], w)
        return out if score == "owcrps" else brier + out
    if score == "vrcrps":
        return _CdfGrid(forecast, (*knots, x0)).vrcrps(ys, w, x0)
    return _CdfGrid(forecast, knots).twcrps(ys, Constant() if score == "crps" else w)


# ---------------------------------------------------------------------------
# CRPS by integration
# ---------------------------------------------------------------------------


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

    Parametric forecasts are integrated on a tabulated cdf with y as a
    knot; ensembles use the exact piecewise integral of the empirical
    cdf.  This is the reference route the closed forms are checked
    against.  A Student t whose CRPS diverges is refused, as ``crps``
    refuses it.
    """
    y = _check_scalar(y)
    if isinstance(forecast, Ensemble):
        value = _crps_numeric_ensemble(forecast.members, y)
    elif isinstance(forecast, Parametric):
        _refuse_divergent("crps", forecast, Constant())
        value = _CdfGrid(forecast, (y,)).twcrps(np.array([y]), Constant())[0]
    else:
        raise ContractViolation("crps_numeric needs an ensemble or parametric forecast")
    return ScoreValue(value, "crps", {"method": "numeric"})


def crps(forecast: Forecast, y: float) -> ScoreValue:
    """CRPS of an ensemble or parametric forecast.

    Ensembles use the kernel form, normal forecasts the closed form,
    other parametric forecasts the tabulated cdf.
    """
    return ScoreValue(_score_case("crps", forecast, _check_scalar(y), Constant()), "crps")


# ---------------------------------------------------------------------------
# threshold-weighted CRPS
# ---------------------------------------------------------------------------


def twcrps(forecast: Forecast, y: float, chaining: ChainingFunction, fair: bool = False) -> ScoreValue:
    """Threshold-weighted CRPS under a chaining function.

    Ensembles are scored as the plain CRPS of the transformed members
    against the transformed observation.  Parametric forecasts integrate
    (F(z) - 1{y <= z})^2 against the weight that the chaining function
    integrates.
    """
    v = _univariate_chaining(chaining)
    value = _score_case("twcrps", forecast, _check_scalar(y), v.weight(), fair=fair)
    return ScoreValue(value, "twcrps", {"chaining": repr(v), "fair": fair})


# ---------------------------------------------------------------------------
# outcome-weighted CRPS
# ---------------------------------------------------------------------------


def owcrps(forecast: Forecast, y: float, w: WeightFunction) -> ScoreValue:
    """Outcome-weighted CRPS: w(y) times the CRPS of the reweighted forecast.

    Zero whenever w(y) = 0, without forming the conditional forecast.
    Raw ensembles are refused because reweighting a small sample throws
    away almost all of it; smooth the ensemble first.
    """
    w = _univariate_weight(w)
    value = _score_case("owcrps", forecast, _check_scalar(y), w)
    return ScoreValue(value, "owcrps", {"weight": repr(w)})


def owcrps_bs(forecast: Forecast, y: float, t: float) -> ScoreValue:
    """Outcome-weighted CRPS complemented with the Brier score.

    The conditional CRPS beyond t only judges predicted severity, never
    the predicted probability of exceedance, and on its own it can be
    gamed by denying the event outright.  Adding the Brier score of the
    threshold event at every outcome restores propriety: the score is
    1{y > t} CRPS(F conditioned beyond t, y) + (F(t) - 1{y <= t})^2.
    For y <= t the first term vanishes and the score is exactly the
    Brier score.  Raw ensembles are refused, as by ``owcrps``.
    """
    y = _check_scalar(y)
    t = _check_scalar(t, "t")
    value = _score_case("owcrps_bs", forecast, y, IndicatorAbove(t))
    return ScoreValue(value, "owcrps_bs", {"t": t})


# ---------------------------------------------------------------------------
# vertically re-scaled CRPS
# ---------------------------------------------------------------------------


def vrcrps(forecast: Forecast, y: float, w: WeightFunction, x0: float = 0.0) -> ScoreValue:
    """Vertically re-scaled CRPS with centre point ``x0``.

    The kernel terms are damped by the weight at each argument, and a
    correction anchored at ``x0`` keeps the rule proper.
    """
    w = _univariate_weight(w)
    y = _check_scalar(y)
    x0 = _check_scalar(x0, "x0")
    value = _score_case("vrcrps", forecast, y, w, x0)
    return ScoreValue(value, "vrcrps", {"weight": repr(w), "x0": x0})


# ---------------------------------------------------------------------------
# weighted cdf and the decomposition diagnostic
# ---------------------------------------------------------------------------


def weighted_cdf(forecast: Parametric, w: WeightFunction, x: float) -> float:
    """Cdf of the forecast reweighted by ``w``.

    Returns E[1{X <= x} w(X)] / E[w(X)] for X distributed according to
    the forecast.  Indicator weights use closed forms; other weights
    take the conditional cdf of the tabulated-cdf engine, with x as a
    knot.

    Raises
    ------
    WeightedMassZero
        If E[w(X)] is at or below the mass floor (1e-12).
    """
    if not isinstance(forecast, Parametric):
        raise ContractViolation("weighted_cdf needs a univariate parametric forecast")
    w = _univariate_weight(w)
    x = float(_not_nan("x", x))

    if isinstance(w, Constant):
        return float(forecast.cdf(x))
    if isinstance(w, IndicatorAbove):
        denom = float(forecast.sf(w.t))
        if denom <= MASS_FLOOR:
            raise _no_mass(w, denom)
        return float(_cpit_values(denom, forecast.sf(x)))
    if isinstance(w, IndicatorBelow):
        denom = float(forecast.cdf(w.t))
        if denom <= MASS_FLOOR:
            raise _no_mass(w, denom)
        num = float(forecast.cdf(min(x, w.t)))
        return min(num / denom, 1.0)

    # x = +-inf is no knot: interpolation holds the cdf at 0 or 1 beyond the grid.
    grid = _CdfGrid.conditioned(forecast, w, (x,) if np.isfinite(x) else ())
    cdf, _ = grid.conditional(w)
    return float(np.interp(x, grid.z, cdf))


def twcrps_decomposition_check(forecast: Parametric, y: float, t: float) -> float:
    """Residual of the tail decomposition of the censored twCRPS.

    The twCRPS with censoring at t splits into a conditional (outcome
    weighted) part scaled by the squared tail mass plus explicit
    boundary terms.  Returns lhs - rhs, which should vanish to the
    accuracy of the integration for any continuous parametric forecast.
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
    grid = _CdfGrid(forecast, (y, t))
    above = IndicatorAbove(t)
    # The grid spans the support: below it F is 0 and above it 1, so the
    # stretches of [t, y] or [t, inf) beyond it are added in closed form.
    lo, hi = grid.z[0], grid.z[-1]
    if y > t:
        inner = grid.weighted_integral(grid.F - ft, above, y)
        inner += (1.0 - ft) * max(0.0, y - max(t, hi)) - ft * max(0.0, min(y, lo) - t)
        rhs += ft**2 * (y - t) + 2.0 * ft * inner
    else:
        rhs += grid.weighted_integral((1.0 - grid.F) ** 2, above, hi) + max(0.0, lo - t)
    return float(lhs - rhs)
