"""Synthetic experiments: score behaviour, calibration, and propriety.

Everything here is driven by explicit seeds.  The univariate Monte
Carlo runs score each forecast at all its draws at once: a normal
forecast under the unit or an indicator weight through the closed-form
kernels of ``uniscores``, any other on one tabulated cdf, through the
same engine that ``uniscores`` uses for a single case of a family or
weight without a closed form.  Score curves run the closed-form
kernels on their whole grid of observations.  Multivariate propriety runs
the shipped energy, variogram and vertically re-scaled kernels of
``mvscores`` on whole samples at once.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr, stdtr

from .calibration import (
    HistogramSummary,
    ReliabilityFit,
    _cpit_values,
    _rng,
    corp_reliability,
    histogram_summary,
    pit_ecdf,
)
from .exceptions import ContractViolation, WeightedMassZero
from .forecasts import Logistic, Normal, Parametric, StudentT
from .mvscores import _energy, _variogram, _vr_energy
from .uniscores import _CdfGrid, _closed_form, _normal_score
from .weights import (
    MASS_FLOOR,
    BoxIndicator,
    CollapseOutside,
    Constant,
    GaussCdf,
    GaussPdf,
    IndicatorAbove,
    IndicatorBelow,
    MvGaussCdf,
    OneMinusGaussCdf,
    OneMinusGaussPdfRatio,
    WeightFunction,
)

__all__ = [
    "ExperimentSpec",
    "ScoreCurves",
    "IdealForecasterResult",
    "TailForecaster",
    "TailForecastersResult",
    "ProprietyRow",
    "ImproprietyResult",
    "run_score_curves",
    "run_ideal_forecaster",
    "run_tail_forecasters",
    "run_propriety_mc",
    "run_impropriety_demo",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# score curves across the observation axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreCurves:
    """Weighted scores of one standard normal forecast as the observation
    varies, with the weight concentrated above the threshold ``t``."""

    ys: np.ndarray
    crps: np.ndarray
    twcrps: np.ndarray
    owcrps: np.ndarray
    vrcrps: np.ndarray
    t: float
    x0: float


def run_score_curves(t: float = 1.0, ys=None, x0: float = 0.0) -> ScoreCurves:
    """Score a standard normal forecast along a grid of observations.

    Runs the closed-form normal kernels of ``uniscores`` on all the
    observations at once.  The weight is the indicator of exceeding
    ``t``, which the censoring chaining of the threshold-weighted score
    integrates.
    """
    if ys is None:
        ys = np.linspace(-3.0, 3.0, 121)
    ys = np.asarray(ys, dtype=float)
    w = IndicatorAbove(t)
    curves = [_normal_score(s, 0.0, 1.0, ys, w, x0) for s in ("crps", "twcrps", "owcrps", "vrcrps")]
    return ScoreCurves(ys, *curves, t, x0)


# ---------------------------------------------------------------------------
# ideal forecaster calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealForecasterResult:
    """PIT, conditional PIT, and restricted PIT of an ideal forecaster."""

    pit_hist: HistogramSummary
    cpit_hist: HistogramSummary
    restricted_hist: HistogramSummary
    n: int
    n_exceed: int
    sigma2: float
    t: float
    seed: int


def run_ideal_forecaster(
    n: int = 100_000,
    sigma2: float = 1.0 / 3.0,
    t: float = 1.0,
    bins: int = 20,
    seed: int = 20240801,
) -> IdealForecasterResult:
    """Sample an ideal forecaster and bin its (conditional) PIT values.

    Case means are drawn from N(0, 1 - sigma2) and outcomes from
    N(mean, sigma2), so the marginal outcome variance is one.  The
    forecaster issues the true conditional distribution each case; its
    PIT and conditional PIT beyond ``t`` are both uniform, while the
    PIT restricted to exceedance cases is not.
    """
    if not 0.0 < sigma2 < 1.0:
        raise ContractViolation("sigma2 must lie in (0, 1)")
    gen = _rng(seed)
    mu = gen.normal(0.0, np.sqrt(1.0 - sigma2), n)
    y = gen.normal(mu, np.sqrt(sigma2))
    sd = np.sqrt(sigma2)
    pit_vals = ndtr((y - mu) / sd)
    exceed = y > t
    cpit_vals = _cpit_values(
        ndtr(-((t - mu[exceed]) / sd)), ndtr(-((y[exceed] - mu[exceed]) / sd))
    )
    return IdealForecasterResult(
        pit_hist=histogram_summary(pit_vals, bins=bins),
        cpit_hist=histogram_summary(cpit_vals[~np.isnan(cpit_vals)], bins=bins),
        restricted_hist=histogram_summary(pit_vals[exceed], bins=bins),
        n=n,
        n_exceed=int(exceed.sum()),
        sigma2=sigma2,
        t=t,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# tail behaviour of mismatched forecasters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailForecaster:
    """Conditional-tail diagnostics for one forecaster family."""

    name: str
    cpit_hist: HistogramSummary
    ecdf_u: np.ndarray
    ecdf_p: np.ndarray
    corp: ReliabilityFit


@dataclass(frozen=True)
class TailForecastersResult:
    forecasters: dict
    n: int
    n_exceed: int
    t: float
    seed: int


def run_tail_forecasters(
    n: int = 1_000_000,
    t: float = 2.0,
    bins: int = 20,
    seed: int = 20240802,
    corp_resamples: int = 1000,
) -> TailForecastersResult:
    """Conditional PIT beyond ``t`` for three moment-matched forecasters.

    Outcomes are logistic noise around normal case means with total
    variance one, which puts roughly 2.5 percent of outcomes beyond
    t = 2.  Each forecaster matches the true case mean and variance but
    differs in tail weight: normal (too light), logistic (exact),
    student t with 5 degrees of freedom (too heavy).  Reliability of
    the exceedance event is fitted by isotonic regression with a
    consistency band.
    """
    gen = _rng(seed)
    tau = np.sqrt(2.0 / 3.0)
    s_log = 1.0 / np.pi
    cond_var = 1.0 / 3.0
    mu = gen.normal(0.0, tau, n)
    y = mu + gen.logistic(0.0, s_log, n)
    exceed = y > t

    sd_norm = np.sqrt(cond_var)
    s_t5 = np.sqrt(cond_var * (5.0 - 2.0) / 5.0)
    # Survival functions as scipy.stats computes them for unit scale.
    families = (
        ("normal", lambda x: ndtr(-((x - mu) / sd_norm))),
        ("logistic", lambda x: expit(-((x - mu) / s_log))),
        ("student_t5", lambda x: stdtr(5, -((x - mu) / s_t5))),
    )

    out = {}
    for idx, (name, sf) in enumerate(families):
        st = sf(t)
        cp = _cpit_values(st[exceed], sf(y)[exceed])
        cp = cp[~np.isnan(cp)]
        u, pvals = pit_ecdf(cp)
        corp = corp_reliability(
            st,
            exceed.astype(float),
            resamples=corp_resamples,
            seed=np.random.default_rng((seed, 303, idx)),
        )
        out[name] = TailForecaster(
            name, histogram_summary(cp, bins=bins), u, pvals, corp
        )
    return TailForecastersResult(out, n, int(exceed.sum()), t, seed)


# ---------------------------------------------------------------------------
# propriety Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProprietyRow:
    """One (score, forecast pair) comparison under draws from the truth."""

    score: str
    pair: str
    mean_true: float
    mean_other: float
    se_diff: float
    passed: bool


def _se(d: np.ndarray) -> float:
    """Standard error of the mean of the paired differences ``d``."""
    return float(np.std(d, ddof=1) / np.sqrt(d.size))


def _propriety_row(score: str, pair: str, a: np.ndarray, b: np.ndarray) -> ProprietyRow:
    """The truth's scores ``a`` against the alternative's ``b`` at the same
    draws: passed when the truth is no worse than b plus two standard errors."""
    d = a - b
    se = _se(d)
    passed = bool(np.mean(d) <= 2.0 * se)
    return ProprietyRow(score, pair, float(np.mean(a)), float(np.mean(b)), se, passed)


_UNI_SCORES = ("crps", "twcrps", "owcrps_bs", "vrcrps")
_MV_SCORES = ("es", "vs", "twes", "twvs", "vres")


def _uni_pair(rng, i: int):
    """Random truth plus a clearly wrong alternative forecast."""
    mu = rng.uniform(-1.0, 1.0)
    sd = rng.uniform(0.7, 1.6)
    scale = sd * np.sqrt(3.0) / np.pi
    g = (Normal(mu, sd**2), Logistic(mu, scale), StudentT.from_moments(5.0, mu, sd**2))[i % 3]
    shift = rng.uniform(0.3, 0.8) * sd * (1 if rng.random() < 0.5 else -1)
    infl = rng.uniform(1.3, 1.7)
    desc, f = (
        ("shifted", Normal(mu + shift, sd**2)),
        ("inflated", Normal(mu, (sd * infl) ** 2)),
        ("shifted+inflated", Normal(mu + shift, (sd * infl) ** 2)),
        ("wrong family", Logistic(mu + shift, scale)),
    )[i % 4]
    return g, f, f"{type(g).__name__} vs {desc}"


def _uni_weight(i: int, centre: float, sd: float) -> WeightFunction:
    """Cycle through every univariate weight family.

    Twenty pairs cover each family at least twice.  The indicator
    thresholds sit half a standard deviation above the truth's mean so
    both the emphasized and the de-emphasized regions keep substantial
    probability mass.
    """
    families = (
        Constant(),
        GaussPdf(centre, sd),
        OneMinusGaussPdfRatio(centre, sd),
        GaussCdf(centre, sd),
        OneMinusGaussCdf(centre, sd),
        IndicatorAbove(centre),
        IndicatorBelow(centre),
    )
    return families[i % len(families)]


def _score_draws(dist, score: str, ys: np.ndarray, w: WeightFunction) -> np.ndarray:
    """One univariate score of a fixed forecast at every draw; 0.0 is the
    vrCRPS anchor.  A normal forecast under a weight with a closed form
    goes through the closed-form kernels, any other on one tabulated cdf
    with the extreme draws as knots where they fall on its support."""
    if _closed_form(dist, w):
        return _normal_score(score, dist.mean_, dist.sd, ys, w, 0.0)
    knots = (ys.min(), ys.max(), 0.0, *w.breakpoints())
    if score == "owcrps_bs":
        brier = (float(dist.cdf(w.t)) - (ys <= w.t)) ** 2
        return brier + w(ys) * _CdfGrid.conditioned(dist, w, knots).owcrps(ys, w)
    grid = _CdfGrid(dist, knots)
    if score == "vrcrps":
        return grid.vrcrps(ys, w, 0.0)
    return grid.twcrps(ys, w)


def _propriety_uni(score: str, n_pairs: int, n: int, seed) -> list:
    rows = []
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, 101, i))
        g, f, desc = _uni_pair(rng, i)
        ys = g.sample(n, rng)
        centre = g.mean() + 0.5 * np.sqrt(g.variance())
        w, label = Constant(), score
        if score == "owcrps_bs":
            w = IndicatorAbove(float(g.ppf(rng.uniform(0.4, 0.85))))
        elif score in ("twcrps", "vrcrps"):
            k = i if score == "twcrps" else i + 1
            w = _uni_weight(k, centre, np.sqrt(g.variance()))
            label = f"{score}[{type(w).__name__}]"
        a, b = (_score_draws(dist, score, ys, w) for dist in (g, f))
        rows.append(_propriety_row(label, desc, a, b))
    return rows


def _exchangeable_chol(sd: np.ndarray, rho: float) -> np.ndarray:
    d = sd.size
    cov = np.outer(sd, sd) * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))
    return np.linalg.cholesky(cov)


def _mv_pair(rng, i: int, d: int):
    mu = rng.uniform(-0.5, 0.5, d)
    sd = rng.uniform(0.8, 1.4, d)
    rhos = (0.0, 0.3, 0.6, 0.8)
    rho_g = rhos[i % 4]
    # A common shift leaves every difference between components, and so
    # the variogram score, unchanged; "shifted" moves the components unequally.
    other, desc = (
        ((mu + 0.5 * (1.0 + np.linspace(-1.0, 1.0, d)), sd, rho_g), "shifted"),
        ((mu, sd * 1.4, rho_g), "inflated"),
        ((mu + 0.3, sd, rhos[(i + 2) % 4]), "shifted+recorrelated"),
    )[i % 3]
    return (mu, sd, rho_g), other, desc


def _mv_sample(rng, params, n: int, m: int, d: int) -> np.ndarray:
    mu, sd, rho = params
    chol = _exchangeable_chol(sd, rho)
    z = rng.standard_normal((n, m, d))
    return z @ chol.T + mu


def _propriety_mv(score: str, n_pairs: int, n: int, m: int, seed) -> list:
    d = 3
    h = np.ones((d, d))
    rows = []
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, 202, i))
        pg, pf, desc = _mv_pair(rng, i, d)
        ys = _mv_sample(rng, pg, n, 1, d)[:, 0, :]
        xg = _mv_sample(rng, pg, n, m, d)
        xf = _mv_sample(rng, pf, n, m, d)
        mu, sd, _ = pg
        q = mu - 0.5 * sd  # roughly the 30th percentile componentwise
        if score in ("twes", "twvs"):
            v = CollapseOutside(BoxIndicator(q, np.full(d, np.inf)), q).transform
            xg, xf, ys = v(xg), v(xf), v(ys)
        if score in ("es", "twes"):
            a, b = _energy(xg, ys), _energy(xf, ys)
        elif score in ("vs", "twvs"):
            a, b = _variogram(xg, ys, 0.5, h), _variogram(xf, ys, 0.5, h)
        else:
            w = MvGaussCdf(q, sd)
            a, b = _vr_energy(xg, ys, w, q), _vr_energy(xf, ys, w, q)
        rows.append(_propriety_row(score, desc, a, b))
    return rows


def run_propriety_mc(
    scores=None,
    n_pairs: int = 20,
    n_uni: int = 100_000,
    n_mv: int = 20_000,
    m_members: int = 50,
    seed: int = 20240803,
) -> list:
    """Monte Carlo propriety checks over random truth/forecast pairs.

    ``scores`` is a sequence of score names or one comma-separated string
    of them, as the command line passes it; all nine by default.

    For each requested score and each pair, the mean score of the truth
    is compared with the mean score of the wrong forecast over draws
    from the truth.  A row passes when the truth is no worse than the
    alternative plus twice the standard error of the paired difference.
    Univariate forecasts are scored as full distributions on cdf grids;
    multivariate ones as 50-member samples, drawn the same way for both
    sides so the finite-ensemble bias cancels in the comparison, by the
    same kernels that ``mvscores`` runs for every case it scores.
    """
    if isinstance(scores, str):
        scores = scores.split(",")
    chosen = tuple(scores) if scores else _UNI_SCORES + _MV_SCORES
    rows = []
    for s in chosen:
        if s in _UNI_SCORES:
            rows.extend(_propriety_uni(s, n_pairs, n_uni, seed))
        elif s in _MV_SCORES:
            rows.extend(_propriety_mv(s, n_pairs, n_mv, m_members, seed))
        else:
            raise ContractViolation(f"unknown score {s!r}")
    return rows


# ---------------------------------------------------------------------------
# impropriety of naive outcome weighting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImproprietyResult:
    """Naive weighted CRPS versus its proper threshold-weighted cousin.

    The naive entries average w(y) * CRPS(F, y); a forecaster who moves
    all mass beyond the threshold beats the truth there.  The
    threshold-weighted entries rank the two the right way round.
    """

    naive_truth: float
    naive_trunc: float
    naive_se: float
    tw_truth: float
    tw_trunc: float
    tw_se: float
    t: float
    n: int
    seed: int

    @property
    def naive_prefers_truncated(self) -> bool:
        return self.naive_trunc + 2.0 * self.naive_se < self.naive_truth

    @property
    def tw_prefers_truth(self) -> bool:
        return self.tw_truth + 2.0 * self.tw_se < self.tw_trunc


class _TruncatedAbove:
    """Distribution conditioned on exceeding t, with the cdf and support
    interval that the tabulated-cdf engine reads."""

    def __init__(self, base: Parametric, t: float):
        mass = float(base.sf(t))
        if mass <= MASS_FLOOR:
            raise WeightedMassZero(f"no forecast mass above {t}")
        self.base = base
        self.t = t
        self._mass = mass

    def cdf(self, z):
        return _cpit_values(self._mass, self.base.sf(z))

    def support_interval(self, tail: float = 1e-12):
        _, hi = self.base.support_interval(tail)
        return self.t, hi


def run_impropriety_demo(
    t: float = 0.5, n: int = 100_000, seed: int = 20240804
) -> ImproprietyResult:
    """Show that w(y) * CRPS rewards hedging while twCRPS does not.

    Outcomes are standard normal.  The naive rule multiplies the CRPS
    by the indicator of exceeding ``t``, which favours a forecaster who
    shifts all mass beyond ``t``; the threshold-weighted CRPS with the
    same indicator favours the honest forecaster.
    """
    gen = _rng(seed)
    truth = Normal(0.0, 1.0)
    trunc = _TruncatedAbove(truth, t)
    ys = truth.sample(n, gen)
    w = IndicatorAbove(t)
    wy = np.asarray(w(ys), dtype=float)

    knots = (ys.min(), ys.max(), t)
    sc_truth = _CdfGrid(truth, knots)
    sc_trunc = _CdfGrid(trunc, knots)

    naive_a = wy * sc_truth.twcrps(ys, Constant())
    naive_b = wy * sc_trunc.twcrps(ys, Constant())
    tw_a = sc_truth.twcrps(ys, w)
    tw_b = sc_trunc.twcrps(ys, w)
    return ImproprietyResult(
        naive_truth=float(np.mean(naive_a)),
        naive_trunc=float(np.mean(naive_b)),
        naive_se=_se(naive_a - naive_b),
        tw_truth=float(np.mean(tw_a)),
        tw_trunc=float(np.mean(tw_b)),
        tw_se=_se(tw_a - tw_b),
        t=t,
        n=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Named synthetic experiment plus parameter overrides."""

    name: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def resolved_params(self) -> dict:
        p = dict(self.params)
        if self.seed is not None:
            p["seed"] = self.seed
        return p


_EXPERIMENTS = {
    "score_curves": run_score_curves,
    "ideal_forecaster": run_ideal_forecaster,
    "tail_forecasters": run_tail_forecasters,
    "propriety": run_propriety_mc,
    "impropriety": run_impropriety_demo,
}


def run_experiment(spec: ExperimentSpec):
    """Run a named experiment; the catalogue is score_curves,
    ideal_forecaster, tail_forecasters, propriety, impropriety."""
    fn = _EXPERIMENTS.get(spec.name)
    if fn is None:
        raise ContractViolation(
            f"unknown experiment {spec.name!r}; choose from {sorted(_EXPERIMENTS)}"
        )
    params = spec.resolved_params()
    # score_curves has no randomness, so it takes no seed; drop the
    # uniform seed there rather than forcing a dead parameter on it
    if "seed" not in inspect.signature(fn).parameters:
        params.pop("seed", None)
    return fn(**params)
