"""Synthetic experiments: score behaviour, calibration, and propriety.

Everything here is driven by explicit seeds.  No score is computed
here: univariate scores come from ``uniscores._parametric_score``, the
route that the per-case functions call with one observation, here with
every observation of a curve or every draw of a Monte Carlo sample at
once, and the truncated normal of the impropriety demonstration from
``uniscores._tnorm_crps``, the closed form its owCRPS is made of;
multivariate scores from ``kernels._mv_kernel``, the engine of the
ensemble kernel scores that ``archive`` and the per-case functions
score with, here on whole samples.
The propriety Monte Carlo draws each truth/alternative pair once and
scores every requested score on the same draws, the multivariate ones
in one kernel call per block of draws of each side, which it draws,
scores and drops one block at a time.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .calibration import (
    HistogramSummary,
    ReliabilityFit,
    _check_size,
    _cpit_values,
    _rng,
    corp_reliability,
    histogram_summary,
    pit_ecdf,
)
from .exceptions import ContractViolation, WeightedMassZero
from .forecasts import Logistic, Normal, StudentT
from .kernels import _mv_kernel
from .uniscores import _parametric_score, _tnorm_crps
from .weights import (
    MASS_FLOOR,
    BoxIndicator,
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


def _check_finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise ContractViolation(f"{name} must be finite, got {value!r}")


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

    Scores all the observations at once, which for a normal forecast
    runs the closed-form kernels of ``uniscores``.  The weight is the
    indicator of exceeding ``t``, which the censoring chaining of the
    threshold-weighted score integrates.
    """
    _check_finite("t", t)
    _check_finite("x0", x0)
    if ys is None:
        ys = np.linspace(-3.0, 3.0, 121)
    ys = np.asarray(ys, dtype=float)
    f, w = Normal(0.0, 1.0), IndicatorAbove(t)
    curves = [_parametric_score(s, f, ys, w, x0) for s in ("crps", "twcrps", "owcrps", "vrcrps")]
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
    _check_size("n", n, 2)
    _check_finite("t", t)
    if not 0.0 < sigma2 < 1.0:
        raise ContractViolation("sigma2 must lie in (0, 1)")
    gen = _rng(seed)
    mu = gen.normal(0.0, np.sqrt(1.0 - sigma2), n)
    y = gen.normal(mu, np.sqrt(sigma2))
    f = Normal(mu, sigma2)
    pit_vals = f.cdf(y)
    exceed = y > t
    cpit_vals = _cpit_values(f.sf(t)[exceed], f.sf(y)[exceed])
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
    _check_size("n", n, 2)
    _check_finite("t", t)
    gen = _rng(seed)
    tau = np.sqrt(2.0 / 3.0)
    s_log = 1.0 / np.pi
    cond_var = 1.0 / 3.0
    mu = gen.normal(0.0, tau, n)
    y = mu + gen.logistic(0.0, s_log, n)
    exceed = y > t

    s_t5 = np.sqrt(cond_var * (5.0 - 2.0) / 5.0)
    families = (
        ("normal", Normal(mu, cond_var)),
        ("logistic", Logistic(mu, s_log)),
        ("student_t5", StudentT(5.0, mu, s_t5)),
    )

    out = {}
    for idx, (name, f) in enumerate(families):
        st = f.sf(t)
        cp = _cpit_values(st[exceed], f.sf(y)[exceed])
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


def _propriety_uni(scores, n_pairs: int, n: int, seed) -> dict:
    """Rows of each univariate score in ``scores``, by score name, all
    scored on one set of draws per pair; vrcrps is anchored at 0."""
    rows = {s: [] for s in scores}
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, 101, i))
        g, f, desc = _uni_pair(rng, i)
        ys = g.sample(n, rng)
        t = float(g.ppf(rng.uniform(0.4, 0.85)))
        sd = np.sqrt(g.variance())
        centre = g.mean() + 0.5 * sd
        for score in rows:
            w, label = Constant(), score
            if score == "owcrps_bs":
                w = IndicatorAbove(t)
            elif score in ("twcrps", "vrcrps"):
                w = _uni_weight(i if score == "twcrps" else i + 1, centre, sd)
                label = f"{score}[{type(w).__name__}]"
            a, b = (_parametric_score(score, dist, ys, w) for dist in (g, f))
            rows[score].append(_propriety_row(label, desc, a, b))
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
    x = rng.standard_normal((n, m, d)) @ chol.T
    x += mu
    return x


# Cases per block of the multivariate propriety draws, the bound on the
# draws, which the kernel never sees: each block of members is drawn,
# scored and dropped before the next, so the harness holds one (block,
# m, d) stack, about 0.6 MB for m = 50 in 3 dimensions, at a time.
_DRAW_BLOCK = 512


def _propriety_mv(scores, n_pairs: int, n: int, m: int, seed) -> dict:
    """Rows of each multivariate score in ``scores``, by score name, all
    scored on one set of draws per pair by one kernel call per block of
    draws of each side.  The generator draws the observations, then the
    truth's members, then the alternative's, ``_DRAW_BLOCK`` cases at a
    time; each block is scored as it is drawn and then dropped, so
    memory grows with n only by the observations and the score values.
    The weights emphasise the region above q, roughly the 30th
    percentile componentwise: [q, inf) chains the twes and twvs onto q,
    a Gaussian cdf re-scales vres."""
    d = 3
    h = np.ones((d, d))
    rows = {s: [] for s in scores}
    for i in range(n_pairs):
        rng = np.random.default_rng((seed, 202, i))
        pg, pf, desc = _mv_pair(rng, i, d)
        ys = _mv_sample(rng, pg, n, 1, d)[:, 0, :]
        mu, sd, _ = pg
        q = mu - 0.5 * sd
        box = BoxIndicator(q, np.full(d, np.inf))
        weights = {s: MvGaussCdf(q, sd) if s == "vres" else box for s in rows}
        kernel = _mv_kernel(weights, q, 0.5, h)
        a, b = ({s: np.empty(n) for s in rows} for _ in range(2))
        for params, out in ((pg, a), (pf, b)):
            for lo in range(0, n, _DRAW_BLOCK):
                y = ys[lo : lo + _DRAW_BLOCK]
                for score, values in kernel(_mv_sample(rng, params, len(y), m, d), y).items():
                    out[score][lo : lo + len(y)] = values
        for score in rows:
            rows[score].append(_propriety_row(score, desc, a[score], b[score]))
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
    Univariate forecasts are scored as full distributions by the route
    of the per-case functions, in closed form for a normal forecast
    under the unit or an indicator weight and on a tabulated cdf
    otherwise; multivariate ones as 50-member samples, drawn the same
    way for both sides so the finite-ensemble bias cancels in the
    comparison, by the kernels that ``archive`` scores its cases with.

    What a run holds grows with the sample sizes only by the
    observations and one value per observation and score: the
    multivariate members are drawn, scored and dropped ``_DRAW_BLOCK``
    cases at a time, and the tabulated cdf evaluates its integrals at
    ``uniscores._POINTS`` points at a time.
    """
    _check_size("n_pairs", n_pairs, 1)
    _check_size("n_uni", n_uni, 2)
    _check_size("n_mv", n_mv, 2)
    _check_size("m_members", m_members, 1)
    if isinstance(scores, str):
        scores = scores.split(",")
    chosen = tuple(scores) if scores else _UNI_SCORES + _MV_SCORES
    for s in chosen:
        if s not in _UNI_SCORES + _MV_SCORES:
            raise ContractViolation(f"unknown score {s!r}")
    uni = [s for s in _UNI_SCORES if s in chosen]
    mv = [s for s in _MV_SCORES if s in chosen]
    rows = _propriety_uni(uni, n_pairs, n_uni, seed) if uni else {}
    rows.update(_propriety_mv(mv, n_pairs, n_mv, m_members, seed) if mv else {})
    return [r for s in chosen for r in rows[s]]


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


def run_impropriety_demo(
    t: float = 0.5, n: int = 100_000, seed: int = 20240804
) -> ImproprietyResult:
    """Show that w(y) * CRPS rewards hedging while twCRPS does not.

    Outcomes are standard normal.  The naive rule multiplies the CRPS
    by the indicator of exceeding ``t``, which favours a forecaster who
    shifts all mass beyond ``t``; the threshold-weighted CRPS with the
    same indicator favours the honest forecaster.  The hedger forecasts
    the truth truncated to (t, inf), scored in closed form: its naive
    score is the truth's owCRPS, and its twCRPS, under the censoring at
    t, is its CRPS at max(y, t).
    """
    _check_size("n", n, 2)
    _check_finite("t", t)
    gen = _rng(seed)
    truth = Normal(0.0, 1.0)
    mass = truth.sf(t)
    if mass <= MASS_FLOOR:
        raise WeightedMassZero(f"no forecast mass above {t}")
    ys = truth.sample(n, gen)
    w = IndicatorAbove(t)
    wy = np.asarray(w(ys), dtype=float)

    naive_a = wy * _parametric_score("crps", truth, ys, Constant())
    naive_b = _parametric_score("owcrps", truth, ys, w)
    tw_a = _parametric_score("twcrps", truth, ys, w)
    tw_b = _tnorm_crps(np.maximum(ys, t), t, mass)
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
