"""Calibration diagnostics: PIT, ranks, conditional PIT, reliability.

Conditional variants restrict attention to outcomes beyond a threshold,
which is where high-impact verification lives.  All randomised pieces
(rank tie-breaking, consistency bands, sampling) take an explicit seed
or generator so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ContractViolation,
    DegenerateConditional,
    DimensionMismatch,
    InsufficientData,
    UnsupportedInput,
)
from .forecasts import Ensemble, Forecast, IndependentProduct, Parametric
from .weights import MASS_FLOOR

__all__ = [
    "HistogramSummary",
    "ReliabilityFit",
    "pit",
    "rank",
    "cpit",
    "pit_ecdf",
    "histogram_summary",
    "rank_histogram",
    "reliability_index",
    "corp_reliability",
    "prerank_cpit",
]

# Minimum ensemble members beyond the threshold for conditional work.
MIN_TAIL_MEMBERS = 10


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# PIT and ranks
# ---------------------------------------------------------------------------


def _ranks(members: np.ndarray, obs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """1-based ranks of observations (n,) among members (n, m), ties broken
    by one ``gen.integers(0, ties + 1)`` call: the stream of one scalar call
    per case in case order, which a case without ties leaves as it is."""
    y = obs[:, None]
    below = np.sum(members < y, axis=1)
    ties = np.sum(members == y, axis=1)
    return 1 + below + gen.integers(0, ties + 1)


def _cpit_values(st, sy) -> np.ndarray:
    """Conditional PIT beyond t, (S(t) - S(y)) / S(t) clipped to [0, 1],
    elementwise from survival values st = S(t) and sy = S(y) (one S(t) may
    serve many y).  The survival form keeps its relative accuracy deep in
    the right tail, where 1 - F(t) cancels.  NaN where S(t) is at or below
    MASS_FLOOR: the forecast has essentially no mass above t."""
    st, sy = np.asarray(st, dtype=float), np.asarray(sy, dtype=float)
    ok = st > MASS_FLOOR
    u = np.clip((st - sy) / np.where(ok, st, 1.0), 0.0, 1.0)
    return np.where(ok, u, np.nan)


def pit(forecast: Forecast, y: float) -> float:
    """Probability integral transform F(y) of a parametric forecast."""
    if isinstance(forecast, Ensemble):
        raise UnsupportedInput(
            "pit needs a smooth cdf; use rank for ensembles, or smooth them "
            "with postprocess.smooth_ensemble first"
        )
    if not isinstance(forecast, Parametric):
        raise ContractViolation("pit needs a univariate parametric forecast")
    return float(forecast.cdf(float(y)))


def rank(forecast, y: float, rng) -> int:
    """Rank of the observation within the pooled ensemble, 1-based.

    Ranks run from 1 (below every member) to m + 1 (above every member).
    Ties are broken uniformly at random among the admissible positions,
    driven by the supplied seed or generator.
    """
    members = forecast.members if isinstance(forecast, Ensemble) else np.asarray(
        forecast, dtype=float
    )
    if members.ndim != 1 or members.size == 0:
        raise ContractViolation("rank needs a non-empty 1-d ensemble")
    return int(_ranks(members[None], np.array([float(y)]), _rng(rng))[0])


def cpit(forecast: Forecast, y: float, t: float) -> float | None:
    """Conditional PIT beyond threshold t.

    Returns (S(t) - S(y)) / S(t), the conditional cdf of the forecast
    given exceedance of t at y, when y > t, and None when the case does
    not qualify (y <= t).  Ensembles are smoothed to a normal first and
    need at least MIN_TAIL_MEMBERS members above t so the conditional
    tail is actually informed by the sample.

    Raises
    ------
    DegenerateConditional
        If the forecast puts essentially no mass above t.
    """
    y = float(y)
    t = float(t)
    if y <= t:
        return None
    if isinstance(forecast, Ensemble):
        n_above = int(np.sum(forecast.members > t))
        if n_above < MIN_TAIL_MEMBERS:
            raise UnsupportedInput(
                f"only {n_above} of {forecast.size} members exceed {t}; "
                f"conditional assessment needs at least {MIN_TAIL_MEMBERS}"
            )
        from .postprocess import smooth_ensemble

        forecast = smooth_ensemble(forecast)
    if not isinstance(forecast, Parametric):
        raise ContractViolation("cpit needs a parametric or ensemble forecast")
    tail = float(forecast.sf(t))
    u = float(_cpit_values(tail, forecast.sf(y)))
    if np.isnan(u):
        raise DegenerateConditional(
            f"forecast probability above {t} is {tail:.3e}; conditional PIT undefined"
        )
    return u


def pit_ecdf(values) -> tuple[np.ndarray, np.ndarray]:
    """Empirical cdf of PIT values: sorted values and levels i/n."""
    u = np.sort(np.asarray(values, dtype=float))
    if u.size == 0:
        raise InsufficientData("no PIT values")
    return u, np.arange(1, u.size + 1) / u.size


# ---------------------------------------------------------------------------
# histograms and the reliability index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramSummary:
    """Binned frequencies of PIT values or ranks."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if edges.size != counts.size + 1:
            raise DimensionMismatch("need one more edge than bins")
        if int(counts.sum()) != self.n or self.n <= 0:
            raise ContractViolation("counts must sum to n > 0")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.size

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.n


def histogram_summary(values, bins: int = 20, lo: float = 0.0, hi: float = 1.0) -> HistogramSummary:
    """Histogram of values in [lo, hi] with equal bins (20 by default)."""
    u = np.asarray(values, dtype=float)
    if u.size == 0:
        raise InsufficientData("no values to bin")
    if not np.all((u >= lo) & (u <= hi)):
        raise ContractViolation(f"values must lie inside [{lo}, {hi}]")
    if bins < 1:
        raise ContractViolation(f"bins must be at least 1, got {bins}")
    counts, edges = np.histogram(u, bins=bins, range=(lo, hi))
    return HistogramSummary(edges, counts, int(u.size))


def rank_histogram(ranks, n_ranks: int) -> HistogramSummary:
    """Histogram over the integer ranks 1 .. n_ranks."""
    r = np.asarray(ranks, dtype=int)
    if r.size == 0:
        raise InsufficientData("no ranks to bin")
    if np.any(r < 1) or np.any(r > n_ranks):
        raise ContractViolation(f"ranks must lie in 1 .. {n_ranks}")
    counts = np.bincount(r, minlength=n_ranks + 1)[1:]
    edges = np.arange(n_ranks + 1) + 0.5
    return HistogramSummary(edges, counts, int(r.size))


def reliability_index(hist) -> float:
    """Sum of absolute deviations of bin frequencies from uniformity."""
    if isinstance(hist, HistogramSummary):
        f = hist.frequencies
    else:
        f = np.asarray(hist, dtype=float)
        if f.size == 0 or abs(f.sum() - 1.0) > 1e-9:
            raise ContractViolation("frequencies must sum to one")
    k = f.size
    return float(np.sum(np.abs(f - 1.0 / k)))


# ---------------------------------------------------------------------------
# CORP reliability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityFit:
    """Isotonic recalibration of event probabilities.

    ``probs`` are the sorted forecast probabilities, ``cep`` the fitted
    conditional event probabilities, and the band curves bound where the
    fit would fall for a calibrated forecaster at the given level.
    """

    probs: np.ndarray
    cep: np.ndarray
    band_lower: np.ndarray
    band_upper: np.ndarray
    level: float
    n: int


# Positions at which the CORP consistency band is resampled at most.
_BAND_PROBES = 1024


def _thin(n: int, limit: int) -> np.ndarray:
    """Indices of at most ``limit`` evenly spaced positions out of ``n``."""
    if n <= limit:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, limit).round().astype(int))


def _isotonic(y: np.ndarray, at=None) -> np.ndarray:
    """Non-decreasing least-squares fit to the 0/1 outcomes ``y``, at the
    positions ``at`` (everywhere by default).

    Each run of equal outcomes is pooled into one point weighted by its
    length.  The fit is constant on equal neighbours, so this is the fit
    to ``y`` itself, from a PAVA pass over the runs alone.
    """
    # Imported on first use: commands that draw no CORP diagram do not
    # pay for loading scipy.optimize.
    from scipy.optimize import isotonic_regression

    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    lengths = np.diff(np.append(starts, y.size))
    fit = isotonic_regression(y[starts].astype(float), weights=lengths.astype(float)).x
    if at is None:
        return np.repeat(fit, lengths)
    return fit[np.searchsorted(starts, at, side="right") - 1]


def corp_reliability(
    probs,
    outcomes,
    level: float = 0.99,
    resamples: int = 1000,
    seed=0,
) -> ReliabilityFit:
    """CORP reliability diagram data with a consistency band.

    Sorts cases by forecast probability, pools adjacent violators to get
    non-decreasing conditional event probabilities, and resamples
    outcomes under the hypothesis of calibration to trace out a central
    band at ``level``.  For large inputs the band is evaluated on at
    most ``_BAND_PROBES`` positions and interpolated between them.
    """
    p = np.asarray(probs, dtype=float)
    o = np.asarray(outcomes, dtype=float)
    if p.shape != o.shape or p.ndim != 1:
        raise DimensionMismatch("probs and outcomes must be 1-d arrays of equal length")
    if p.size == 0:
        raise InsufficientData("no cases")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ContractViolation("probabilities must lie in [0, 1]")
    if not np.all((o == 0.0) | (o == 1.0)):
        raise ContractViolation("outcomes must be 0 or 1")
    if not 0.0 < level < 1.0:
        raise ContractViolation("level must lie in (0, 1)")
    if resamples < 1:
        raise ContractViolation(f"resamples must be at least 1, got {resamples}")

    order = np.argsort(p, kind="stable")
    ps = p[order]
    os_ = o[order]
    cep = _isotonic(os_)

    n = ps.size
    gen = _rng(seed)
    probe = _thin(n, _BAND_PROBES)
    sims = np.empty((resamples, probe.size))
    # Drawn into buffers made once, from the same stream as fresh arrays.
    u = np.empty(n)
    sim = np.empty(n, dtype=bool)
    for r in range(resamples):
        gen.random(out=u)
        np.less(u, ps, out=sim)
        sims[r] = _isotonic(sim, probe)
    alpha = 1.0 - level
    lo_q = np.quantile(sims, alpha / 2.0, axis=0)
    hi_q = np.quantile(sims, 1.0 - alpha / 2.0, axis=0)
    idx = np.arange(n)
    band_lower = np.interp(idx, probe, lo_q)
    band_upper = np.interp(idx, probe, hi_q)
    return ReliabilityFit(ps, cep, band_lower, band_upper, level, n)


# ---------------------------------------------------------------------------
# pre-rank conditional PIT
# ---------------------------------------------------------------------------


def _apply_prerank(prerank, pts: np.ndarray) -> np.ndarray:
    """Evaluate a caller-supplied prerank on rows of (n, d).

    The prerank is tried on the whole (n, d) array first.  It is applied
    row by row only when that call gives the wrong shape or raises the
    kind of error a function written for one d-vector raises on a stack
    (TypeError, ValueError, IndexError); any other error propagates.
    """
    try:
        out = np.asarray(prerank(pts), dtype=float)
        if out.shape == (pts.shape[0],):
            return out
    except (TypeError, ValueError, IndexError):
        pass
    return np.asarray([float(prerank(row)) for row in pts], dtype=float)


def _is_increasing_on(margin: Parametric, prerank) -> bool:
    qs = margin.ppf(np.linspace(1e-6, 1.0 - 1e-6, 513))
    vals = _apply_prerank(prerank, qs[:, None])
    return bool(np.all(np.diff(vals) > 0.0))


def prerank_cpit(
    forecast,
    y,
    thresholds,
    prerank,
    n_samples: int = 200_000,
    seed=0,
) -> float | None:
    """Conditional PIT of a scalar summary of a multivariate outcome.

    The prerank function maps d-vectors to scalars; the conditional PIT
    of prerank(y) is taken against the distribution of prerank(X) under
    the forecast, conditioned beyond prerank(thresholds).  Parametric
    product forecasts are sampled (seeded); in one dimension a strictly
    increasing prerank reduces exactly to the univariate cpit.
    Ensembles are preranked member by member, then handled as in
    ``cpit`` (smoothing plus the minimum-tail-membership rule).
    """
    y = np.asarray(y, dtype=float)
    tvec = np.asarray(thresholds, dtype=float)

    if isinstance(forecast, IndependentProduct):
        d = forecast.dim
        if y.shape != (d,) or tvec.shape != (d,):
            raise DimensionMismatch("y and thresholds must be d-vectors")
        y_star = float(_apply_prerank(prerank, y[None, :])[0])
        t_star = float(_apply_prerank(prerank, tvec[None, :])[0])
        if y_star <= t_star:
            return None
        if d == 1 and _is_increasing_on(forecast.margins[0], prerank):
            return cpit(forecast.margins[0], float(y[0]), float(tvec[0]))
        gen = _rng(seed)
        s = _apply_prerank(prerank, forecast.sample(n_samples, gen))
        tail = float(np.mean(s > t_star))
        if tail * n_samples < MIN_TAIL_MEMBERS:
            raise DegenerateConditional(
                f"only {int(tail * n_samples)} of {n_samples} sampled preranks "
                f"exceed the threshold; conditional PIT is not estimable"
            )
        return float(_cpit_values(tail, np.mean(s > y_star)))

    # ensemble route
    from .mvscores import MvEnsemble

    if isinstance(forecast, MvEnsemble):
        d = forecast.dim
        if y.shape != (d,) or tvec.shape != (d,):
            raise DimensionMismatch("y and thresholds must be d-vectors")
        vals = _apply_prerank(prerank, forecast.members.T)
        y_star = float(_apply_prerank(prerank, y[None, :])[0])
        t_star = float(_apply_prerank(prerank, tvec[None, :])[0])
        return cpit(Ensemble(vals), y_star, t_star)

    raise ContractViolation(
        "prerank_cpit needs an IndependentProduct forecast or an MvEnsemble"
    )
