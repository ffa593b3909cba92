"""Statistical post-processing of ensemble forecasts.

The chain is: correct raw temperatures for the height mismatch between
model grid cell and station, fit a normal regression model (mean linear
in the ensemble mean and station descriptors, variance linear in the
ensemble variance) by minimising the closed-form CRPS over a rolling
training window, and restore a physically ordered ensemble by sampling
equidistant quantiles and reordering them like the raw members.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.special import ndtr

from .exceptions import ContractViolation, DimensionMismatch, InsufficientData
from .forecasts import Ensemble, Normal, Parametric, _scalar_or_array, _std_pdf
from .mvscores import MvEnsemble

__all__ = [
    "LAPSE_RATE",
    "VARIANCE_FLOOR",
    "StationMeta",
    "TrainingWindow",
    "EmosParams",
    "lapse_rate_correct",
    "smooth_ensemble",
    "fit_climatology",
    "fit_emos",
    "predict_emos",
    "emos_mean_variance",
    "ecc_reorder",
]

# Temperature increase per metre of height the model grid cell sits
# above the true station height (deg C / m).
LAPSE_RATE = 0.006

# Predictive variances are floored here to keep scores finite.
VARIANCE_FLOOR = 1e-6

_MIN_CASES = 10


def lapse_rate_correct(values, model_height, station_height, rate: float = LAPSE_RATE):
    """Correct temperatures for the model-station height mismatch.

    A grid cell higher than the station is colder than the station
    would be, so the forecast is warmed by ``rate`` per metre of height
    difference, and vice versa.
    """
    values = np.asarray(values, dtype=float)
    out = values + rate * (np.asarray(model_height, dtype=float) - np.asarray(station_height, dtype=float))
    return _scalar_or_array(out)


def _smooth_moments(x: np.ndarray) -> tuple:
    """Mean and variance of the normal fit to each row of an (n, m) member
    array: member mean and (m-1) variance, floored at VARIANCE_FLOOR."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractViolation("smoothing needs at least two members")
    return x.mean(axis=1), np.maximum(x.var(axis=1, ddof=1), VARIANCE_FLOOR)


def smooth_ensemble(forecast) -> Normal:
    """Normal fit to an ensemble: member mean and (n-1) variance.

    The variance is floored at VARIANCE_FLOOR so identical members
    still produce a usable forecast.
    """
    x = forecast.members if isinstance(forecast, Ensemble) else np.asarray(forecast, dtype=float)
    mean, var = _smooth_moments(x[None])
    return Normal(float(mean[0]), float(var[0]))


def fit_climatology(values) -> Normal:
    """Normal climatology from a window of past observations."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < _MIN_CASES:
        raise InsufficientData(
            f"climatology needs at least {_MIN_CASES} observations, got {x.size}"
        )
    if not np.all(np.isfinite(x)):
        raise ContractViolation("observations must be finite")
    return smooth_ensemble(x)


@dataclass(frozen=True)
class StationMeta:
    """Static station descriptors used as regression covariates.

    ``mhd`` is the model minus station height difference (m) and
    ``tpi`` the topographic position index (m).
    """

    station_id: str
    mhd: float = 0.0
    tpi: float = 0.0


@dataclass
class TrainingWindow:
    """Rolling pool of training cases for the regression fit.

    Cases are (ensemble mean, ensemble variance, station descriptors,
    observation) tuples tagged with their date.  The window keeps the
    most recent ``capacity_days`` distinct dates; with several stations
    per date the pool holds one case per station and day.  Dates must
    arrive in non-decreasing order.
    """

    capacity_days: int = 45
    dates: list = field(default_factory=list)
    xbar: list = field(default_factory=list)
    var: list = field(default_factory=list)
    mhd: list = field(default_factory=list)
    tpi: list = field(default_factory=list)
    obs: list = field(default_factory=list)

    def __post_init__(self):
        if self.capacity_days < 1:
            raise ContractViolation("capacity must be at least one day")

    @property
    def size(self) -> int:
        return len(self.dates)

    @property
    def distinct_days(self) -> int:
        return len(set(self.dates))

    def add_case(
        self,
        date: datetime.date,
        xbar: float,
        var: float,
        meta: StationMeta,
        obs: float,
    ) -> None:
        if self.dates and date < self.dates[-1]:
            raise ContractViolation("training cases must arrive in date order")
        if var < 0.0:
            raise ContractViolation("ensemble variance cannot be negative")
        self.dates.append(date)
        self.xbar.append(float(xbar))
        self.var.append(float(var))
        self.mhd.append(float(meta.mhd))
        self.tpi.append(float(meta.tpi))
        self.obs.append(float(obs))
        days = sorted(set(self.dates))
        if len(days) > self.capacity_days:
            cutoff = days[-self.capacity_days]
            keep = [i for i, d in enumerate(self.dates) if d >= cutoff]
            for name in ("dates", "xbar", "var", "mhd", "tpi", "obs"):
                lst = getattr(self, name)
                setattr(self, name, [lst[i] for i in keep])

    def arrays(self):
        return (
            np.asarray(self.xbar, dtype=float),
            np.asarray(self.var, dtype=float),
            np.asarray(self.mhd, dtype=float),
            np.asarray(self.tpi, dtype=float),
            np.asarray(self.obs, dtype=float),
        )


@dataclass(frozen=True)
class EmosParams:
    """Fitted regression parameters.

    Mean: beta0 + beta1 * ensemble mean + beta2 * mhd + beta3 * tpi.
    Variance: sigma0 + sigma1 * ensemble variance (floored).
    """

    beta: tuple
    sigma0: float
    sigma1: float
    converged: bool = True
    n_iter: int = 0
    objective: float = float("nan")

    def __post_init__(self):
        beta = tuple(float(b) for b in self.beta)
        if len(beta) != 4:
            raise ContractViolation("beta must have four entries")
        if self.sigma0 <= 0.0 or self.sigma1 <= 0.0:
            raise ContractViolation("variance coefficients must stay positive")
        object.__setattr__(self, "beta", beta)

    def to_dict(self) -> dict:
        return {
            "beta": list(self.beta),
            "sigma0": self.sigma0,
            "sigma1": self.sigma1,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EmosParams":
        return cls(
            beta=tuple(d["beta"]),
            sigma0=d["sigma0"],
            sigma1=d["sigma1"],
            converged=d["converged"],
            n_iter=d["n_iter"],
            objective=d["objective"],
        )


_INIT_THETA = np.array([0.0, 1.0, 0.0, 0.0, 0.0, np.log(0.1)])
_GRAD_TOL = 1e-6
_MAX_ITER = 500


def _design(xbar, mhd, tpi) -> np.ndarray:
    return np.column_stack([np.ones_like(xbar), xbar, mhd, tpi])


def _objective_and_grad(theta, X, var, y):
    beta = theta[:4]
    s0 = np.exp(theta[4])
    s1 = np.exp(theta[5])
    mu = X @ beta
    v = np.maximum(s0 + s1 * var, VARIANCE_FLOOR)
    sig = np.sqrt(v)
    z = (y - mu) / sig
    cdf = ndtr(z)
    pdf = _std_pdf(z)
    crps = sig * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - 1.0 / np.sqrt(np.pi))
    dmu = 1.0 - 2.0 * cdf
    dsig = 2.0 * pdf - 1.0 / np.sqrt(np.pi)
    n = y.size
    grad = np.empty(6)
    grad[:4] = X.T @ dmu / n
    live = (s0 + s1 * var) > VARIANCE_FLOOR
    half = np.where(live, dsig / (2.0 * sig), 0.0)
    grad[4] = np.mean(half) * s0
    grad[5] = np.mean(half * var) * s1
    return float(np.mean(crps)), grad


def fit_emos(window, init: EmosParams | None = None, history: list | None = None) -> EmosParams:
    """Fit the regression by CRPS minimisation over a training window.

    Quasi-Newton minimisation in (beta, log sigma0, log sigma1), warm
    started from ``init`` when given.  Stops when the projected gradient
    drops below 1e-6 or after 500 iterations; in the latter case the
    best parameters so far are returned with ``converged`` unset rather
    than raising.  ``history``, if supplied, collects the objective at
    every accepted iterate.
    """
    if isinstance(window, TrainingWindow):
        xbar, var, mhd, tpi, y = window.arrays()
    else:
        xbar, var, mhd, tpi, y = (np.asarray(a, dtype=float) for a in window)
    n = y.size
    if n < _MIN_CASES:
        raise InsufficientData(f"the fit needs at least {_MIN_CASES} cases, got {n}")
    X = _design(xbar, mhd, tpi)

    if init is None:
        theta0 = _INIT_THETA.copy()
    else:
        theta0 = np.concatenate(
            [np.asarray(init.beta, dtype=float), np.log([init.sigma0, init.sigma1])]
        )

    def fun(theta):
        return _objective_and_grad(theta, X, var, y)

    callback = None
    if history is not None:
        def callback(xk):
            history.append(fun(xk)[0])

    res = optimize.minimize(
        fun,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": _MAX_ITER, "gtol": _GRAD_TOL, "ftol": 1e-14},
    )
    theta = res.x
    grad_ok = float(np.max(np.abs(res.jac))) <= 10.0 * _GRAD_TOL
    return EmosParams(
        beta=tuple(theta[:4]),
        sigma0=max(float(np.exp(theta[4])), 1e-12),
        sigma1=max(float(np.exp(theta[5])), 1e-12),
        converged=bool(res.success or grad_ok),
        n_iter=int(res.nit),
        objective=float(res.fun),
    )


def emos_mean_variance(params: EmosParams, xbar, var, mhd, tpi):
    """Predictive mean and variance arrays for fitted parameters."""
    xbar = np.asarray(xbar, dtype=float)
    mu = _design(xbar, np.asarray(mhd, dtype=float), np.asarray(tpi, dtype=float)) @ np.asarray(params.beta)
    v = np.maximum(params.sigma0 + params.sigma1 * np.asarray(var, dtype=float), VARIANCE_FLOOR)
    return mu, v


def predict_emos(params: EmosParams, xbar: float, var: float, meta: StationMeta) -> Normal:
    """Predictive normal distribution for one case."""
    if var < 0.0:
        raise ContractViolation("ensemble variance cannot be negative")
    mu, v = emos_mean_variance(params, [xbar], [var], [meta.mhd], [meta.tpi])
    return Normal(float(mu[0]), float(v[0]))


def ecc_reorder(margins, raw) -> MvEnsemble:
    """Ensemble copula coupling with equidistant quantiles.

    Draws the m quantiles at levels (i - 1/2) / m from each fitted
    margin and arranges them in the rank order of the raw ensemble in
    that dimension (ties broken by member index), so the output keeps
    the raw member-to-member dependence structure exactly.
    """
    raw = raw if isinstance(raw, MvEnsemble) else MvEnsemble(np.asarray(raw, dtype=float))
    margins = list(margins)
    if len(margins) != raw.dim:
        raise DimensionMismatch(
            f"{len(margins)} margins for a {raw.dim}-dimensional ensemble"
        )
    for mg in margins:
        if not isinstance(mg, Parametric):
            raise ContractViolation("margins must be parametric forecasts")
    m = raw.size
    levels = (np.arange(m) + 0.5) / m
    out = np.empty_like(raw.members)
    for i, mg in enumerate(margins):
        q = np.asarray(mg.ppf(levels), dtype=float)
        order = np.argsort(raw.members[i], kind="stable")
        ranks = np.empty(m, dtype=int)
        ranks[order] = np.arange(m)
        out[i] = q[ranks]
    return MvEnsemble(out)
