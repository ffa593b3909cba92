"""Statistical post-processing of ensemble forecasts.

The chain is: correct raw temperatures for the height mismatch between
model grid cell and station, fit a normal regression model (mean linear
in the ensemble mean and station descriptors, variance linear in the
ensemble variance) by minimising the closed-form CRPS over a rolling
training window with damped Newton steps on its closed-form gradient and
Hessian (Gneiting, Raftery, Westveld & Goldman 2005), and restore a
physically ordered ensemble by sampling equidistant quantiles and
reordering them like the raw members (Schefzik, Thorarinsdottir &
Gneiting 2013).  The kernels take arrays: a training window is any set of
columns (an index range over records sorted by lead time, date and station
in the CLI), and ``predict_emos`` and ``ecc_reorder`` are one-case
wrappers over ``emos_mean_variance`` and ``_ecc_place``.
"""

from __future__ import annotations

import bisect
import datetime
from dataclasses import dataclass, field, fields

import numpy as np
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
    _n_days: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.capacity_days < 1:
            raise ContractViolation("capacity must be at least one day")
        self._n_days = len(set(self.dates))

    @property
    def size(self) -> int:
        return len(self.dates)

    @property
    def distinct_days(self) -> int:
        return self._n_days

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
        new_day = not self.dates or date != self.dates[-1]
        self.dates.append(date)
        self.xbar.append(float(xbar))
        self.var.append(float(var))
        self.mhd.append(float(meta.mhd))
        self.tpi.append(float(meta.tpi))
        self.obs.append(float(obs))
        if not new_day:
            return
        self._n_days += 1
        # Dates are sorted, so the oldest day is a prefix of every list.
        while self._n_days > self.capacity_days:
            k = bisect.bisect_right(self.dates, self.dates[0])
            for lst in (self.dates, self.xbar, self.var, self.mhd, self.tpi, self.obs):
                del lst[:k]
            self._n_days -= 1

    def arrays(self):
        return tuple(np.asarray(c, float) for c in (self.xbar, self.var, self.mhd, self.tpi, self.obs))


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
        return {f.name: getattr(self, f.name) for f in fields(self)} | {"beta": list(self.beta)}

    @classmethod
    def from_dict(cls, d: dict) -> "EmosParams":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


_INIT_THETA = np.array([0.0, 1.0, 0.0, 0.0, 0.0, np.log(0.1)])
_GRAD_TOL = 1e-6
_DECREMENT_TOL = 1e-14
_MAX_ITER = 500
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


def _design(xbar, mhd, tpi) -> np.ndarray:
    return np.column_stack([np.ones_like(xbar), xbar, mhd, tpi])


def _objective_grad_hess(theta, X, var, y):
    """Mean CRPS of the regression, its gradient and its Hessian in theta.

    In (mu, sigma) the normal CRPS has the gradient (1 - 2 Phi(z),
    2 phi(z) - 1/sqrt(pi)) and the rank-one Hessian (2 phi(z) / sigma)
    [1, z]^T [1, z].  Through mu = X beta and sigma = sqrt(s0 + s1 var)
    the data term becomes U^T diag(2 phi / sigma) U / n with U = [X,
    z dsigma/dlog s0, z dsigma/dlog s1], and the sigma-gradient times
    the second derivatives of sigma adds to the two log-sigma entries.
    Cases whose variance sits on VARIANCE_FLOOR do not move sigma.
    """
    s0, s1 = np.exp(theta[4:])
    raw = s0 + s1 * var
    sig = np.sqrt(np.maximum(raw, VARIANCE_FLOOR))
    z = (y - X @ theta[:4]) / sig
    cdf = ndtr(z)
    pdf = _std_pdf(z)
    dsig = 2.0 * pdf - 1.0 / np.sqrt(np.pi)
    crps = sig * (z * (2.0 * cdf - 1.0) + dsig)
    n = y.size
    live = raw > VARIANCE_FLOOR
    ds0 = np.where(live, s0 / (2.0 * sig), 0.0)
    ds1 = np.where(live, s1 * var / (2.0 * sig), 0.0)
    grad = np.empty(6)
    grad[:4] = X.T @ (1.0 - 2.0 * cdf) / n
    grad[4] = np.mean(dsig * ds0)
    grad[5] = np.mean(dsig * ds1)
    U = np.column_stack([X, z * ds0, z * ds1])
    hess = (U.T * (2.0 * pdf / sig)) @ U / n
    # d2 sigma / dlog s_i dlog s_j = delta_ij ds_i - ds_i ds_j / sigma
    curv = dsig / sig
    hess[4, 4] += grad[4] - np.mean(curv * ds0 * ds0)
    hess[5, 5] += grad[5] - np.mean(curv * ds1 * ds1)
    cross = np.mean(curv * ds0 * ds1)
    hess[4, 5] -= cross
    hess[5, 4] -= cross
    return float(np.mean(crps)), grad, hess


def _newton_step(grad, hess):
    """Newton direction on H + lambda I and the decrement g^T (H + lambda I)^-1 g.

    Coefficients whose diagonal entry of H is 0, such as a covariate
    column of zeros or log sigma1 when every ensemble variance is 0, do
    not move the objective; they keep a zero step.  On the others lambda
    stays 0 while H has a Cholesky factor, and otherwise rises by factors
    of ten from 1e-8 until H + lambda I has one (Levenberg-Marquardt).
    """
    free = np.diag(hess) != 0.0
    h, g = hess[np.ix_(free, free)], grad[free]
    lam = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(h + lam * np.eye(g.size))
            break
        except np.linalg.LinAlgError:
            lam = 1e-8 if lam == 0.0 else 10.0 * lam
    half = np.linalg.solve(chol, g)
    step = np.zeros_like(grad)
    step[free] = -np.linalg.solve(chol.T, half)
    return step, float(half @ half)


def fit_emos(window, init: EmosParams | None = None, history: list | None = None) -> EmosParams:
    """Fit the regression by CRPS minimisation over a training window.

    Damped Newton steps in (beta, log sigma0, log sigma1) on the closed-form
    gradient and Hessian, warm started from ``init`` when given.  Each step
    solves with the Cholesky factor of the Hessian, damped by lambda I when
    the Hessian is not positive definite, and backtracks to the Armijo
    condition.  The fit stops when the largest gradient entry is at most
    1e-6 and the Newton decrement at most 1e-14 (``converged``); it also
    stops when the line search cannot lower the objective or after 500
    iterations, and is then ``converged`` only if the largest gradient entry
    is at most 1e-5.  The line search is monotone, so the last iterate is
    the best one and is returned rather than raising.  ``n_iter`` counts
    Newton iterations; ``history``, if supplied, collects the objective at
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

    theta = _INIT_THETA if init is None else np.r_[init.beta, np.log([init.sigma0, init.sigma1])]

    f, grad, hess = _objective_grad_hess(theta, X, var, y)
    n_iter = 0
    stopped = False
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite Hessian (a NaN observation, say) ends the fit unconverged
        while np.all(np.isfinite(hess)):
            step, decrement = _newton_step(grad, hess)
            if np.max(np.abs(grad)) <= _GRAD_TOL and decrement <= _DECREMENT_TOL:
                stopped = True
                break
            if n_iter == _MAX_ITER:
                break
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = theta + t * step
                f_new, g_new, h_new = _objective_grad_hess(trial, X, var, y)
                if f_new < f - _ARMIJO * t * decrement:
                    break
                t *= 0.5
            else:
                break
            theta, f, grad, hess = trial, f_new, g_new, h_new
            n_iter += 1
            if history is not None:
                history.append(f)
    return EmosParams(
        beta=tuple(theta[:4]),
        sigma0=max(float(np.exp(theta[4])), 1e-12),
        sigma1=max(float(np.exp(theta[5])), 1e-12),
        converged=stopped or float(np.max(np.abs(grad))) <= 10.0 * _GRAD_TOL,
        n_iter=n_iter,
        objective=f,
    )


def emos_mean_variance(params: EmosParams, xbar, var, mhd, tpi):
    """Predictive mean and variance arrays for fitted parameters.  The mean
    is a stack of one-case dot products, so every case gets the bits it
    gets alone; one matrix-vector product may sum in another order."""
    X = _design(*(np.asarray(a, dtype=float) for a in (xbar, mhd, tpi)))
    mu = (X[:, None, :] @ np.asarray(params.beta)[:, None])[:, 0, 0]
    v = np.maximum(params.sigma0 + params.sigma1 * np.asarray(var, dtype=float), VARIANCE_FLOOR)
    return mu, v


def predict_emos(params: EmosParams, xbar: float, var: float, meta: StationMeta) -> Normal:
    """Predictive normal distribution for one case."""
    if var < 0.0:
        raise ContractViolation("ensemble variance cannot be negative")
    mu, v = emos_mean_variance(params, [xbar], [var], [meta.mhd], [meta.tpi])
    return Normal(float(mu[0]), float(v[0]))


def _ecc_place(q, raw) -> np.ndarray:
    """Sorted quantiles ``q`` (..., m) placed in the rank order of the raw
    members (..., m) of each margin, ties broken by member index."""
    out = np.empty(np.shape(raw))
    np.put_along_axis(out, np.argsort(raw, axis=-1, kind="stable"), q, axis=-1)
    return out


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
    levels = (np.arange(raw.size) + 0.5) / raw.size
    q = np.array([np.asarray(mg.ppf(levels), dtype=float) for mg in margins])
    return MvEnsemble(_ecc_place(q, raw.members))
