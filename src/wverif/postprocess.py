"""Statistical post-processing of ensemble forecasts.

The chain is: correct raw temperatures for the height mismatch between
model grid cell and station, fit a normal regression model (mean linear
in the ensemble mean and station descriptors, variance linear in the
ensemble variance) by minimising the closed-form CRPS over a rolling
training window with damped Newton steps on its closed-form gradient and
Hessian (Gneiting, Raftery, Westveld & Goldman 2005), and restore a
physically ordered ensemble by sampling equidistant quantiles and
reordering them like the raw members (Schefzik, Thorarinsdottir &
Gneiting 2013).  The kernels take arrays: a training window is a tuple of
(xbar, var, mhd, tpi, obs) columns, which the CLI slices as one index
range out of records sorted by lead time, date and station.
``_fit_chains`` fits several windows in lockstep, with one stacked
objective call per window length in each round, and every window gets
the bits it gets alone; ``fit_emos`` is its one-window wrapper, and
``predict_emos`` and ``ecc_reorder`` are one-case wrappers over
``emos_mean_variance`` and ``_ecc_place``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

from .exceptions import ContractViolation, DimensionMismatch, InsufficientData
from .forecasts import Ensemble, Normal, Parametric, _scalar_or_array, _std_pdf
from .mvscores import MvEnsemble

__all__ = [
    "LAPSE_RATE",
    "VARIANCE_FLOOR",
    "StationMeta",
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

    Takes one window or a stack of windows of one length: theta (..., 6),
    X (..., n, 4), var and y (..., n).  Each product and mean runs over one
    window's cases, so a window in a stack gets the bits it gets alone.
    """
    s = np.exp(theta[..., 4:, None])
    s0, s1 = s[..., 0, :], s[..., 1, :]
    raw = s0 + s1 * var
    sig = np.sqrt(np.maximum(raw, VARIANCE_FLOOR))
    z = (y - (X @ theta[..., :4, None])[..., 0]) / sig
    cdf = ndtr(z)
    pdf = _std_pdf(z)
    dsig = 2.0 * pdf - 1.0 / np.sqrt(np.pi)
    crps = sig * (z * (2.0 * cdf - 1.0) + dsig)
    n = y.shape[-1]

    def mean(a):  # np.mean's sum and division, without its overhead
        return np.add.reduce(a, axis=-1) / n

    live = raw > VARIANCE_FLOOR
    ds0 = np.where(live, s0 / (2.0 * sig), 0.0)
    ds1 = np.where(live, s1 * var / (2.0 * sig), 0.0)
    grad = np.empty(theta.shape)
    grad[..., :4] = (X.swapaxes(-1, -2) @ (1.0 - 2.0 * cdf)[..., None])[..., 0] / n
    grad[..., 4] = mean(dsig * ds0)
    grad[..., 5] = mean(dsig * ds1)
    U = np.concatenate([X, (z * ds0)[..., None], (z * ds1)[..., None]], axis=-1)
    hess = (U.swapaxes(-1, -2) * (2.0 * pdf / sig)[..., None, :]) @ U / n
    # d2 sigma / dlog s_i dlog s_j = delta_ij ds_i - ds_i ds_j / sigma
    curv = dsig / sig
    hess[..., 4, 4] += grad[..., 4] - mean(curv * ds0 * ds0)
    hess[..., 5, 5] += grad[..., 5] - mean(curv * ds1 * ds1)
    cross = mean(curv * ds0 * ds1)
    hess[..., 4, 5] -= cross
    hess[..., 5, 4] -= cross
    return mean(crps), grad, hess


def _newton_steps(grad, hess):
    """Newton directions on H + lambda I and the decrements g^T (H + lambda I)^-1 g
    of a stack of iterates: grad (k, 6), hess (k, 6, 6).

    Coefficients whose diagonal entry of H is 0, such as a covariate
    column of zeros or log sigma1 when every ensemble variance is 0, do
    not move the objective; they keep a zero step.  On the others lambda
    stays 0 while H has a Cholesky factor, and otherwise rises by factors
    of ten from 1e-8 until H + lambda I has one (Levenberg-Marquardt).
    The iterates with one set of such coefficients climb that ladder
    together, one stacked factorisation per rung for those still without
    a factor.  It calls numpy's Cholesky kernel without the wrapper that
    raises for the whole stack: under the caller's
    ``np.errstate(invalid="ignore")`` a failed factor comes back as NaNs.
    """
    free = np.diagonal(hess, axis1=1, axis2=2) != 0.0
    if free.all():
        return _damped_newton(grad, hess)
    step, decrement = np.zeros_like(grad), np.empty(len(grad))
    patterns = free.tolist()
    for keep in set(map(tuple, patterns)):
        rows = [r for r, f in enumerate(patterns) if tuple(f) == keep]
        cols = [j for j, f in enumerate(keep) if f]
        step[np.ix_(rows, cols)], decrement[rows] = _damped_newton(
            grad[np.ix_(rows, cols)], hess[np.ix_(rows, cols, cols)]
        )
    return step, decrement


def _damped_newton(g, h):
    """``_newton_steps`` on a stack whose Hessians have no zero diagonal entry."""
    chol, eye, lam, todo = np.empty_like(h), np.eye(g.shape[1]), 0.0, np.arange(len(h))
    while todo.size:
        factor = np.linalg._umath_linalg.cholesky_lo(h[todo] + lam * eye, signature="d->d")
        chol[todo] = factor
        todo = todo[np.isnan(factor.reshape(len(todo), -1)).any(axis=1)]
        lam = 1e-8 if lam == 0.0 else 10.0 * lam
    half = np.linalg.solve(chol, g[..., None])
    step = -np.linalg.solve(chol.swapaxes(1, 2), half)[..., 0]
    return step, (half.swapaxes(1, 2) @ half)[:, 0, 0]


def _window_objective(groups, chains, theta):
    """``_objective_grad_hess`` of the ``chains`` (a sorted list) at their
    rows of ``theta``, one stacked call per group of equal-length windows.
    ``groups`` holds ({chain: position}, X, var, y) stacks."""
    f, grad, hess = np.empty(len(chains)), np.empty((len(chains), 6)), np.empty((len(chains), 6, 6))
    for where, X, var, y in groups:
        rows = [r for r, c in enumerate(chains) if c in where]
        if len(rows) < len(where):
            k = [where[chains[r]] for r in rows]
            X, var, y = X[k], var[k], y[k]
        if rows:
            f[rows], grad[rows], hess[rows] = _objective_grad_hess(theta[rows], X, var, y)
    return f, grad, hess


def _fit_chains(windows, inits, histories) -> list:
    """Fit several windows at once: the EmosParams of each, or None for a
    window of fewer than _MIN_CASES cases.

    ``windows`` are (xbar, var, mhd, tpi, obs) array tuples, ``inits`` their
    warm starts (or None) and ``histories`` their objective lists (or None);
    see ``fit_emos`` for the fit.  The chains run in lockstep: each round
    takes the Newton steps of the chains at a new iterate together, then
    evaluates one line-search trial of every running chain, in one stacked
    call per window length.  Windows are not padded to one length, which
    would change the order of their sums, so every chain takes the steps
    it takes alone.
    """
    out = [None] * len(windows)
    chains = [i for i, w in enumerate(windows) if w[4].size >= _MIN_CASES]
    by_length = {}
    for c, i in enumerate(chains):
        by_length.setdefault(windows[i][4].size, []).append(c)
    groups = []
    for members in by_length.values():
        stack = [windows[chains[c]] for c in members]
        groups.append((
            {c: p for p, c in enumerate(members)},
            np.stack([_design(xbar, mhd, tpi) for xbar, _, mhd, tpi, _ in stack]),
            np.stack([w[1] for w in stack]),
            np.stack([w[4] for w in stack]),
        ))

    k = len(chains)
    theta = np.array([
        _INIT_THETA if inits[i] is None
        else np.r_[inits[i].beta, np.log([inits[i].sigma0, inits[i].sigma1])]
        for i in chains
    ]).reshape(k, 6)
    running = fresh = list(range(k))
    f, grad, hess = _window_objective(groups, running, theta)
    f, step, decrement = f.tolist(), np.zeros((k, 6)), [0.0] * k
    n_iter, stopped, t, halvings, ended = [0] * k, [False] * k, [1.0] * k, [0] * k, set()
    with np.errstate(over="ignore", invalid="ignore"):
        while running:
            if fresh:
                # a non-finite Hessian (a NaN observation, say) ends the fit unconverged
                finite = np.isfinite(hess[fresh].reshape(-1, 36)).all(axis=1).tolist()
                ended.update(c for c, ok in zip(fresh, finite) if not ok)
                fresh = [c for c, ok in zip(fresh, finite) if ok]
                g = grad[fresh]
                step[fresh], new = _newton_steps(g, hess[fresh])
                largest = np.max(np.abs(g), axis=1).tolist()
                for c, dec, top in zip(fresh, new.tolist(), largest):
                    decrement[c], t[c], halvings[c] = dec, 1.0, 0
                    if top <= _GRAD_TOL and dec <= _DECREMENT_TOL:
                        stopped[c] = True
                        ended.add(c)
                    elif n_iter[c] == _MAX_ITER:
                        ended.add(c)
            running = [c for c in running if c not in ended]
            if not running:
                break
            trial = theta[running] + np.array([t[c] for c in running])[:, None] * step[running]
            f_new, g_new, h_new = _window_objective(groups, running, trial)
            took = []
            for r, (c, value) in enumerate(zip(running, f_new.tolist())):
                if value < f[c] - _ARMIJO * t[c] * decrement[c]:
                    took.append(r)
                    f[c], n_iter[c] = value, n_iter[c] + 1
                    if histories[chains[c]] is not None:
                        histories[chains[c]].append(value)
                else:
                    t[c] *= 0.5
                    halvings[c] += 1
                    if halvings[c] == _MAX_HALVINGS:
                        ended.add(c)
            fresh = [running[r] for r in took]
            if took:
                theta[fresh], grad[fresh], hess[fresh] = trial[took], g_new[took], h_new[took]
    for c, i in enumerate(chains):
        out[i] = EmosParams(
            beta=tuple(theta[c, :4]),
            sigma0=max(float(np.exp(theta[c, 4])), 1e-12),
            sigma1=max(float(np.exp(theta[c, 5])), 1e-12),
            converged=stopped[c] or float(np.max(np.abs(grad[c]))) <= 10.0 * _GRAD_TOL,
            n_iter=n_iter[c],
            objective=f[c],
        )
    return out


def fit_emos(window, init: EmosParams | None = None, history: list | None = None) -> EmosParams:
    """Fit the regression by CRPS minimisation over a training window, an
    (xbar, var, mhd, tpi, obs) tuple of equal-length arrays.

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
    every accepted iterate.  One window of ``_fit_chains``, which fits
    several in lockstep.
    """
    cols = tuple(np.asarray(a, dtype=float) for a in window)
    params = _fit_chains([cols], [init], [history])[0]
    if params is None:
        raise InsufficientData(f"the fit needs at least {_MIN_CASES} cases, got {cols[4].size}")
    return params


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
